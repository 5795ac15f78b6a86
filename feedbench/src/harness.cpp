#include "harness.hpp"

#include <algorithm>
#include <cmath>

#include "scbd/budget_distribution.hpp"

namespace feedbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const auto upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] + fraction * (samples[upper] - samples[lower]);
}

std::optional<std::pair<double, double>> median_interval(std::vector<double> samples,
                                                         double confidence) {
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  // below[k] = P(Bin(n, 1/2) < k), accumulated in log space.
  const auto log_pmf = [n](std::size_t i) {
    return std::lgamma(static_cast<double>(n) + 1) - std::lgamma(static_cast<double>(i) + 1) -
           std::lgamma(static_cast<double>(n - i) + 1) -
           static_cast<double>(n) * std::log(2.0);
  };
  std::size_t best = 0;
  double below = 0.0;
  for (std::size_t k = 1; 2 * k <= n + 1; ++k) {
    below += std::exp(log_pmf(k - 1));
    if (1.0 - 2.0 * below < confidence) break;
    best = k;
  }
  if (best == 0) return std::nullopt;
  return std::pair{samples[best - 1], samples[n - best]};
}

void add_registry_counters(Row& row, const dtse::obs::MetricsSnapshot& snapshot) {
  static const std::pair<const char*, const char*> kCounters[] = {
      {"recorder.recorded_events", "trace.events"},
      {"recorder.reuse_misses", "trace.reuse_misses"},
      {"profile_cache.hits", "persist.hits"},
      {"profile_cache.misses", "persist.misses"},
      {"profile_cache.stores", "persist.stores"},
      {"profile_cache.quarantined", "persist.quarantined"},
      {"explore.evaluations", "core.evaluations"},
      {"solver.bb.runs", "alloc.bb_runs"},
      {"solver.bb.nodes", "alloc.bb_nodes"},
      {"solver.bb.pruned", "alloc.bb_pruned"},
      {"solver.sa.moves", "alloc.sa_moves"},
      {"solver.sa.accepted", "alloc.sa_accepted"},
      {"solver.greedy.evaluations", "alloc.greedy_evals"},
      {"parallel.tasks", "support.parallel_tasks"},
  };
  for (const auto& [source, metric] : kCounters) {
    row[metric] += static_cast<double>(snapshot.counter_or(source));
  }
  // Busy time of the sweep points, summed over workers: the explorer's own
  // per-point spans (`explore.alloc/*` also covers the shared sweep).
  double point_ms = 0.0;
  for (const auto& timing : snapshot.timings) {
    if (timing.name.starts_with("explore.alloc/") ||
        timing.name.starts_with("explore.cycle_budget/")) {
      point_ms += static_cast<double>(timing.total_us) / 1000.0;
    }
  }
  row["core.sweep_point_ms"] += point_ms;
}

dtse::core::Evaluation staged_evaluate(Ledger& ledger,
                                       const dtse::alloc::MemoryAllocator& allocator,
                                       const dtse::ir::Application& app,
                                       const dtse::core::ExplorerOptions& options) {
  // Mirrors Explorer::evaluate stage for stage.
  dtse::core::Evaluation eval;
  auto scbd_options = options.scbd;
  scbd_options.global_budget_cycles = options.storage_budget_cycles;
  eval.scbd = ledger.call("scbd", "scbd.distribute_ms", [&] {
    return dtse::scbd::distribute_budget(app, scbd_options);
  });
  ledger.row()["scbd.conflict_edges"] += static_cast<double>(eval.scbd.conflicts.edge_count());

  auto alloc_options = options.allocation;
  alloc_options.frame_cycles = options.real_time_budget_cycles;
  eval.allocation = ledger.call("alloc", "alloc.allocate_ms", [&] {
    return allocator.allocate(app, eval.scbd.conflicts, alloc_options);
  });

  eval.summary = eval.allocation.summary;
  eval.spare_cycles = eval.scbd.spare_cycles(options.real_time_budget_cycles);
  eval.feasible = eval.scbd.feasible && eval.allocation.feasible;
  ledger.row()["core.evaluations"] += 1;
  return eval;
}

}  // namespace feedbench
