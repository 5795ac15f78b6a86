// cold-loop and warm-loop: one pass is the default `explore` run over every
// registered kernel plus the entropy roster, issued through the same public
// calls examples/explore.cpp makes, in the same order.
#include <optional>

#include "core/pareto.hpp"
#include "entropy/entropy_coder.hpp"
#include "persist/profile_cache.hpp"
#include "workloads.hpp"
#include "workloads/profile_store.hpp"
#include "workloads/workload.hpp"

namespace feedbench {

namespace {

using dtse::entropy::Backend;

/// One profiled model: a kernel, or a kernel under a roster entropy backend.
struct Model {
  const dtse::workloads::Workload* workload = nullptr;
  std::string label;
  dtse::workloads::WorkloadOptions options;
  bool roster = false;
};

std::vector<Model> loop_models(std::uint64_t seed) {
  dtse::workloads::WorkloadOptions base;
  base.seed = seed;
  std::vector<Model> models;
  for (const auto name : dtse::workloads::workload_names()) {
    models.push_back({dtse::workloads::find_workload(name), std::string(name), base, false});
  }
  // explore's entropy-coder roster.
  const std::pair<const char*, std::vector<Backend>> roster[] = {
      {"btpc", {Backend::kRice, Backend::kExpGolomb}},
      {"hyperspec", {Backend::kExpGolomb, Backend::kRans}},
  };
  for (const auto& [kernel, backends] : roster) {
    for (const auto backend : backends) {
      auto options = base;
      options.entropy_backend = backend;
      models.push_back({dtse::workloads::find_workload(kernel),
                        std::string(kernel) + "[" + std::string(to_string(backend)) + "]",
                        options, true});
    }
  }
  return models;
}

const std::vector<int> kAllocationCounts = {4, 5, 8, 10, 14};
const std::vector<int> kSharedCounts = {4, 6, 8, 10, 12, 14};

class LoopWorkload final : public BenchWorkload {
 public:
  LoopWorkload(const Config& config, bool warm)
      : config_(config),
        warm_(warm),
        models_(loop_models(config.seed)),
        explorer_(dtse::memlib::MemoryLibrary{}),
        allocator_(explorer_.library()),
        options_(explorer_options(config)) {}

  std::string_view digest_family() const override { return "loop"; }
  std::string_view check_name() const override {
    return warm_ ? "cold pass (empty cache)" : "warm pass (cache of the last pass)";
  }
  bool feedback_per_pass() const override { return true; }

  void setup(Tally& tally) override {
    Ledger ledger(nullptr);
    for (const auto& model : models_) {
      // Pre-flight: never time a loop over a broken kernel.
      (void)verify(ledger, model, tally);
    }
    if (!warm_) return;
    fill_dir_ = fresh_dir("fill");
    dtse::persist::ProfileCache cache(fill_dir_.string());
    for (const auto& model : models_) (void)profile(ledger, model, cache, tally, false);
  }

  Pass pass(Ledger& ledger, Tally& tally, bool staged) override {
    if (warm_) return run_pass(ledger, tally, staged, fill_dir_);
    last_cold_dir_ = fresh_dir("cold");
    return run_pass(ledger, tally, staged, last_cold_dir_);
  }

  std::uint64_t check(Tally& tally) override {
    Ledger ledger(nullptr);
    const auto dir = warm_ ? fresh_dir("check") : last_cold_dir_;
    return run_pass(ledger, tally, false, dir).digest;
  }

 private:
  std::filesystem::path fresh_dir(const char* name) const {
    const auto dir = config_.work_dir / name;
    std::filesystem::remove_all(dir);
    return dir;
  }

  bool verify(Ledger& ledger, const Model& model, Tally& tally) const {
    const auto report =
        ledger.call("workloads", "workloads.verify_ms." + std::string(model.workload->name()),
                    [&] { return model.workload->verify(model.options); });
    ++tally.attempted;
    if (!report.passed) {
      tally.golden_ok = false;
      tally.fail(model.label + ": golden check " + report.to_string());
    }
    return report.passed;
  }

  std::optional<dtse::ir::Application> profile(Ledger& ledger, const Model& model,
                                               dtse::persist::ProfileCache& cache,
                                               Tally& tally, bool staged) const {
    ++tally.attempted;
    const auto& workload = *model.workload;
    try {
      if (!staged) {
        return ledger.call("trace", "trace.profile_cached_ms", [&] {
          return dtse::workloads::profile_cached(workload, model.options, &cache);
        });
      }
      // profile_cached, one call per layer.
      const auto key = ledger.call("persist", "persist.lookup_ms", [&] {
        return dtse::workloads::profile_cache_key(workload.name(), model.options);
      });
      auto cached = ledger.call("persist", "persist.lookup_ms", [&] { return cache.load(key); });
      if (cached) return cached;
      auto profiled = ledger.call("trace", "trace.profile_ms." + model.label,
                                  [&] { return workload.profile(model.options); });
      ledger.call("persist", "persist.store_ms", [&] { (void)cache.store(key, profiled); });
      return profiled;
    } catch (const std::exception& e) {
      tally.fail(model.label + ": profiling failed: " + e.what());
      return std::nullopt;
    }
  }

  /// Counts one sweep point or evaluation and hashes it.
  void priced(const dtse::core::Evaluation& eval, std::string_view label, Pass& pass,
              Digest& digest, Tally& tally) const {
    ++pass.points;
    ++tally.attempted;
    if (!eval.error.empty() || eval.timed_out) {
      tally.fail(std::string(label) + ": " + eval.to_string());
    }
    digest.add(label);
    digest.add(eval, options_.allocation.solver.weights);
  }

  void add_front(Ledger& ledger, const std::vector<dtse::core::Variant>& variants,
                 Digest& digest) const {
    const auto front =
        ledger.call("core", "core.pareto_ms", [&] { return dtse::core::pareto_front(variants); });
    digest.add(std::uint64_t{front.size()});
    for (const auto index : front) digest.add(std::uint64_t{index});
  }

  Pass run_pass(Ledger& ledger, Tally& tally, bool staged,
                const std::filesystem::path& cache_dir) const {
    auto& registry = dtse::obs::TelemetryRegistry::global();
    registry.reset();
    Pass pass;
    pass.traced = ledger.traced();
    Digest digest;
    // Time to feedback: when each call that returns priced design points
    // has answered, counted from the start of the pass — what a designer
    // watching explore's output waits for.
    const auto pass_start = Clock::now();
    const auto pricing = [&](const char* metric, auto&& fn) {
      auto result = ledger.call("core", metric, fn);
      pass.feedback_ms.push_back(ms_since(pass_start));
      return result;
    };

    ledger.call("feedbench", "pass_ms", [&] {
      dtse::persist::ProfileCache cache(cache_dir.string());
      std::vector<std::pair<std::string, dtse::ir::Application>> tuned;
      for (const auto& model : models_) {
        const bool golden = verify(ledger, model, tally);
        digest.add(model.label);
        digest.add(std::uint64_t{golden});
        if (!golden) continue;
        const auto profiled = profile(ledger, model, cache, tally, staged);
        if (!profiled) continue;

        if (model.roster) {
          auto best = ledger.call("hierarchy", "hierarchy.tune_ms",
                                  [&] { return model.workload->tuned_variant(*profiled); });
          const auto eval = pricing("core.roster_eval_ms", [&] {
            return staged ? staged_evaluate(ledger, allocator_, best, options_)
                          : explorer_.evaluate(best, options_);
          });
          priced(eval, model.label, pass, digest, tally);
          tuned.emplace_back(model.label, std::move(best));
          continue;
        }

        const auto macp = ledger.call("graph", "graph.macp_ms", [&] {
          return explorer_.analyze_critical_path(*profiled, options_);
        });
        digest.add(macp.macp_cycles);
        auto best = ledger.call("hierarchy", "hierarchy.tune_ms",
                                [&] { return model.workload->tuned_variant(*profiled); });

        const std::uint64_t full = options_.real_time_budget_cycles;
        const auto budgets = pricing("core.budget_sweep_ms", [&] {
          return explorer_.explore_cycle_budgets(
              best, {full, full * 75 / 100, full * 58 / 100}, options_);
        });
        for (const auto& point : budgets) {
          digest.add(point.used_cycles);
          priced(point.eval, "budget/" + std::to_string(point.requested_budget), pass, digest,
                 tally);
        }

        const auto allocations = pricing("core.alloc_sweep_ms", [&] {
          return explorer_.explore_allocation_counts(best, kAllocationCounts, options_);
        });
        for (const auto& variant : allocations) {
          priced(variant.eval, variant.label, pass, digest, tally);
        }
        add_front(ledger, allocations, digest);
        tuned.emplace_back(model.label, std::move(best));
      }
      if (tuned.size() < 2) return;

      std::vector<std::pair<std::string, const dtse::ir::Application*>> apps;
      for (const auto& [label, app] : tuned) apps.emplace_back(label, &app);
      const auto merged = ledger.call("core", "core.merge_ms", [&] {
        return dtse::core::merge_applications(apps, "shared");
      });
      const auto shared = pricing("core.shared_sweep_ms", [&] {
        return explorer_.explore_allocation_counts(merged, kSharedCounts, options_);
      });
      for (const auto& variant : shared) priced(variant.eval, variant.label, pass, digest, tally);
      add_front(ledger, shared, digest);

      const auto attribution = pricing("core.attribution_ms", [&] {
        return explorer_.evaluate_shared_per_workload(apps, options_);
      });
      priced(attribution.merged, "shared/final", pass, digest, tally);
      for (const auto& share : attribution.per_workload) {
        digest.add(share.label);
        digest.add(share.cumulative);
        digest.add(share.marginal);
      }
    });

    pass.seconds = ledger.last_ms() / 1000.0;
    pass.digest = digest.value();
    pass.row = ledger.take_row();
    add_registry_counters(pass.row, registry.snapshot());
    registry.reset();
    const auto quarantined = static_cast<std::uint64_t>(pass.row["persist.quarantined"]);
    for (std::uint64_t i = 0; i < quarantined; ++i) tally.fail("quarantined cache entry");
    return pass;
  }

  Config config_;
  bool warm_;
  std::vector<Model> models_;
  dtse::core::Explorer explorer_;
  dtse::alloc::MemoryAllocator allocator_;
  dtse::core::ExplorerOptions options_;
  std::filesystem::path fill_dir_;
  std::filesystem::path last_cold_dir_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_loop_workload(const Config& config, bool warm) {
  return std::make_unique<LoopWorkload>(config, warm);
}

}  // namespace feedbench
