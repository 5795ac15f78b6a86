// point-queries: single design-point questions on the tuned kernel models,
// each answered by one direct `Explorer::evaluate` call — no sweep, so
// neither sweep parallelism nor per-sweep reuse applies.
//
// A pass is one block: every (kernel, storage budget, memory count) cell of
// the grid exactly once, in an order drawn from the seed.  Whole blocks keep
// the query mix identical across seeds and runs while the order varies, and
// the digest is taken over the grid in canonical order so it does not depend
// on the draw.
#include <algorithm>
#include <numeric>

#include "support/rng.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace feedbench {

namespace {

/// Storage budgets as a share of the real-time budget (explore's sweep).
constexpr std::uint64_t kBudgetPercents[] = {100, 75, 58};
/// On-chip memory counts; 0 lets the allocator pick the cheapest count,
/// which is the slow tail (it tries every count up to the maximum).
constexpr int kCounts[] = {0, 4, 5, 8, 10, 14};

struct Query {
  std::size_t model = 0;
  std::uint64_t budget_percent = 100;
  int count = 0;
};

class PointQueries final : public BenchWorkload {
 public:
  explicit PointQueries(const Config& config)
      : config_(config),
        explorer_(dtse::memlib::MemoryLibrary{}),
        allocator_(explorer_.library()),
        options_(explorer_options(config)),
        rng_(config.seed) {
    for (const auto name : dtse::workloads::workload_names()) {
      kernels_.push_back(dtse::workloads::find_workload(name));
    }
    for (std::size_t model = 0; model < kernels_.size(); ++model) {
      for (const auto percent : kBudgetPercents) {
        for (const auto count : kCounts) grid_.push_back({model, percent, count});
      }
    }
  }

  std::string_view digest_family() const override { return "point-queries"; }
  std::string_view check_name() const override {
    return "block with evaluate issued as scbd + allocate";
  }
  bool feedback_per_pass() const override { return false; }

  void setup(Tally& tally) override {
    dtse::workloads::WorkloadOptions options;
    options.seed = config_.seed;
    models_.clear();
    for (const auto* kernel : kernels_) {
      ++tally.attempted;
      const auto report = kernel->verify(options);
      if (!report.passed) {
        tally.golden_ok = false;
        tally.fail(std::string(kernel->name()) + ": golden check " + report.to_string());
      }
      ++tally.attempted;
      models_.push_back(kernel->tuned_variant(kernel->profile(options)));
    }
  }

  Pass pass(Ledger& ledger, Tally& tally, bool staged) override {
    auto& registry = dtse::obs::TelemetryRegistry::global();
    registry.reset();
    Pass pass;
    pass.traced = ledger.traced();

    // Seeded Fisher-Yates over the grid (support::Rng, so the draw is the
    // same on every standard library).
    std::vector<std::size_t> order(grid_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng_.below(i)]);
    }

    std::vector<dtse::core::Evaluation> answers(grid_.size());
    ledger.call("feedbench", "pass_ms", [&] {
      for (const auto index : order) {
        const auto& query = grid_[index];
        auto options = options_;
        options.storage_budget_cycles =
            options.real_time_budget_cycles * query.budget_percent / 100;
        options.allocation.onchip_memories = query.count;
        const auto& app = models_[query.model];
        auto& answer = answers[index];
        try {
          answer = ledger.call("core", "core.query_ms", [&] {
            return staged ? staged_evaluate(ledger, allocator_, app, options)
                          : explorer_.evaluate(app, options);
          });
        } catch (const std::exception& e) {
          answer.error = e.what();
        }
        pass.feedback_ms.push_back(ledger.last_ms());
      }
    });

    Digest digest;
    for (std::size_t i = 0; i < grid_.size(); ++i) {
      const auto& query = grid_[i];
      ++pass.points;
      ++tally.attempted;
      if (!answers[i].error.empty() || answers[i].timed_out) {
        tally.fail(std::string(kernels_[query.model]->name()) + " query: " +
                   answers[i].to_string());
      }
      digest.add(std::uint64_t{query.model});
      digest.add(query.budget_percent);
      digest.add(static_cast<std::uint64_t>(query.count));
      digest.add(answers[i], options_.allocation.solver.weights);
    }
    pass.seconds = ledger.last_ms() / 1000.0;
    pass.digest = digest.value();
    pass.row = ledger.take_row();
    add_registry_counters(pass.row, registry.snapshot());
    registry.reset();
    return pass;
  }

  std::uint64_t check(Tally& tally) override {
    Ledger ledger(nullptr);
    return pass(ledger, tally, true).digest;
  }

 private:
  Config config_;
  dtse::core::Explorer explorer_;
  dtse::alloc::MemoryAllocator allocator_;
  dtse::core::ExplorerOptions options_;
  dtse::support::Rng rng_;
  std::vector<const dtse::workloads::Workload*> kernels_;
  std::vector<Query> grid_;
  std::vector<dtse::ir::Application> models_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_point_queries(const Config& config) {
  return std::make_unique<PointQueries>(config);
}

}  // namespace feedbench
