// Tests for flow-graph balancing and storage cycle budget distribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/explorer.hpp"
#include "obs/telemetry.hpp"
#include "scbd/budget_distribution.hpp"
#include "scbd/flow_graph_balancing.hpp"
#include "scbd_reference.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workloads/workload.hpp"

namespace dtse::scbd {
namespace {

/// One loop body with `n` independent on-chip reads of distinct groups.
ir::Application independent_reads_app(int n, std::uint64_t iterations = 10) {
  ir::Application app("indep");
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = iterations;
  for (int i = 0; i < n; ++i) {
    const auto g = app.add_group({"g" + std::to_string(i), 64, 8});
    body.accesses.push_back({g, ir::AccessKind::kRead, 1.0});
  }
  app.add_body(body);
  return app;
}

TEST(FlowGraphBalancing, SerialBudgetHasNoConflicts) {
  const auto app = independent_reads_app(5);
  const auto body = app.body_ids().front();
  EXPECT_EQ(serial_body_budget(app, body), 5u);
  const auto result = balance_body(app, body, 5);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.conflicts.edge_count(), 0u);
  EXPECT_DOUBLE_EQ(result.conflict_cost, 0.0);
}

TEST(FlowGraphBalancing, TightBudgetCreatesConflicts) {
  const auto app = independent_reads_app(6);
  const auto body = app.body_ids().front();
  const auto result = balance_body(app, body, 3);
  EXPECT_TRUE(result.feasible);  // no dependencies, 3 cycles is schedulable
  EXPECT_GT(result.conflicts.edge_count(), 0u);
  EXPECT_GT(result.conflict_cost, 0.0);
  // All six units must still be scheduled.
  std::size_t placed = 0;
  for (const auto& slot : result.slots) placed += slot.size();
  EXPECT_EQ(placed, 6u);
}

TEST(FlowGraphBalancing, ConflictWeightsScaleWithIterations) {
  const auto app = independent_reads_app(4, 1000);
  const auto body = app.body_ids().front();
  const auto result = balance_body(app, body, 2);
  double total = 0.0;
  for (const auto& edge : result.conflicts.edges()) total += edge.weight;
  // 4 units in 2 slots -> 2 pairs per iteration, 1000 iterations.
  EXPECT_DOUBLE_EQ(total, 2000.0);
}

TEST(FlowGraphBalancing, MinBudgetIsCriticalPath) {
  ir::Application app("chain");
  const auto g = app.add_group({"g", 64, 8});
  const auto h = app.add_group({"h", 64, 8});
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 1;
  body.accesses.push_back({g, ir::AccessKind::kRead, 1.0});
  body.accesses.push_back({h, ir::AccessKind::kWrite, 1.0});
  body.deps = {{0, 1}};
  const auto id = app.add_body(body);
  EXPECT_EQ(min_body_budget(app, id, {}), 2u);
}

TEST(FlowGraphBalancing, OffchipLatencyLengthensCriticalPath) {
  ir::Application app("chain");
  const auto g = app.add_group({"g", 1 << 20, 8});  // off-chip (2 cycles)
  const auto h = app.add_group({"h", 64, 8});
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 1;
  body.accesses.push_back({g, ir::AccessKind::kRead, 1.0});
  body.accesses.push_back({h, ir::AccessKind::kWrite, 1.0});
  body.deps = {{0, 1}};
  const auto id = app.add_body(body);
  EXPECT_EQ(min_body_budget(app, id, {}), 3u);
}

TEST(FlowGraphBalancing, BelowMinimumBudgetIsInfeasible) {
  ir::Application app("chain");
  const auto g = app.add_group({"g", 64, 8});
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 1;
  for (int i = 0; i < 3; ++i) body.accesses.push_back({g, ir::AccessKind::kRead, 1.0});
  body.deps = {};
  const auto id = app.add_body(body);
  // 3 reads of one group into 1 cycle: schedulable but self-conflicting.
  const auto result = balance_body(app, id, 1);
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(result.conflicts.has_self_conflict(g));
}

TEST(FlowGraphBalancing, SchedulerAvoidsSelfConflictsWhenPossible) {
  ir::Application app("self");
  const auto g = app.add_group({"g", 64, 8});
  const auto h = app.add_group({"h", 64, 8});
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 1;
  body.accesses.push_back({g, ir::AccessKind::kRead, 2.0});
  body.accesses.push_back({h, ir::AccessKind::kRead, 2.0});
  const auto id = app.add_body(body);
  // 4 units in 2 cycles: pairing g with h twice avoids any self-conflict.
  const auto result = balance_body(app, id, 2);
  EXPECT_FALSE(result.conflicts.has_self_conflict(g));
  EXPECT_FALSE(result.conflicts.has_self_conflict(h));
  EXPECT_TRUE(result.conflicts.conflicts(g, h));
}

TEST(FlowGraphBalancing, FractionalAccessesCarryTheirWeight) {
  ir::Application app("frac");
  const auto g = app.add_group({"g", 64, 8});
  const auto h = app.add_group({"h", 64, 8});
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 100;
  body.accesses.push_back({g, ir::AccessKind::kRead, 0.5});
  body.accesses.push_back({h, ir::AccessKind::kRead, 1.0});
  const auto id = app.add_body(body);
  const auto result = balance_body(app, id, 1);
  EXPECT_DOUBLE_EQ(result.conflicts.conflict_weight(g, h), 0.5 * 100);
}

TEST(FlowGraphBalancing, HugeAccessCountIsRejected) {
  ir::Application app("huge");
  const auto g = app.add_group({"g", 64, 8});
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 1;
  body.accesses.push_back({g, ir::AccessKind::kRead, 100.0});
  const auto id = app.add_body(body);
  EXPECT_THROW((void)balance_body(app, id, 100), support::ContractError);
}

// --- budget distribution -----------------------------------------------------

ir::Application two_body_app() {
  ir::Application app("two");
  const auto g = app.add_group({"g", 64, 8});
  const auto h = app.add_group({"h", 64, 8});
  ir::LoopBody hot;
  hot.name = "hot";
  hot.iterations = 1000;
  for (int i = 0; i < 4; ++i) {
    hot.accesses.push_back({i % 2 ? g : h, ir::AccessKind::kRead, 1.0});
  }
  app.add_body(hot);
  ir::LoopBody cold;
  cold.name = "cold";
  cold.iterations = 10;
  for (int i = 0; i < 4; ++i) {
    cold.accesses.push_back({i % 2 ? g : h, ir::AccessKind::kRead, 1.0});
  }
  app.add_body(cold);
  return app;
}

TEST(BudgetDistribution, GenerousBudgetIsConflictFree) {
  const auto app = two_body_app();
  ScbdOptions options;
  options.global_budget_cycles = 100'000;
  const auto result = distribute_budget(app, options);
  EXPECT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.conflict_cost, 0.0);
  EXPECT_LE(result.used_cycles, options.global_budget_cycles);
  EXPECT_EQ(result.used_cycles, result.conflict_free_cycles);
}

TEST(BudgetDistribution, TightBudgetCostsConflicts) {
  const auto app = two_body_app();
  ScbdOptions options;
  options.global_budget_cycles = 2 * 1000 + 2 * 10;  // half the serial need
  const auto result = distribute_budget(app, options);
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.conflict_cost, 0.0);
  EXPECT_LE(result.used_cycles, options.global_budget_cycles);
}

TEST(BudgetDistribution, InfeasibleBelowCriticalPath) {
  const auto app = two_body_app();
  ScbdOptions options;
  options.global_budget_cycles = 1;
  const auto result = distribute_budget(app, options);
  EXPECT_FALSE(result.feasible);
  EXPECT_GT(result.minimum_cycles, options.global_budget_cycles);
}

TEST(BudgetDistribution, ExtraCyclesGoToHotBodyFirst) {
  // A cycle given to the hot body buys 1000 conflict reductions; the greedy
  // knapsack must prefer it over the cold body when the budget is scarce.
  const auto app = two_body_app();
  ScbdOptions options;
  options.global_budget_cycles = 3 * 1000 + 2 * 10 + 5;
  const auto result = distribute_budget(app, options);
  ASSERT_EQ(result.bodies.size(), 2u);
  EXPECT_GT(result.bodies[0].budget_cycles, result.bodies[1].budget_cycles);
}

TEST(BudgetDistribution, MonotoneConflictCostInBudget) {
  const auto app = two_body_app();
  double previous_cost = 1e18;
  for (const std::uint64_t budget : {2020u, 2500u, 3030u, 4040u, 100000u}) {
    ScbdOptions options;
    options.global_budget_cycles = budget;
    const auto result = distribute_budget(app, options);
    EXPECT_LE(result.conflict_cost, previous_cost + 1e-9)
        << "budget " << budget << " increased the conflict cost";
    previous_cost = result.conflict_cost;
  }
}

TEST(BudgetDistribution, SpareCyclesComputation) {
  const auto app = two_body_app();
  ScbdOptions options;
  options.global_budget_cycles = 100'000;
  const auto result = distribute_budget(app, options);
  EXPECT_EQ(result.spare_cycles(200'000), 200'000 - result.used_cycles);
  EXPECT_EQ(result.spare_cycles(0), 0u);
}

TEST(BudgetDistribution, ReportMentionsBodies) {
  const auto app = two_body_app();
  const auto result = distribute_budget(app, {});
  const auto text = result.to_string();
  EXPECT_NE(text.find("hot"), std::string::npos);
  EXPECT_NE(text.find("cold"), std::string::npos);
}

class BudgetSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BudgetSweep, UsedNeverExceedsBudgetWhenFeasible) {
  const auto app = two_body_app();
  ScbdOptions options;
  options.global_budget_cycles = GetParam();
  const auto result = distribute_budget(app, options);
  if (result.feasible) {
    EXPECT_LE(result.used_cycles, GetParam());
    EXPECT_GE(result.used_cycles, result.minimum_cycles);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweep,
                         ::testing::Values(1500, 2020, 2100, 2500, 3000, 4040, 9999,
                                           100000));

// --- telemetry ---------------------------------------------------------------

TEST(BudgetDistribution, CountsCallsBodiesAndCurvePoints) {
  // Both bodies: 4 independent units, critical path 1, serial budget 4, so
  // each cost curve is priced at budgets 1..4.
  const auto app = two_body_app();
  auto& registry = obs::TelemetryRegistry::global();
  const auto before = registry.snapshot();
  (void)distribute_budget(app, {});
  const auto after = registry.snapshot();
  const auto delta = [&](const char* name) {
    return after.counter_or(name) - before.counter_or(name);
  };
  EXPECT_EQ(delta("scbd.calls"), 1u);
  EXPECT_EQ(delta("scbd.bodies"), 2u);
  EXPECT_EQ(delta("scbd.curve_points"), 8u);
  const auto spans = [](const obs::MetricsSnapshot& snapshot) {
    for (const auto& timing : snapshot.timings) {
      if (timing.name == "scbd.distribute") return timing.count;
    }
    return std::uint64_t{0};
  };
  EXPECT_EQ(spans(after) - spans(before), 1u);
}

// --- differential test against the per-budget rebuild ------------------------
//
// The library balances every body from one `BodyScheduler`; the oracle in
// scbd_reference.cpp rebuilds the body at each budget.  Results must agree
// bit for bit, including the conflict graph's edge insertion order (which
// `total_weight` and `clique_lower_bound` observe).

void expect_same_conflicts(const graph::ConflictGraph& got, const graph::ConflictGraph& want,
                           const std::string& where) {
  const auto got_edges = got.edges();
  const auto want_edges = want.edges();
  ASSERT_EQ(got_edges.size(), want_edges.size()) << where;
  for (std::size_t e = 0; e < got_edges.size(); ++e) {
    EXPECT_EQ(got_edges[e].a, want_edges[e].a) << where << " edge " << e;
    EXPECT_EQ(got_edges[e].b, want_edges[e].b) << where << " edge " << e;
    EXPECT_EQ(got_edges[e].weight, want_edges[e].weight) << where << " edge " << e;
  }
  EXPECT_EQ(got.total_weight(), want.total_weight()) << where;
  EXPECT_EQ(got.clique_lower_bound(), want.clique_lower_bound()) << where;
}

void expect_same_balance(const BalanceResult& got, const BalanceResult& want,
                         const std::string& where) {
  EXPECT_EQ(got.budget_cycles, want.budget_cycles) << where;
  EXPECT_EQ(got.slots, want.slots) << where;
  EXPECT_EQ(got.conflict_cost, want.conflict_cost) << where;
  EXPECT_EQ(got.feasible, want.feasible) << where;
  expect_same_conflicts(got.conflicts, want.conflicts, where);
}

void expect_same_distribution(const ir::Application& app, const ScbdOptions& options,
                              const std::string& where) {
  const auto got = distribute_budget(app, options);
  const auto want = reference::distribute_budget(app, options);
  ASSERT_EQ(got.bodies.size(), want.bodies.size()) << where;
  for (std::size_t i = 0; i < got.bodies.size(); ++i) {
    const auto& g = got.bodies[i];
    const auto& w = want.bodies[i];
    const auto at = where + " body " + w.name;
    EXPECT_EQ(g.body, w.body) << at;
    EXPECT_EQ(g.name, w.name) << at;
    EXPECT_EQ(g.iterations, w.iterations) << at;
    EXPECT_EQ(g.min_cycles, w.min_cycles) << at;
    EXPECT_EQ(g.serial_cycles, w.serial_cycles) << at;
    EXPECT_EQ(g.budget_cycles, w.budget_cycles) << at;
    expect_same_balance(g.schedule, w.schedule, at);
  }
  expect_same_conflicts(got.conflicts, want.conflicts, where);
  EXPECT_EQ(got.used_cycles, want.used_cycles) << where;
  EXPECT_EQ(got.minimum_cycles, want.minimum_cycles) << where;
  EXPECT_EQ(got.conflict_free_cycles, want.conflict_free_cycles) << where;
  EXPECT_EQ(got.conflict_cost, want.conflict_cost) << where;
  EXPECT_EQ(got.feasible, want.feasible) << where;
}

/// Budgets spread over the model's own range: its critical-path minimum, a
/// few points up to its conflict-free total, and one cycle below the minimum
/// (infeasible).
std::vector<std::uint64_t> budgets_across(const ir::Application& app) {
  ScbdOptions generous;
  generous.global_budget_cycles = std::uint64_t{1} << 62;
  const auto bounds = reference::distribute_budget(app, generous);
  const auto lo = bounds.minimum_cycles;
  const auto hi = bounds.conflict_free_cycles;
  std::vector<std::uint64_t> budgets;
  if (lo > 1) budgets.push_back(lo - 1);
  for (const std::uint64_t eighth : {0u, 1u, 3u, 5u, 8u}) {
    budgets.push_back(std::max<std::uint64_t>(1, lo + (hi - lo) * eighth / 8));
  }
  return budgets;
}

TEST(ScbdDifferential, TunedKernelModelsAndTheirMerge) {
  workloads::WorkloadOptions profile;
  profile.profile_size = 64;
  std::vector<std::pair<std::string, ir::Application>> models;
  for (const auto name : workloads::workload_names()) {
    const auto* workload = workloads::find_workload(name);
    models.emplace_back(std::string(name), workload->tuned_variant(workload->profile(profile)));
  }
  std::vector<std::pair<std::string, const ir::Application*>> labelled;
  for (const auto& [label, app] : models) labelled.emplace_back(label, &app);
  models.emplace_back("merged", core::merge_applications(labelled, "shared"));

  const core::ExplorerOptions explorer;
  for (const auto& [label, app] : models) {
    ScbdOptions options = explorer.scbd;
    for (const std::uint64_t percent : {100u, 75u, 58u}) {
      options.global_budget_cycles = explorer.real_time_budget_cycles * percent / 100;
      expect_same_distribution(app, options, label + " @" + std::to_string(percent) + "%");
    }
    for (const auto budget : budgets_across(app)) {
      options.global_budget_cycles = budget;
      expect_same_distribution(app, options, label + " @" + std::to_string(budget));
    }
  }
}

/// A seeded random application: fractional per-iteration counts, dependency
/// chains, groups forced on-chip and off-chip or large enough to be presumed
/// off-chip, and every used group id offset past `padding` unused groups, as
/// `merge_applications` offsets later workloads.
ir::Application random_app(std::uint64_t seed, std::size_t padding) {
  support::Rng rng(seed);
  ir::Application app("random-" + std::to_string(seed));
  for (std::size_t i = 0; i < padding; ++i) {
    app.add_group({"pad" + std::to_string(i), 16, 8});
  }
  std::vector<ir::BasicGroupId> groups;
  const auto group_count = 2 + rng.below(7);
  for (std::uint64_t g = 0; g < group_count; ++g) {
    ir::BasicGroup group{"g" + std::to_string(g), 64u << rng.below(12), 8};
    switch (rng.below(4)) {
      case 0: group.forced_location = memlib::Location::kOnChip; break;
      case 1: group.forced_location = memlib::Location::kOffChip; break;
      default: break;
    }
    groups.push_back(app.add_group(group));
  }
  const auto body_count = 1 + rng.below(4);
  for (std::uint64_t b = 0; b < body_count; ++b) {
    ir::LoopBody body;
    body.name = "body" + std::to_string(b);
    body.iterations = 1 + rng.below(5000);
    const auto access_count = 1 + rng.below(9);
    for (std::uint64_t a = 0; a < access_count; ++a) {
      const auto kind = rng.below(2) == 0 ? ir::AccessKind::kRead : ir::AccessKind::kWrite;
      // Whole counts, fractions below one, and whole-plus-fraction counts.
      double count = 0.0;
      switch (rng.below(3)) {
        case 0: count = static_cast<double>(1 + rng.below(4)); break;
        case 1: count = rng.uniform(0.05, 1.0); break;
        default: count = static_cast<double>(1 + rng.below(3)) + rng.uniform(0.1, 0.9); break;
      }
      body.accesses.push_back({groups[rng.below(groups.size())], kind, count});
    }
    // Forward edges only, so chains of any length but never a cycle.
    for (std::size_t from = 0; from < body.accesses.size(); ++from) {
      for (std::size_t to = from + 1; to < body.accesses.size(); ++to) {
        if (rng.below(4) == 0) body.deps.emplace_back(from, to);
      }
    }
    app.add_body(body);
  }
  app.validate();
  return app;
}

TEST(ScbdDifferential, SeededRandomBodies) {
  graph::LatencyModel slow;
  slow.offchip_cycles = 3.0;
  slow.offchip_threshold_words = 4096;
  // Non-integer latencies make ALAP round differently at each horizon, so
  // only a per-budget mobility sort reproduces the oracle's unit order.
  graph::LatencyModel fractional;
  fractional.onchip_cycles = 0.7;
  fractional.offchip_cycles = 1.3;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto app = random_app(seed, seed % 2 == 0 ? 0 : 300);
    const auto where = "seed " + std::to_string(seed);
    for (const auto& latency : {graph::LatencyModel{}, slow, fractional}) {
      ScbdOptions options;
      options.latency = latency;
      for (const auto budget : budgets_across(app)) {
        options.global_budget_cycles = budget;
        expect_same_distribution(app, options, where + " @" + std::to_string(budget));
      }
      // Every body at every budget of its curve, plus one below its minimum.
      for (const auto id : app.body_ids()) {
        const auto min = reference::min_body_budget(app, id, latency);
        const auto serial = reference::serial_body_budget(app, id);
        EXPECT_EQ(min_body_budget(app, id, latency), min) << where;
        EXPECT_EQ(serial_body_budget(app, id), serial) << where;
        for (std::uint64_t b = min > 0 ? min - 1 : 0; b <= std::max(min, serial) + 1; ++b) {
          expect_same_balance(balance_body(app, id, b, latency),
                              reference::balance_body(app, id, b, latency),
                              where + " body " + app.body(id).name + " @" + std::to_string(b));
        }
      }
    }
  }
}

TEST(ScbdDifferential, InfeasibleBudget) {
  const auto app = random_app(7, 300);
  ScbdOptions options;
  options.global_budget_cycles = 1;
  ASSERT_FALSE(reference::distribute_budget(app, options).feasible);
  expect_same_distribution(app, options, "budget 1");
}

}  // namespace
}  // namespace dtse::scbd
