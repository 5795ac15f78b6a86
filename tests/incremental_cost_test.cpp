// Tests for the incremental assignment-cost engine and the multi-chain
// annealing built on it.  The load-bearing property: the incrementally
// maintained scalar cost equals a from-scratch evaluation after any move
// sequence, which is what lets the solver trust O(delta) re-costing.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "alloc/incremental_cost.hpp"
#include "alloc/solvers.hpp"
#include "support/rng.hpp"

namespace dtse::alloc {
namespace {

struct Fixture {
  ir::Application app{"inc"};
  std::vector<ir::BasicGroupId> groups;
  graph::ConflictGraph conflicts;
  memlib::MemoryLibrary library;
  std::uint64_t frame_cycles = 20'000'000;

  explicit Fixture(int n_groups, double reads_per_iter = 1.0) {
    ir::LoopBody body;
    body.name = "loop";
    body.iterations = 100'000;
    for (int i = 0; i < n_groups; ++i) {
      const auto id = app.add_group(
          {"g" + std::to_string(i), 256u << (i % 3), 4 + 4 * (i % 4), {}, 2});
      groups.push_back(id);
      body.accesses.push_back({id, ir::AccessKind::kRead, reads_per_iter});
      if (i % 2 == 0) {
        body.accesses.push_back({id, ir::AccessKind::kWrite, 0.5 * reads_per_iter});
      }
    }
    app.add_body(body);
  }

  /// Sparse pairwise conflicts plus one self-conflict, so moves regularly
  /// hit the dual-port and infeasible (three-port) branches.
  void add_conflict_pattern() {
    const int n = static_cast<int>(groups.size());
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if ((i * 7 + j * 3) % 5 == 0) {
          conflicts.add_conflict(groups[static_cast<std::size_t>(i)],
                                 groups[static_cast<std::size_t>(j)], 1.0 + j);
        }
      }
    }
    conflicts.add_conflict(groups[0], groups[0], 2.0);
  }

  [[nodiscard]] AssignmentProblem problem() const {
    return AssignmentProblem(app, groups, conflicts, library, frame_cycles);
  }
};

/// A feasible starting assignment from the greedy constructor.
std::vector<int> greedy_start(const AssignmentProblem& problem, int memories) {
  SolverOptions options;
  options.solver = Solver::kGreedy;
  const auto solution = solve_assignment(problem, memories, options);
  EXPECT_TRUE(solution.feasible);
  return solution.assignment;
}

TEST(AssignmentState, ResetMatchesFullEvaluate) {
  Fixture fix(10);
  fix.add_conflict_pattern();
  const auto problem = fix.problem();
  const memlib::CostWeights weights;
  const auto start = greedy_start(problem, 4);

  AssignmentState state(problem, 4, weights);
  ASSERT_TRUE(state.reset(start));
  const auto summary = problem.evaluate(start, 4);
  ASSERT_TRUE(summary.has_value());
  EXPECT_DOUBLE_EQ(state.scalar_cost(), weights.scalarize(*summary));
  EXPECT_DOUBLE_EQ(state.onchip_total().area_mm2, summary->onchip_area_mm2);
  EXPECT_DOUBLE_EQ(state.onchip_total().power_mw, summary->onchip_power_mw);
}

TEST(AssignmentState, ResetDetectsInfeasibleAssignment) {
  Fixture fix(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) {
      fix.conflicts.add_conflict(fix.groups[static_cast<std::size_t>(i)],
                                 fix.groups[static_cast<std::size_t>(j)], 1.0);
    }
  }
  const auto problem = fix.problem();
  AssignmentState state(problem, 2, {});
  EXPECT_FALSE(state.reset({0, 0, 0}));  // a triple clique in one memory
  EXPECT_TRUE(state.reset({0, 0, 1}));
}

// The correctness anchor from the issue: over 10k random moves (applied,
// reverted, accepted in random mixture) the incremental cost stays within
// 1e-9 of a from-scratch scalarization — and the full-recost reference mode
// agrees move by move, including on which moves are infeasible.
TEST(AssignmentState, IncrementalMatchesFullRecostOver10kRandomMoves) {
  constexpr int kMemories = 4;
  Fixture fix(12, 2.0);
  fix.add_conflict_pattern();
  const auto problem = fix.problem();
  const memlib::CostWeights weights;
  const auto start = greedy_start(problem, kMemories);

  AssignmentState incremental(problem, kMemories, weights, CostMode::kIncremental);
  AssignmentState full(problem, kMemories, weights, CostMode::kFullRecost);
  ASSERT_TRUE(incremental.reset(start));
  ASSERT_TRUE(full.reset(start));

  support::Rng rng(7);
  int applied = 0;
  for (int move = 0; move < 10'000; ++move) {
    const auto group = static_cast<std::size_t>(rng.below(problem.group_count()));
    const int new_m = static_cast<int>(rng.below(kMemories));
    if (new_m == incremental.assignment()[group]) continue;

    const auto inc_cost = incremental.apply(group, new_m);
    const auto full_cost = full.apply(group, new_m);
    ASSERT_EQ(inc_cost.has_value(), full_cost.has_value()) << "move " << move;
    if (!inc_cost) continue;
    ++applied;
    ASSERT_NEAR(*inc_cost, *full_cost, 1e-9) << "move " << move;
    EXPECT_EQ(incremental.assignment(), full.assignment());

    if (rng.uniform() < 0.3) {  // reject a fraction, exercising revert()
      incremental.revert();
      full.revert();
      ASSERT_NEAR(incremental.scalar_cost(), full.scalar_cost(), 1e-9) << "move " << move;
    }
  }
  ASSERT_GT(applied, 1'000) << "conflict pattern starves the move generator";

  // Final from-scratch anchor on the surviving assignment.
  const auto summary = problem.evaluate(incremental.assignment(), kMemories);
  ASSERT_TRUE(summary.has_value());
  EXPECT_NEAR(incremental.scalar_cost(), weights.scalarize(*summary), 1e-9);
}

// The O(members) count-maintenance path at the member-set sizes it exists
// for: 96 groups in 3 memories average 32 members per memory, so every move
// exercises bitset-sized neighbourhoods, and the full-recost reference (which
// re-derives the port counts from scratch through `simultaneous_accesses`)
// must agree move by move — including on which moves are infeasible.
TEST(AssignmentState, IncrementalMatchesFullRecostWithLargeMemberSets) {
  constexpr int kMemories = 3;
  constexpr int kGroups = 96;
  Fixture fix(kGroups, 2.0);
  // Sparser pattern than add_conflict_pattern: at 32 members per memory a
  // dense graph would make every move infeasible and starve the test.
  for (int i = 0; i < kGroups; ++i) {
    for (int j = i + 1; j < kGroups; ++j) {
      if ((i * 7 + j * 3) % 41 == 0) {
        fix.conflicts.add_conflict(fix.groups[static_cast<std::size_t>(i)],
                                   fix.groups[static_cast<std::size_t>(j)], 1.0 + j);
      }
    }
  }
  fix.conflicts.add_conflict(fix.groups[1], fix.groups[1], 2.0);
  const auto problem = fix.problem();
  const memlib::CostWeights weights;
  const auto start = greedy_start(problem, kMemories);

  AssignmentState incremental(problem, kMemories, weights, CostMode::kIncremental);
  AssignmentState full(problem, kMemories, weights, CostMode::kFullRecost);
  ASSERT_TRUE(incremental.reset(start));
  ASSERT_TRUE(full.reset(start));

  support::Rng rng(13);
  int applied = 0;
  int rejected = 0;
  for (int move = 0; move < 10'000; ++move) {
    const auto group = static_cast<std::size_t>(rng.below(problem.group_count()));
    const int new_m = static_cast<int>(rng.below(kMemories));
    if (new_m == incremental.assignment()[group]) continue;

    const auto inc_cost = incremental.apply(group, new_m);
    const auto full_cost = full.apply(group, new_m);
    ASSERT_EQ(inc_cost.has_value(), full_cost.has_value()) << "move " << move;
    if (!inc_cost) {
      ++rejected;
      continue;
    }
    ++applied;
    ASSERT_NEAR(*inc_cost, *full_cost, 1e-9) << "move " << move;
    if (rng.uniform() < 0.3) {
      incremental.revert();
      full.revert();
      ASSERT_NEAR(incremental.scalar_cost(), full.scalar_cost(), 1e-9) << "move " << move;
    }
  }
  ASSERT_GT(applied, 1'000) << "conflict pattern starves the move generator";
  ASSERT_GT(rejected, 10) << "pattern never exercises the infeasibility path";

  const auto summary = problem.evaluate(incremental.assignment(), kMemories);
  ASSERT_TRUE(summary.has_value());
  EXPECT_NEAR(incremental.scalar_cost(), weights.scalarize(*summary), 1e-9);
}

TEST(Solvers, StartTemperatureIsAFractionOfStartCostWithFloor) {
  SolverOptions options;
  options.sa_initial_temperature = 4.0;
  // Proportional to the starting cost...
  EXPECT_DOUBLE_EQ(sa_start_temperature(100.0, options), 4.0 * 0.02 * 100.0);
  EXPECT_DOUBLE_EQ(sa_start_temperature(200.0, options),
                   2.0 * sa_start_temperature(100.0, options));
  // ...floored at cost 1 so near-zero starts still move...
  EXPECT_DOUBLE_EQ(sa_start_temperature(0.25, options), 4.0 * 0.02);
  // ...and linear in the temperature knob.
  options.sa_initial_temperature = 8.0;
  EXPECT_DOUBLE_EQ(sa_start_temperature(100.0, options), 8.0 * 0.02 * 100.0);
  // Notably NOT divided by sa_iterations (the old dead formula): long chains
  // must not start frozen.
  options.sa_iterations = 1'000'000;
  EXPECT_DOUBLE_EQ(sa_start_temperature(100.0, options), 8.0 * 0.02 * 100.0);
}

TEST(Solvers, MultiChainIsDeterministicAcrossParallelism) {
  Fixture fix(10);
  fix.add_conflict_pattern();
  const auto problem = fix.problem();
  SolverOptions options;
  options.solver = Solver::kSimulatedAnnealing;
  options.sa_iterations = 3000;
  options.sa_chains = 3;
  options.seed = 11;

  options.parallelism = 1;
  const auto reference = solve_assignment(problem, 4, options);
  ASSERT_TRUE(reference.feasible);
  for (const unsigned parallelism : {2u, 4u, 0u}) {
    options.parallelism = parallelism;
    const auto run = solve_assignment(problem, 4, options);
    EXPECT_EQ(run.assignment, reference.assignment) << "parallelism " << parallelism;
    EXPECT_DOUBLE_EQ(run.scalar_cost, reference.scalar_cost);
    EXPECT_EQ(run.nodes_explored, reference.nodes_explored);
    EXPECT_EQ(run.accepted_moves, reference.accepted_moves);
  }
}

TEST(Solvers, IncrementalAndFullRecostChainsAreIdentical) {
  // The incremental cost is bit-exact, so the two modes see the same deltas,
  // make the same accept decisions, and land on the same solution.
  Fixture fix(11);
  fix.add_conflict_pattern();
  const auto problem = fix.problem();
  SolverOptions options;
  options.solver = Solver::kSimulatedAnnealing;
  options.sa_iterations = 2000;
  options.sa_chains = 2;
  options.seed = 5;

  options.sa_incremental = true;
  const auto fast = solve_assignment(problem, 4, options);
  options.sa_incremental = false;
  const auto reference = solve_assignment(problem, 4, options);
  ASSERT_TRUE(fast.feasible && reference.feasible);
  EXPECT_EQ(fast.assignment, reference.assignment);
  EXPECT_DOUBLE_EQ(fast.scalar_cost, reference.scalar_cost);
  EXPECT_EQ(fast.accepted_moves, reference.accepted_moves);
}

TEST(Solvers, DiversifiedStartsAreDeterministicAndNeverLoseToGreedy) {
  Fixture fix(12, 2.0);
  fix.add_conflict_pattern();
  const auto problem = fix.problem();
  SolverOptions greedy_options;
  greedy_options.solver = Solver::kGreedy;
  const auto greedy = solve_assignment(problem, 4, greedy_options);
  ASSERT_TRUE(greedy.feasible);

  for (const auto start : {SaStart::kGreedy, SaStart::kPerturbedGreedy,
                           SaStart::kRandomFeasible}) {
    SolverOptions options;
    options.solver = Solver::kSimulatedAnnealing;
    options.sa_iterations = 4000;
    options.sa_chains = 4;
    options.seed = 17;
    options.sa_start = start;
    const auto a = solve_assignment(problem, 4, options);
    const auto b = solve_assignment(problem, 4, options);
    ASSERT_TRUE(a.feasible) << to_string(start);
    // Deterministic per (seed, chain) configuration...
    EXPECT_EQ(a.assignment, b.assignment) << to_string(start);
    EXPECT_DOUBLE_EQ(a.scalar_cost, b.scalar_cost) << to_string(start);
    // ...at any parallelism...
    options.parallelism = 4;
    const auto parallel = solve_assignment(problem, 4, options);
    EXPECT_EQ(parallel.assignment, a.assignment) << to_string(start);
    // ...and chain 0's pure greedy start keeps the best-of from regressing.
    EXPECT_LE(a.scalar_cost, greedy.scalar_cost + 1e-9) << to_string(start);
    const auto check = problem.evaluate(a.assignment, 4);
    ASSERT_TRUE(check.has_value()) << to_string(start);
  }
}

TEST(Solvers, ChainsSplitTheTotalMoveBudget) {
  Fixture fix(10, 2.0);
  fix.add_conflict_pattern();
  const auto problem = fix.problem();
  SolverOptions greedy_options;
  greedy_options.solver = Solver::kGreedy;
  const auto greedy = solve_assignment(problem, 4, greedy_options);
  ASSERT_TRUE(greedy.feasible);

  SolverOptions options;
  options.solver = Solver::kSimulatedAnnealing;
  options.sa_iterations = 2000;
  options.seed = 3;
  for (const int chains : {1, 4}) {
    options.sa_chains = chains;
    const auto solution = solve_assignment(problem, 4, options);
    ASSERT_TRUE(solution.feasible);
    // sa_iterations is a *total* budget: more chains may not do more moves.
    // (Moves exclude same-memory picks, so the count is at most the budget.)
    EXPECT_LE(solution.nodes_explored,
              static_cast<std::uint64_t>(options.sa_iterations))
        << chains << " chains";
    // Best-of-chains starts from the greedy solution, so it never loses to it.
    EXPECT_LE(solution.scalar_cost, greedy.scalar_cost + 1e-9) << chains << " chains";
  }
}

}  // namespace
}  // namespace dtse::alloc
