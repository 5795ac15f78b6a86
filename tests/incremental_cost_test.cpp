// Tests for the incremental assignment-cost engine and the multi-chain
// annealing built on it.  The load-bearing property: the incrementally
// maintained scalar cost equals a from-scratch evaluation bit-for-bit after
// any move sequence, which is what lets the solvers trust O(delta) re-costing.
#include <gtest/gtest.h>

#include <algorithm>
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

  /// A sparser pattern for large member sets (a dense graph would make every
  /// move infeasible), plus one self-conflict.
  void add_sparse_conflict_pattern() {
    const int n = static_cast<int>(groups.size());
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if ((i * 7 + j * 3) % 41 == 0) {
          conflicts.add_conflict(groups[static_cast<std::size_t>(i)],
                                 groups[static_cast<std::size_t>(j)], 1.0 + j);
        }
      }
    }
    conflicts.add_conflict(groups[1], groups[1], 2.0);
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

/// What moving `group` out of its memory does to that memory, judged from
/// the assignment before the move: it empties the memory, or it removes a
/// member of the memory's width (so the width is re-derived from the rest),
/// or the strictly widest member (so the width shrinks).
struct SourceEffect {
  bool empties = false;
  bool removes_widest = false;
  bool narrows = false;
};

SourceEffect source_effect(const AssignmentProblem& problem,
                           const std::vector<int>& assignment, std::size_t group) {
  const auto width = [&problem](std::size_t g) {
    return problem.app().group(problem.groups()[g]).bitwidth;
  };
  int others = 0;
  int widest_other = 0;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if (i == group || assignment[i] != assignment[group]) continue;
    ++others;
    widest_other = std::max(widest_other, width(i));
  }
  return {others == 0, others > 0 && width(group) >= widest_other,
          others > 0 && width(group) > widest_other};
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
  EXPECT_EQ(state.scalar_cost(), weights.scalarize(*summary));
  EXPECT_EQ(state.onchip_total().area_mm2, summary->onchip_area_mm2);
  EXPECT_EQ(state.onchip_total().power_mw, summary->onchip_power_mw);
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

// The correctness anchor: over 10k random moves (applied, reverted, accepted
// in random mixture) the incremental cost equals a from-scratch
// scalarization bit-for-bit — and the full-recost reference mode agrees move
// by move, including on which moves are infeasible.  The moves must also
// empty memories and take memories' widest members away, the two paths on
// which a member set's totals shrink to zero or re-derive their width.
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
  int emptied = 0;
  int narrowed = 0;
  for (int move = 0; move < 10'000; ++move) {
    const auto group = static_cast<std::size_t>(rng.below(problem.group_count()));
    const int new_m = static_cast<int>(rng.below(kMemories));
    if (new_m == incremental.assignment()[group]) continue;

    const auto effect = source_effect(problem, incremental.assignment(), group);
    const auto inc_cost = incremental.apply(group, new_m);
    const auto full_cost = full.apply(group, new_m);
    ASSERT_EQ(inc_cost.has_value(), full_cost.has_value()) << "move " << move;
    if (!inc_cost) continue;
    ++applied;
    emptied += effect.empties ? 1 : 0;
    narrowed += effect.narrows ? 1 : 0;
    ASSERT_EQ(*inc_cost, *full_cost) << "move " << move;
    EXPECT_EQ(incremental.assignment(), full.assignment());

    if (rng.uniform() < 0.3) {  // reject a fraction, exercising revert()
      incremental.revert();
      full.revert();
      ASSERT_EQ(incremental.scalar_cost(), full.scalar_cost()) << "move " << move;
    }
  }
  ASSERT_GT(applied, 1'000) << "conflict pattern starves the move generator";
  EXPECT_GT(emptied, 100) << "moves never empty a memory";
  EXPECT_GT(narrowed, 500) << "moves never remove a memory's widest member";

  // Final from-scratch anchor on the surviving assignment.
  const auto summary = problem.evaluate(incremental.assignment(), kMemories);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(incremental.scalar_cost(), weights.scalarize(*summary));
}

// The member-set maintenance at the sizes it exists for: 96 groups in 3
// memories average 32 members per memory over two-word bitsets, and the
// full-recost reference (which re-derives the port counts from scratch
// through `simultaneous_accesses` and re-aggregates every member) must agree
// move by move — including on which moves are infeasible.  Many members
// share the widest width here, so the width re-derivation runs on most
// removals of a widest member without changing the width.
TEST(AssignmentState, IncrementalMatchesFullRecostWithLargeMemberSets) {
  constexpr int kMemories = 3;
  constexpr int kGroups = 96;
  Fixture fix(kGroups, 2.0);
  fix.add_sparse_conflict_pattern();
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
  int widest_removed = 0;
  for (int move = 0; move < 10'000; ++move) {
    const auto group = static_cast<std::size_t>(rng.below(problem.group_count()));
    const int new_m = static_cast<int>(rng.below(kMemories));
    if (new_m == incremental.assignment()[group]) continue;

    const auto effect = source_effect(problem, incremental.assignment(), group);
    const auto inc_cost = incremental.apply(group, new_m);
    const auto full_cost = full.apply(group, new_m);
    ASSERT_EQ(inc_cost.has_value(), full_cost.has_value()) << "move " << move;
    if (!inc_cost) {
      ++rejected;
      continue;
    }
    ++applied;
    widest_removed += effect.removes_widest ? 1 : 0;
    ASSERT_EQ(*inc_cost, *full_cost) << "move " << move;
    if (rng.uniform() < 0.3) {
      incremental.revert();
      full.revert();
      ASSERT_EQ(incremental.scalar_cost(), full.scalar_cost()) << "move " << move;
    }
  }
  ASSERT_GT(applied, 1'000) << "conflict pattern starves the move generator";
  ASSERT_GT(rejected, 10) << "pattern never exercises the infeasibility path";
  EXPECT_GT(widest_removed, 500) << "moves never remove a memory's widest member";

  const auto summary = problem.evaluate(incremental.assignment(), kMemories);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(incremental.scalar_cost(), weights.scalarize(*summary));
}

// The member sets the three solvers step against the reference pricing:
// after every random insertion, removal or undo, a set's feasibility
// decision, port count, totals and cost term equal what `build_memory` and
// `cost_of_members` compute from scratch for the same members.
TEST(MemberSet, MatchesCostOfMembersOverRandomSteps) {
  struct Case {
    int groups;
    bool sparse;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{12, false, 3}, Case{96, true, 29}}) {
    Fixture fix(c.groups, 2.0);
    if (c.sparse) {
      fix.add_sparse_conflict_pattern();
    } else {
      fix.add_conflict_pattern();
    }
    const auto problem = fix.problem();
    MemberSet set(problem);
    std::vector<bool> member(problem.group_count(), false);
    const auto members = [&member] {
      std::vector<std::size_t> list;
      for (std::size_t i = 0; i < member.size(); ++i) {
        if (member[i]) list.push_back(i);
      }
      return list;
    };

    support::Rng rng(c.seed);
    int inserted = 0;
    int refused = 0;
    int erased = 0;
    for (int step = 0; step < 5'000; ++step) {
      const auto group = static_cast<std::size_t>(rng.below(problem.group_count()));
      const MemberSet::Tally saved = set.tally();
      if (member[group]) {
        set.erase(group);
        member[group] = false;
        ++erased;
      } else {
        auto grown = members();
        grown.push_back(group);
        std::sort(grown.begin(), grown.end());
        const bool feasible = problem.cost_of_members(grown).has_value();
        ASSERT_EQ(set.try_insert(group), feasible) << "step " << step;
        if (!feasible) {
          ++refused;
          continue;
        }
        member[group] = true;
        ++inserted;
      }
      if (rng.uniform() < 0.2) {  // step back, restoring the saved tally
        set.undo(group, saved);
        member[group] = !member[group];
      }

      const auto list = members();
      ASSERT_EQ(set.tally().count, list.size()) << "step " << step;
      ASSERT_EQ(set.empty(), list.empty()) << "step " << step;
      const auto reference = problem.cost_of_members(list);
      ASSERT_TRUE(reference.has_value()) << "step " << step;
      ASSERT_EQ(set.term().area_mm2, reference->area_mm2) << "step " << step;
      ASSERT_EQ(set.term().power_mw, reference->power_mw) << "step " << step;
      if (list.empty()) continue;
      const auto mem = problem.build_memory(list);
      ASSERT_TRUE(mem.has_value()) << "step " << step;
      ASSERT_EQ(set.tally().totals.words, mem->words) << "step " << step;
      ASSERT_EQ(set.tally().totals.width_bits, mem->width_bits) << "step " << step;
      ASSERT_EQ(set.ports(), mem->ports == memlib::PortCount::kDual ? 2 : 1)
          << "step " << step;
    }
    EXPECT_GT(inserted, 500) << c.groups << " groups";
    EXPECT_GT(erased, 500) << c.groups << " groups";
    EXPECT_GT(refused, 50) << c.groups << " groups";
  }
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
  EXPECT_EQ(fast.scalar_cost, reference.scalar_cost);
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
