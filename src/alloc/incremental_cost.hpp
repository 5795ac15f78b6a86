// Incremental cost engine for the signal-to-memory assignment search.
//
// Every solver step places or removes ONE group, so only the memories it
// touches change.  `MemberSet` keeps one memory's member bitset, member count,
// running integer totals of the members' cached figures and conflict counts
// (conflicting pairs, self-conflicting members).  A held set is feasible — no
// conflict triangle, no conflicting pair with a self-conflicting endpoint —
// so the two counts fix its port count (any conflict => dual-port), and a
// step costs O(conflict words): bitset intersections with the group's
// adjacency row instead of the clique scan of `simultaneous_accesses` and a
// re-aggregation of every member.  Branch-and-bound and greedy step member
// sets directly; annealing steps them through `AssignmentState`.
//
// Correctness anchor: after any move sequence, `scalar_cost()` equals a
// from-scratch `CostWeights::scalarize(problem.evaluate(assignment))`
// bit-for-bit.  The port decision provably matches `simultaneous_accesses`
// on feasible sets; integer totals are exact in any order, so the same
// inputs reach the model calls `build_memory` makes; and the per-memory
// terms are summed in memory-index order, mirroring `evaluate`.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "alloc/assignment_problem.hpp"
#include "memlib/memory_cost.hpp"

namespace dtse::alloc {

/// One memory's feasible member set, grown and shrunk one group at a time;
/// `term()` equals `cost_of_members` of the same members bit-for-bit.
class MemberSet {
 public:
  /// Everything but the bitset; a step is undone by restoring it.
  struct Tally {
    AssignmentProblem::GroupAggregates totals;
    std::size_t count = 0;
    std::uint64_t pair_conflicts = 0;  ///< conflicting pairs inside the set
    std::uint64_t self_conflicts = 0;  ///< self-conflicting members
  };

  /// An empty set over `problem`'s groups (the problem must outlive it).
  explicit MemberSet(const AssignmentProblem& problem);

  [[nodiscard]] bool empty() const { return tally_.count == 0; }
  [[nodiscard]] bool contains(std::size_t group) const {
    return (bits_[group / 64] & bit_of(group)) != 0;
  }
  [[nodiscard]] const Tally& tally() const { return tally_; }

  /// Port count of the (feasible) set: 2 iff any conflict forces it.
  [[nodiscard]] int ports() const {
    return tally_.pair_conflicts > 0 || tally_.self_conflicts > 0 ? 2 : 1;
  }

  /// Adds a non-member and returns true, or returns false and leaves the set
  /// unchanged when the group would need a third port (it is self-conflicting
  /// and meets a conflict, meets a self-conflicting member, or closes a
  /// conflict triangle).
  [[nodiscard]] bool try_insert(std::size_t group);

  /// Removes a member.
  void erase(std::size_t group);

  /// Undoes the most recent `try_insert` or `erase` of `group`, given the
  /// tally saved before it.
  void undo(std::size_t group, const Tally& saved);

  /// Area/power of the set (zero when empty).
  [[nodiscard]] memlib::CostTerm term() const {
    return empty() ? memlib::CostTerm{} : problem_->price(tally_.totals, ports());
  }

 private:
  static constexpr std::uint64_t bit_of(std::size_t g) { return 1ULL << (g % 64); }

  const AssignmentProblem* problem_;
  std::vector<std::uint64_t> bits_;  ///< conflict-bitset pitch
  Tally tally_;
};

/// How `AssignmentState` re-costs a move.
enum class CostMode {
  kIncremental,  ///< re-cost only the two memories the move touches
  kFullRecost,   ///< re-evaluate the whole assignment (reference/baseline)
};

/// A complete assignment with incrementally maintained cost, supporting
/// single-group moves with O(1)-memory undo.
class AssignmentState {
 public:
  AssignmentState(const AssignmentProblem& problem, int memory_count,
                  const memlib::CostWeights& weights,
                  CostMode mode = CostMode::kIncremental);

  /// Loads a complete assignment (one entry per group, each in
  /// [0, memory_count)).  Returns false when any memory is infeasible; the
  /// state must then be reset again before use.
  bool reset(const std::vector<int>& assignment);

  [[nodiscard]] CostMode mode() const { return mode_; }
  [[nodiscard]] const std::vector<int>& assignment() const { return assignment_; }

  /// Scalar objective of the current assignment; identical to scalarizing a
  /// from-scratch `AssignmentProblem::evaluate`.
  [[nodiscard]] double scalar_cost() const { return scalar_; }

  /// On-chip cost aggregate of the current assignment (off-chip channels do
  /// not participate in assignment moves).
  [[nodiscard]] memlib::CostTerm onchip_total() const;

  /// Moves `group` to memory `new_m` (must differ from its current memory)
  /// and returns the new scalar cost, or nullopt when the move would need a
  /// tri-ported memory — the state is then unchanged.  A successful move can
  /// be undone with `revert()`.
  [[nodiscard]] std::optional<double> apply(std::size_t group, int new_m);

  /// Undoes the most recent successful `apply`.
  void revert();

 private:
  struct MemoryState {
    MemberSet set;
    memlib::CostTerm term;
  };
  struct LastMove {
    std::size_t group = 0;
    int from = -1;
    int to = -1;
    memlib::CostTerm from_term;
    memlib::CostTerm to_term;
    MemberSet::Tally from_tally;
    MemberSet::Tally to_tally;
    double scalar = 0.0;
    bool active = false;
  };

  /// Scalar of the cached per-memory terms, summed in memory-index order to
  /// mirror `AssignmentProblem::evaluate` exactly.
  [[nodiscard]] double scalar_from_terms() const;

  const AssignmentProblem* problem_;
  memlib::CostWeights weights_;
  CostMode mode_;
  int memory_count_;
  std::vector<int> assignment_;
  std::vector<MemoryState> memories_;  ///< kIncremental only
  double scalar_ = 0.0;
  LastMove last_;
};

}  // namespace dtse::alloc
