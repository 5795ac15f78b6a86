// Flow-graph balancing: ordering the memory accesses of one loop body within
// a per-iteration cycle budget so that the required memory bandwidth (the
// number and badness of simultaneous accesses) is minimized.
//
// This reimplements the technique of [Wuytack/Catthoor, IEEE TVLSI 1999] and
// [Slock et al., ISSS 1997] in the loop-aware form the paper's prototype tool
// used: accesses are scheduled into `budget` cycle slots with a
// mobility-driven list scheduler that greedily picks the slot adding the
// least conflict cost.  The output is the body's contribution to the
// application-wide basic-group conflict graph.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/conflict_graph.hpp"
#include "graph/macp.hpp"
#include "ir/application.hpp"

namespace dtse::scbd {

/// Penalties steering the scheduler away from expensive conflicts.  The
/// values express how costly it is for the *memory architecture* to serve
/// the two accesses in parallel; the physical allocation later prices the
/// surviving conflicts exactly.
struct ConflictPenalties {
  double onchip_pair = 1.0;         ///< two on-chip groups in parallel
  double mixed_pair = 1.2;          ///< on-chip with off-chip
  double offchip_pair = 12.0;       ///< two off-chip groups: two DRAM buses
  double onchip_self = 8.0;         ///< dual-port on-chip memory
  double offchip_self = 60.0;       ///< dual-port off-chip memory (Table 2!)
};

/// Result of balancing one loop body.
struct BalanceResult {
  std::uint64_t budget_cycles = 0;           ///< slots used (== requested budget)
  std::vector<std::vector<std::size_t>> slots;  ///< per cycle: access indices
  graph::ConflictGraph conflicts;            ///< per-frame weighted conflicts
  double conflict_cost = 0.0;                ///< penalty-weighted cost per frame
  bool feasible = false;                     ///< budget >= dependency critical path
};

/// The budget-independent scheduling state of one loop body, built once and
/// then balanced at any number of budgets: the access units and their
/// dependency DAG, latencies, ASAP and reverse earliest starts, topological
/// order, both budget bounds, and the pair penalties over the body's groups.
/// `distribute_budget` prices a body's whole cost curve from one instance;
/// the free functions below build one per call.
class BodyScheduler {
 public:
  BodyScheduler(const ir::Application& app, ir::LoopBodyId body,
                const graph::LatencyModel& latency = {},
                const ConflictPenalties& penalties = {});

  /// See `min_body_budget` (0 for a body without accesses).
  [[nodiscard]] std::uint64_t min_budget() const { return min_budget_; }
  /// See `serial_body_budget`: independent of the latency model given here.
  [[nodiscard]] std::uint64_t serial_budget() const { return serial_budget_; }

  /// See `balance_body`.
  [[nodiscard]] BalanceResult balance(std::uint64_t budget_cycles) const;

  /// `balance(budget_cycles).conflict_cost`, bit for bit, without building
  /// the conflict graph: one point of a cost curve.
  [[nodiscard]] double conflict_cost(std::uint64_t budget_cycles) const;

 private:
  /// Schedules every unit into `budget_cycles` slots: per slot, its units
  /// in placement order.
  [[nodiscard]] std::vector<std::vector<std::size_t>> place(
      std::uint64_t budget_cycles) const;
  /// Penalty-weighted conflict cost per frame of every pair of units sharing
  /// a slot; with `conflicts`, also adds each pair to it.
  double harvest(const std::vector<std::vector<std::size_t>>& slots,
                 graph::ConflictGraph* conflicts) const;

  std::uint64_t min_budget_ = 0;
  std::uint64_t serial_budget_ = 0;
  double frame_weight_ = 0.0;  ///< body iterations per frame
  // Per unit.
  std::vector<double> weight_;            ///< expected executions per iteration (<= 1)
  std::vector<std::size_t> group_;        ///< body-local group index
  std::vector<double> latency_;
  std::vector<double> asap_;
  std::vector<double> reverse_start_;     ///< earliest start in the reversed DAG
  std::vector<std::vector<std::size_t>> predecessors_;
  std::vector<std::size_t> topological_;  ///< one topological order of the units
  // Per body-local group.
  std::vector<ir::BasicGroupId> group_ids_;
  std::vector<double> penalty_;  ///< group_ids_.size()^2 pair penalties
};

/// Minimal per-iteration budget for which the body is schedulable: the
/// dependency critical path measured in whole cycles.
[[nodiscard]] std::uint64_t min_body_budget(const ir::Application& app, ir::LoopBodyId body,
                                            const graph::LatencyModel& latency);

/// Budget at which the body schedules without any conflict: all access units
/// in distinct cycles.
[[nodiscard]] std::uint64_t serial_body_budget(const ir::Application& app,
                                               ir::LoopBodyId body);

/// Balances `body` into `budget_cycles` slots.  If the budget is below the
/// dependency critical path the result is marked infeasible and scheduled at
/// the critical-path budget instead.
[[nodiscard]] BalanceResult balance_body(const ir::Application& app, ir::LoopBodyId body,
                                         std::uint64_t budget_cycles,
                                         const graph::LatencyModel& latency = {},
                                         const ConflictPenalties& penalties = {});

}  // namespace dtse::scbd
