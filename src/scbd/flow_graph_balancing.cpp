#include "scbd/flow_graph_balancing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "graph/digraph.hpp"
#include "support/check.hpp"

namespace dtse::scbd {

namespace {

/// One schedulable unit.  Accesses with per_iteration > 1 are expanded into
/// multiple units so that e.g. twelve neighbourhood reads per iteration
/// really compete for twelve access slots.
struct Unit {
  std::size_t access = 0;   ///< index into LoopBody::accesses
  double weight = 0.0;      ///< expected executions per iteration (<= 1)
};

constexpr std::size_t kMaxUnitsPerAccess = 64;

std::vector<Unit> expand_units(const ir::LoopBody& body) {
  std::vector<Unit> units;
  for (std::size_t i = 0; i < body.accesses.size(); ++i) {
    const double count = body.accesses[i].per_iteration;
    if (count <= 0.0) continue;
    const auto whole = static_cast<std::size_t>(count);
    DTSE_CHECK(whole <= kMaxUnitsPerAccess,
               "access count per iteration too large to schedule; split the loop body");
    for (std::size_t k = 0; k < whole; ++k) units.push_back({i, 1.0});
    const double rest = count - static_cast<double>(whole);
    if (rest > 1e-12) units.push_back({i, rest});
  }
  return units;
}

/// Dependency DAG over units: every unit of access a precedes every unit of
/// access b when (a, b) is a dependency of the body.
graph::Digraph unit_dag(const ir::LoopBody& body, const std::vector<Unit>& units) {
  graph::Digraph dag(units.size());
  for (const auto& [from, to] : body.deps) {
    for (std::size_t u = 0; u < units.size(); ++u) {
      if (units[u].access != from) continue;
      for (std::size_t v = 0; v < units.size(); ++v) {
        if (units[v].access == to) dag.add_edge(u, v);
      }
    }
  }
  return dag;
}

double pair_penalty(const ir::BasicGroup& a, const ir::BasicGroup& b, bool same_group,
                    const graph::LatencyModel& latency, const ConflictPenalties& p) {
  const bool a_off = latency.presumed_offchip(a);
  const bool b_off = latency.presumed_offchip(b);
  if (same_group) return a_off ? p.offchip_self : p.onchip_self;
  if (a_off && b_off) return p.offchip_pair;
  if (a_off || b_off) return p.mixed_pair;
  return p.onchip_pair;
}

}  // namespace

BodyScheduler::BodyScheduler(const ir::Application& app, ir::LoopBodyId body_id,
                             const graph::LatencyModel& latency,
                             const ConflictPenalties& penalties) {
  const auto& body = app.body(body_id);
  const auto units = expand_units(body);
  frame_weight_ = static_cast<double>(body.iterations);
  if (units.empty()) return;

  const auto dag = unit_dag(body, units);
  const auto n = units.size();
  latency_.resize(n);
  std::vector<double> default_latency(n);
  for (std::size_t u = 0; u < n; ++u) {
    const auto& group = app.group(body.accesses[units[u].access].group);
    latency_[u] = latency.latency(group);
    default_latency[u] = graph::LatencyModel{}.latency(group);
  }
  const auto path = dag.longest_path(latency_);
  DTSE_CHECK(path.has_value(), "cyclic dependencies in body " + body.name);
  min_budget_ = static_cast<std::uint64_t>(std::ceil(*path));
  // One unit per cycle is always conflict-free; dependencies can only need
  // more cycles than units when off-chip latencies stack up along a chain.
  // The serial budget measures that chain under the default latency model.
  const auto default_path = dag.longest_path(default_latency);
  DTSE_ASSERT(default_path.has_value(), "acyclic under any latencies");
  serial_budget_ = std::max<std::uint64_t>(
      n, static_cast<std::uint64_t>(std::ceil(*default_path)));

  // Static ASAP / ALAP bounds define each unit's mobility window; ALAP is
  // the horizon minus the reverse earliest start, so only that part is kept.
  asap_ = *dag.earliest_start(latency_);
  graph::Digraph reverse(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (const auto succ : dag.successors(u)) reverse.add_edge(succ, u);
  }
  const auto rev_start = reverse.earliest_start(latency_);
  DTSE_ASSERT(rev_start.has_value(), "reverse DAG must be acyclic too");
  reverse_start_ = *rev_start;
  const auto topo = dag.topological_order();
  DTSE_ASSERT(topo.has_value(), "checked above");
  topological_ = *topo;

  weight_.resize(n);
  group_.resize(n);
  predecessors_.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    weight_[u] = units[u].weight;
    predecessors_[u] = dag.predecessors(u);
    const auto id = body.accesses[units[u].access].group;
    const auto local = std::find(group_ids_.begin(), group_ids_.end(), id);
    group_[u] = static_cast<std::size_t>(local - group_ids_.begin());
    if (local == group_ids_.end()) group_ids_.push_back(id);
  }
  const auto groups = group_ids_.size();
  penalty_.resize(groups * groups);
  for (std::size_t a = 0; a < groups; ++a) {
    for (std::size_t b = 0; b < groups; ++b) {
      penalty_[a * groups + b] = pair_penalty(app.group(group_ids_[a]),
                                              app.group(group_ids_[b]), a == b, latency,
                                              penalties);
    }
  }
}

std::vector<std::vector<std::size_t>> BodyScheduler::place(
    std::uint64_t budget_cycles) const {
  const auto n = weight_.size();
  const auto groups = group_ids_.size();
  const double horizon = static_cast<double>(budget_cycles);
  std::vector<double> alap(n);
  for (std::size_t u = 0; u < n; ++u) {
    alap[u] = horizon - reverse_start_[u] - latency_[u];
  }

  // Schedule in topological order; among ready choices the order is by
  // mobility (tightest window first), then by weight (heavy accesses first).
  // The mobility sort runs per budget: ALAP moves with the horizon.
  std::vector<std::size_t> order = topological_;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double mob_a = alap[a] - asap_[a];
    const double mob_b = alap[b] - asap_[b];
    if (mob_a != mob_b) return mob_a < mob_b;
    return weight_[a] > weight_[b];
  });
  // Re-establish topological feasibility: sort is only a tie-break within
  // the dynamic-ASAP handling below, which tracks placed predecessors.

  std::vector<std::vector<std::size_t>> slots(budget_cycles);
  std::vector<long> placed_slot(n, -1);

  // Conflict pairs already created while scheduling this body, as a
  // symmetric flag matrix over body-local groups.  Re-using an existing pair
  // barely hurts (those two groups will be simultaneously accessible
  // anyway); a *new* pair grows the conflict graph and with it the number of
  // memories allocation will need.  The discount makes the scheduler cluster
  // parallelism on few group pairs, as flow-graph balancing does.
  std::vector<unsigned char> seen_pairs(groups * groups, 0);
  constexpr double kReusedPairDiscount = 0.25;

  auto placement_cost = [&](std::size_t unit, std::size_t slot) {
    double cost = 0.0;
    const auto row = group_[unit] * groups;
    for (const auto other : slots[slot]) {
      const double co_weight = std::min(weight_[unit], weight_[other]);
      double penalty = penalty_[row + group_[other]];
      if (seen_pairs[row + group_[other]] != 0) penalty *= kReusedPairDiscount;
      cost += penalty * co_weight;
    }
    return cost;
  };

  for (const auto unit : order) {
    // Dynamic ASAP from already-placed predecessors (all predecessors appear
    // earlier in `order`'s topological base, but the mobility sort may have
    // moved them; fall back to the static bound when one is unplaced).
    double ready = asap_[unit];
    for (const auto pred : predecessors_[unit]) {
      if (placed_slot[pred] >= 0) {
        ready = std::max(ready, static_cast<double>(placed_slot[pred]) + latency_[pred]);
      } else {
        ready = std::max(ready, asap_[pred] + latency_[pred]);
      }
    }
    const auto lo = static_cast<std::size_t>(
        std::min(std::max(0.0, std::ceil(ready)), horizon - 1.0));
    const auto hi = static_cast<std::size_t>(
        std::min(std::max(static_cast<double>(lo), alap[unit]), horizon - 1.0));

    std::size_t best_slot = lo;
    double best_cost = std::numeric_limits<double>::max();
    std::size_t best_load = std::numeric_limits<std::size_t>::max();
    for (std::size_t t = lo; t <= hi; ++t) {
      const double cost = placement_cost(unit, t);
      const std::size_t load = slots[t].size();
      if (cost < best_cost || (cost == best_cost && load < best_load)) {
        best_cost = cost;
        best_load = load;
        best_slot = t;
      }
      if (best_cost == 0.0 && best_load == 0) break;  // cannot improve
    }
    for (const auto other : slots[best_slot]) {
      seen_pairs[group_[unit] * groups + group_[other]] = 1;
      seen_pairs[group_[other] * groups + group_[unit]] = 1;
    }
    slots[best_slot].push_back(unit);
    placed_slot[unit] = static_cast<long>(best_slot);
  }
  return slots;
}

double BodyScheduler::harvest(const std::vector<std::vector<std::size_t>>& slots,
                              graph::ConflictGraph* conflicts) const {
  // Every pair of units sharing a slot is a conflict, weighted by expected
  // co-occurrences per frame.  Slot order and (i < j) order fix both the
  // summation order and the conflict graph's edge insertion order.
  const auto groups = group_ids_.size();
  double cost = 0.0;
  for (const auto& slot : slots) {
    for (std::size_t a = 0; a < slot.size(); ++a) {
      const auto i = slot[a];
      for (std::size_t b = a + 1; b < slot.size(); ++b) {
        const auto j = slot[b];
        const double co = std::min(weight_[i], weight_[j]);
        if (conflicts != nullptr) {
          conflicts->add_conflict(group_ids_[group_[i]], group_ids_[group_[j]],
                                  co * frame_weight_);
        }
        cost += penalty_[group_[i] * groups + group_[j]] * co * frame_weight_;
      }
    }
  }
  return cost;
}

BalanceResult BodyScheduler::balance(std::uint64_t budget_cycles) const {
  BalanceResult result;
  result.feasible = budget_cycles >= min_budget_;
  result.budget_cycles = std::max(budget_cycles, std::max<std::uint64_t>(min_budget_, 1));
  if (weight_.empty()) {
    result.slots.assign(result.budget_cycles, {});
    return result;
  }
  result.slots = place(result.budget_cycles);
  result.conflict_cost = harvest(result.slots, &result.conflicts);
  return result;
}

double BodyScheduler::conflict_cost(std::uint64_t budget_cycles) const {
  if (weight_.empty()) return 0.0;
  return harvest(place(std::max(budget_cycles, std::max<std::uint64_t>(min_budget_, 1))),
                 nullptr);
}

std::uint64_t min_body_budget(const ir::Application& app, ir::LoopBodyId body_id,
                              const graph::LatencyModel& latency) {
  return BodyScheduler(app, body_id, latency).min_budget();
}

std::uint64_t serial_body_budget(const ir::Application& app, ir::LoopBodyId body_id) {
  return BodyScheduler(app, body_id).serial_budget();
}

BalanceResult balance_body(const ir::Application& app, ir::LoopBodyId body_id,
                           std::uint64_t budget_cycles, const graph::LatencyModel& latency,
                           const ConflictPenalties& penalties) {
  return BodyScheduler(app, body_id, latency, penalties).balance(budget_cycles);
}

}  // namespace dtse::scbd
