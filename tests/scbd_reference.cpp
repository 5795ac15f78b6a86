// Test-only oracle: the flow-graph balancing scheduler and the budget
// distribution as they were before the per-body scheduling context, copied
// verbatim apart from the namespace (and the `reference::` qualification
// that keeps argument-dependent lookup off the library's `balance_body`).
// Every body rebuilds its units, DAG and bounds at each budget and fills a
// conflict graph for each curve point.
// scbd_test compares the library's `ScbdResult` against this path field by
// field with exact `==`.
#include "scbd_reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <numeric>

#include "graph/digraph.hpp"
#include "support/check.hpp"

namespace dtse::scbd::reference {


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

std::uint64_t min_body_budget(const ir::Application& app, ir::LoopBodyId body_id,
                              const graph::LatencyModel& latency) {
  const auto& body = app.body(body_id);
  const auto units = expand_units(body);
  if (units.empty()) return 0;
  const auto dag = unit_dag(body, units);
  std::vector<double> weight(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    weight[u] = latency.latency(app.group(body.accesses[units[u].access].group));
  }
  const auto path = dag.longest_path(weight);
  DTSE_CHECK(path.has_value(), "cyclic dependencies in body " + body.name);
  return static_cast<std::uint64_t>(std::ceil(*path));
}

std::uint64_t serial_body_budget(const ir::Application& app, ir::LoopBodyId body_id) {
  const auto& body = app.body(body_id);
  const auto units = expand_units(body);
  // One unit per cycle is always conflict-free; dependencies can only need
  // more cycles than units when off-chip latencies stack up along a chain.
  const auto cp = min_body_budget(app, body_id, graph::LatencyModel{});
  return std::max<std::uint64_t>(units.size(), cp);
}

BalanceResult balance_body(const ir::Application& app, ir::LoopBodyId body_id,
                           std::uint64_t budget_cycles, const graph::LatencyModel& latency,
                           const ConflictPenalties& penalties) {
  const auto& body = app.body(body_id);
  const auto units = expand_units(body);

  BalanceResult result;
  const auto min_budget = min_body_budget(app, body_id, latency);
  result.feasible = budget_cycles >= min_budget;
  result.budget_cycles = std::max(budget_cycles, std::max<std::uint64_t>(min_budget, 1));
  result.slots.assign(result.budget_cycles, {});
  if (units.empty()) return result;

  const auto dag = unit_dag(body, units);
  std::vector<double> lat(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    lat[u] = latency.latency(app.group(body.accesses[units[u].access].group));
  }

  // Static ASAP / ALAP bounds define each unit's mobility window.
  const auto asap_opt = dag.earliest_start(lat);
  DTSE_CHECK(asap_opt.has_value(), "cyclic dependencies in body " + body.name);
  const auto& asap = *asap_opt;

  graph::Digraph reverse(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (const auto succ : dag.successors(u)) reverse.add_edge(succ, u);
  }
  const auto rev_start = reverse.earliest_start(lat);
  DTSE_ASSERT(rev_start.has_value(), "reverse DAG must be acyclic too");

  const double horizon = static_cast<double>(result.budget_cycles);
  std::vector<double> alap(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    alap[u] = horizon - (*rev_start)[u] - lat[u];
  }

  // Schedule in topological order; among ready choices the order is by
  // mobility (tightest window first), then by weight (heavy accesses first).
  const auto topo = dag.topological_order();
  DTSE_ASSERT(topo.has_value(), "checked above");
  std::vector<std::size_t> order = *topo;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double mob_a = alap[a] - asap[a];
    const double mob_b = alap[b] - asap[b];
    if (mob_a != mob_b) return mob_a < mob_b;
    return units[a].weight > units[b].weight;
  });
  // Re-establish topological feasibility: sort is only a tie-break within
  // the dynamic-ASAP handling below, which tracks placed predecessors.

  std::vector<long> placed_slot(units.size(), -1);

  // Conflict pairs already created while scheduling this body.  Re-using an
  // existing pair barely hurts (those two groups will be simultaneously
  // accessible anyway); a *new* pair grows the conflict graph and with it
  // the number of memories allocation will need.  The discount makes the
  // scheduler cluster parallelism on few group pairs, as flow-graph
  // balancing does.
  std::set<std::pair<ir::BasicGroupId, ir::BasicGroupId>> seen_pairs;
  auto pair_key = [](ir::BasicGroupId a, ir::BasicGroupId b) {
    if (b < a) std::swap(a, b);
    return std::make_pair(a, b);
  };
  constexpr double kReusedPairDiscount = 0.25;

  auto placement_cost = [&](std::size_t unit, std::size_t slot) {
    double cost = 0.0;
    const auto group_id_u = body.accesses[units[unit].access].group;
    const auto& group_u = app.group(group_id_u);
    for (const auto other : result.slots[slot]) {
      const auto group_id_o = body.accesses[units[other].access].group;
      const auto& group_o = app.group(group_id_o);
      const bool same = group_id_u == group_id_o;
      const double co_weight = std::min(units[unit].weight, units[other].weight);
      double penalty = pair_penalty(group_u, group_o, same, latency, penalties);
      if (seen_pairs.count(pair_key(group_id_u, group_id_o)) > 0) {
        penalty *= kReusedPairDiscount;
      }
      cost += penalty * co_weight;
    }
    return cost;
  };

  for (const auto unit : order) {
    // Dynamic ASAP from already-placed predecessors (all predecessors appear
    // earlier in `order`'s topological base, but the mobility sort may have
    // moved them; fall back to the static bound when one is unplaced).
    double ready = asap[unit];
    for (const auto pred : dag.predecessors(unit)) {
      if (placed_slot[pred] >= 0) {
        ready = std::max(ready, static_cast<double>(placed_slot[pred]) + lat[pred]);
      } else {
        ready = std::max(ready, asap[pred] + lat[pred]);
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
      const std::size_t load = result.slots[t].size();
      if (cost < best_cost || (cost == best_cost && load < best_load)) {
        best_cost = cost;
        best_load = load;
        best_slot = t;
      }
      if (best_cost == 0.0 && best_load == 0) break;  // cannot improve
    }
    for (const auto other : result.slots[best_slot]) {
      seen_pairs.insert(pair_key(body.accesses[units[unit].access].group,
                                 body.accesses[units[other].access].group));
    }
    result.slots[best_slot].push_back(unit);
    placed_slot[unit] = static_cast<long>(best_slot);
  }

  // Harvest the conflict graph: every pair of units sharing a slot is a
  // conflict, weighted by expected co-occurrences per frame.
  const auto frame_weight = static_cast<double>(body.iterations);
  for (const auto& slot : result.slots) {
    for (std::size_t i = 0; i < slot.size(); ++i) {
      for (std::size_t j = i + 1; j < slot.size(); ++j) {
        const auto& acc_i = body.accesses[units[slot[i]].access];
        const auto& acc_j = body.accesses[units[slot[j]].access];
        const double co = std::min(units[slot[i]].weight, units[slot[j]].weight);
        result.conflicts.add_conflict(acc_i.group, acc_j.group, co * frame_weight);
        const auto& gi = app.group(acc_i.group);
        const auto& gj = app.group(acc_j.group);
        result.conflict_cost +=
            pair_penalty(gi, gj, acc_i.group == acc_j.group, latency, penalties) * co *
            frame_weight;
      }
    }
  }
  return result;
}



namespace {

/// Conflict-cost curve of one body: cost at every per-iteration budget from
/// the critical-path minimum up to the conflict-free serial budget.
struct CostCurve {
  std::uint64_t min_budget = 0;
  std::vector<double> cost;  ///< cost[i] = conflict cost at budget min_budget + i

  [[nodiscard]] double at(std::uint64_t budget) const {
    if (budget < min_budget) return cost.front();
    const auto idx = budget - min_budget;
    if (idx >= cost.size()) return cost.back();
    return cost[idx];
  }

  [[nodiscard]] std::uint64_t max_budget() const {
    return min_budget + (cost.empty() ? 0 : cost.size() - 1);
  }
};

CostCurve build_curve(const ir::Application& app, ir::LoopBodyId body,
                      const ScbdOptions& options) {
  CostCurve curve;
  curve.min_budget = min_body_budget(app, body, options.latency);
  const auto serial = std::max<std::uint64_t>(serial_body_budget(app, body),
                                              std::max<std::uint64_t>(curve.min_budget, 1));
  for (std::uint64_t b = std::max<std::uint64_t>(curve.min_budget, 1); b <= serial; ++b) {
    const auto result = reference::balance_body(app, body, b, options.latency, options.penalties);
    curve.cost.push_back(result.conflict_cost);
  }
  if (curve.min_budget == 0) curve.min_budget = 1;  // empty bodies schedule in 1 cycle
  if (curve.cost.empty()) curve.cost.push_back(0.0);
  return curve;
}

}  // namespace

ScbdResult distribute_budget(const ir::Application& app, const ScbdOptions& options) {
  DTSE_CHECK(options.global_budget_cycles > 0, "global cycle budget must be positive");

  const auto body_ids = app.body_ids();
  std::vector<CostCurve> curves;
  curves.reserve(body_ids.size());
  for (const auto id : body_ids) curves.push_back(build_curve(app, id, options));

  ScbdResult result;
  // Start every body at its minimum; track global usage.
  std::vector<std::uint64_t> budget(body_ids.size());
  std::uint64_t used = 0;
  for (std::size_t i = 0; i < body_ids.size(); ++i) {
    budget[i] = std::max<std::uint64_t>(curves[i].min_budget, 1);
    used += budget[i] * app.body(body_ids[i]).iterations;
  }
  result.minimum_cycles = used;
  result.feasible = used <= options.global_budget_cycles;

  for (std::size_t i = 0; i < body_ids.size(); ++i) {
    result.conflict_free_cycles += curves[i].max_budget() * app.body(body_ids[i]).iterations;
  }

  // Greedy knapsack: repeatedly buy the budget increment with the best
  // conflict-cost reduction per global cycle spent.
  if (result.feasible) {
    for (;;) {
      double best_gain_rate = 0.0;
      std::size_t best_body = body_ids.size();
      for (std::size_t i = 0; i < body_ids.size(); ++i) {
        if (budget[i] >= curves[i].max_budget()) continue;
        const auto iterations = app.body(body_ids[i]).iterations;
        const auto step_cost = iterations;  // +1 cycle/iteration costs this much
        if (used + step_cost > options.global_budget_cycles) continue;
        const double gain = curves[i].at(budget[i]) - curves[i].at(budget[i] + 1);
        const double rate = gain / static_cast<double>(step_cost);
        if (rate > best_gain_rate) {
          best_gain_rate = rate;
          best_body = i;
        }
      }
      if (best_body == body_ids.size()) break;
      budget[best_body] += 1;
      used += app.body(body_ids[best_body]).iterations;
    }
  }

  result.used_cycles = used;
  for (std::size_t i = 0; i < body_ids.size(); ++i) {
    BodyBudget bb;
    bb.body = body_ids[i];
    bb.name = app.body(body_ids[i]).name;
    bb.iterations = app.body(body_ids[i]).iterations;
    bb.min_cycles = curves[i].min_budget;
    bb.serial_cycles = curves[i].max_budget();
    bb.budget_cycles = budget[i];
    bb.schedule = reference::balance_body(app, body_ids[i], budget[i], options.latency,
                               options.penalties);
    result.conflicts.merge(bb.schedule.conflicts);
    result.conflict_cost += bb.schedule.conflict_cost;
    result.bodies.push_back(std::move(bb));
  }
  return result;
}

}  // namespace dtse::scbd::reference
