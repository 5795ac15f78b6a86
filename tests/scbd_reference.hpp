// Test-only oracle for the scbd layer: the scheduler that rebuilt each
// body's state at every budget of its cost curve.  See scbd_reference.cpp.
#pragma once

#include <cstdint>

#include "scbd/budget_distribution.hpp"
#include "scbd/flow_graph_balancing.hpp"

namespace dtse::scbd::reference {

[[nodiscard]] std::uint64_t min_body_budget(const ir::Application& app, ir::LoopBodyId body,
                                            const graph::LatencyModel& latency);

[[nodiscard]] std::uint64_t serial_body_budget(const ir::Application& app,
                                               ir::LoopBodyId body);

[[nodiscard]] BalanceResult balance_body(const ir::Application& app, ir::LoopBodyId body,
                                         std::uint64_t budget_cycles,
                                         const graph::LatencyModel& latency = {},
                                         const ConflictPenalties& penalties = {});

[[nodiscard]] ScbdResult distribute_budget(const ir::Application& app,
                                           const ScbdOptions& options = {});

}  // namespace dtse::scbd::reference
