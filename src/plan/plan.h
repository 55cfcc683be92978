// Optimal planning-search layout engine (DESIGN.md §13).
//
// A*/IDA* over mapping states (plan/space.h) guided by the admissible
// bounds in plan/heuristic.h. Unlike the per-layer astar router (greedy
// partitioned, globally suboptimal by design), this engine minimizes the
// *global* SWAP count and certifies optimality on instances it completes -
// structurally independent of the SAT stack, which makes it the first
// oracle able to refute a shared-encoding bug (fuzz/oracles check_plan).
//
// The returned layout::Result is transition-based (one SWAP per block
// transition, unconstrained depth), so on solved instances the optimal
// SWAP count coincides with TB-OLSQ2's swap optimum; the time-resolved
// Pareto sweep may legitimately report more SWAPs at its chosen depth.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "layout/types.h"

namespace olsq2::plan {

enum class Strategy {
  kAstar,    // best-first with transposition table (default)
  kIdaStar,  // iterative deepening, O(depth) memory, no TT
};

struct PlanOptions {
  Strategy strategy = Strategy::kAstar;
  /// Node-expansion cap across the whole search (both strategies). When it
  /// trips, the incumbent is returned with optimal=false.
  std::int64_t max_expansions = 2'000'000;
  /// Cap on enumerated root placements. Exceeding it switches to seeded
  /// random sampling, which also demotes the result to an upper bound.
  std::int64_t max_roots = 200'000;
  /// Wall-clock budget; <=0 means unlimited.
  double time_budget_ms = 0.0;
  /// Optional externally-owned cancellation flag.
  const std::atomic<bool>* cancel = nullptr;
  /// Root-sampling seed (only used when max_roots overflows).
  std::uint64_t seed = 17;
};

struct PlanResult {
  bool solved = false;
  /// True only when the SWAP count is certified globally minimal: complete
  /// root enumeration, no budget/cancel cut, search closed (goal expanded
  /// or every open f-value >= incumbent). False = valid upper bound.
  bool optimal = false;
  int swap_count = 0;
  std::vector<int> initial_mapping;  // program qubit -> physical qubit
  std::vector<int> final_mapping;
  /// SWAPs in execution order as device edge indices.
  std::vector<int> swap_edges;

  // Search diagnostics.
  std::int64_t nodes_expanded = 0;
  std::int64_t nodes_generated = 0;
  std::int64_t tt_hits = 0;
  std::int64_t roots = 0;
  bool hit_budget = false;
  double wall_ms = 0.0;

  /// Transition-based layout::Result (passes verify_transition_based);
  /// layout.hit_budget mirrors !optimal so the serve cache never pins a
  /// non-certified plan.
  layout::Result layout;
};

PlanResult synthesize(const layout::Problem& problem,
                      const PlanOptions& options = {});

}  // namespace olsq2::plan
