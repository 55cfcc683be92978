// High-level OLSQ2 synthesis entry points (paper §III-B).
//
// Depth optimization: start from the dependency lower bound T_LB, relax the
// bound geometrically (x1.3 below 100, x1.1 above) until the first SAT, then
// bisect between the highest refuted bound and the incumbent's depth until
// they are adjacent; the incumbent is then optimal. This bisection departs
// from the paper's decrement by one; no bound is asked twice. SWAP
// optimization: 2-D Pareto sweep - at each depth bound run iterative descent
// on the SWAP bound (monotone solution structure, §III-B2), then relax the
// depth and retry, stopping when the SWAP count stops improving or the time
// budget expires. Each relaxed bound gets a model of exactly that horizon;
// the rest runs incrementally on it, bounds given as assumption literals.
#pragma once

#include "layout/model.h"
#include "layout/search.h"
#include "layout/types.h"

namespace olsq2::layout {

/// Find a depth-optimal layout. `result.solved` is false only if the time
/// budget expired before any satisfying solution was found.
Result synthesize_depth_optimal(const Problem& problem,
                                const EncodingConfig& config = {},
                                const OptimizerOptions& options = {});

/// Pareto sweep over (depth, SWAP count); returns the solution with the
/// fewest SWAPs found (ties broken toward smaller depth). `result.pareto`
/// holds the explored trade-off points.
Result synthesize_swap_optimal(const Problem& problem,
                               const EncodingConfig& config = {},
                               const OptimizerOptions& options = {});

/// One-shot satisfiability check with fixed bounds - the experiment shape
/// used for the paper's encoding studies (Tables I and II). Solves the model
/// with depth horizon `t_ub` and, when `swap_bound >= 0`, a hard SWAP-count
/// constraint in the configured cardinality encoding. Returns the decoded
/// result if SAT. An already expired `deadline` returns hit_budget without
/// encoding or solving.
Result solve_fixed(const Problem& problem, int t_ub, int swap_bound,
                   const EncodingConfig& config = {},
                   const Deadline& deadline = Deadline());

}  // namespace olsq2::layout
