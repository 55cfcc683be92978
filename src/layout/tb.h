// Transition-based (coarse-grained) layout synthesis engines: TB-OLSQ2
// (paper §III-D) and the TB-OLSQ baseline.
//
// Time is abstracted into blocks separated by SWAP layers. Within a block
// the mapping is fixed and dependent gates may share the block (dependency
// becomes t_g <= t_g'); SWAPs only happen between blocks, so the SWAP/gate
// exclusion constraints (Eq. 2-3) vanish. The model is layout::Model in its
// transition-based mode (model.h). Objectives: block count (via the depth
// strategy with T_B starting at 1 and incremented) or SWAP count (via
// iterative descent). Results are near-optimal for SWAP count at a fraction
// of the time-resolved model's cost.
#pragma once

#include "layout/search.h"
#include "layout/types.h"

namespace olsq2::layout {

/// Minimize the block count, then run iterative descent on the SWAP count
/// (TB-OLSQ2's SWAP objective; Table IV). Relaxes the block count while the
/// SWAP count keeps improving, mirroring the 2-D sweep.
Result tb_synthesize_swap_optimal(const Problem& problem,
                                  const EncodingConfig& config = {},
                                  const OptimizerOptions& options = {});

/// Minimize the block count only (the TB depth-objective analog).
Result tb_synthesize_block_optimal(const Problem& problem,
                                   const EncodingConfig& config = {},
                                   const OptimizerOptions& options = {});

/// One-shot TB solve with fixed block count and optional hard SWAP bound
/// (Table II's TB configurations, the subarch ladder's probes). The solve
/// gets `deadline`'s remaining budget and cancel token; an already expired
/// deadline returns hit_budget without encoding or solving.
Result tb_solve_fixed(const Problem& problem, int blocks, int swap_bound,
                      const EncodingConfig& config = {},
                      const Deadline& deadline = Deadline());

/// The time-resolved sweep's SWAP-floor probe (search.h): decides the TB
/// model at (`swaps`+1 blocks, <= `swaps`) as one SAT call recorded into
/// `diag` as {-1, swaps, status}. UNSAT proves that no time-resolved
/// solution has <= `swaps` SWAPs at any depth: cutting a schedule at each
/// distinct SWAP finish time gives a TB solution with the same SWAP count
/// in at most `swaps`+1 blocks. kUndef when the deadline is spent or the
/// call ran out of budget.
sat::LBool tb_floor_probe(const Problem& problem, int swaps,
                          const EncodingConfig& config,
                          const Deadline& deadline, Result& diag);

}  // namespace olsq2::layout
