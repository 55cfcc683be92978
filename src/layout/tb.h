// Transition-based (coarse-grained) layout synthesis: TB-OLSQ2
// (paper §III-D) and the TB-OLSQ baseline.
//
// Time is abstracted into blocks separated by SWAP layers. Within a block
// the mapping is fixed and dependent gates may share the block (dependency
// becomes t_g <= t_g'); SWAPs only happen between blocks, so the SWAP/gate
// exclusion constraints (Eq. 2-3) vanish. Objectives: block count (via the
// depth strategy with T_B starting at 1 and incremented) or SWAP count (via
// iterative descent). Results are near-optimal for SWAP count at a fraction
// of the time-resolved model's cost.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "circuit/dependency.h"
#include "encode/totalizer.h"
#include "layout/search.h"
#include "layout/types.h"

namespace olsq2::layout {

class TbModel : public SweepModel {
 public:
  /// Build the block-resolved constraint system with `max_blocks` blocks.
  TbModel(const Problem& problem, int max_blocks, const EncodingConfig& config);

  sat::Solver& solver() override { return solver_; }
  int max_blocks() const { return max_blocks_; }

  /// Assumption literal enforcing all gates inside the first `blocks` blocks.
  Lit block_bound(int blocks);
  Lit horizon_bound(int blocks) override { return block_bound(blocks); }

  /// Assumption literal enforcing total SWAP count <= s_b (totalizer).
  Lit swap_bound(int s_b) override;

  /// Hard-assert the SWAP bound (one-shot encodings for Table II).
  void assert_swap_bound_hard(int s_b, CardEncoding encoding);

  /// Decode the current model (after SAT). `depth` holds the block count.
  Result extract() const override;

 private:
  void build_variables();
  void build_injectivity();
  void build_dependencies();
  void build_adjacency();
  void build_transitions();

  const Problem& problem_;
  const circuit::Circuit& circ_;
  const device::Device& dev_;
  int max_blocks_;
  EncodingConfig config_;

  sat::Solver solver_;
  encode::CnfBuilder builder_;
  circuit::DependencyGraph deps_;

  std::vector<std::vector<FdVar>> pi_;      // [q][block]
  std::vector<FdVar> time_;                 // [g] -> block index
  std::vector<std::vector<Lit>> sigma_;     // [e][transition 0..B-2]
  std::vector<Lit> sigma_flat_;
  std::vector<std::vector<FdVar>> pi_inv_;  // channeling only
  std::vector<FdVar> space_;                // baseline (TB-OLSQ) only

  std::map<int, Lit> block_bound_cache_;
  std::unique_ptr<encode::Totalizer> swap_totalizer_;
};

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
