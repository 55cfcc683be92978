// The SAT model for layout synthesis in both of the paper's formulations,
// each either succinct (OLSQ2) or with the original OLSQ's per-gate space
// variables (the Table I/II baselines).
//
// Time-resolved (OLSQ2, paper §III-A; SearchEngine::kTimeResolved):
//   pi[q][t]    mapping variable: physical qubit of program qubit q at t
//   time[g]     execution time step of gate g
//   sigma[e][t] SWAP on edge e finishing at time t
// Gate windows (implied, not in the paper): the dependency chains confine
// gate g to [chain_depth(g) - 1, horizon - 1 - tail(g)]. Unit clauses assert
// it, Eq. 1, Eq. 2-3 and the baseline's space consistency skip (g, t)
// outside it, and depth_bound(b) ends each gate tail(g) steps before b.
// No schedule is lost, so every answer is unchanged.
// Transition-based (TB-OLSQ2, paper §III-D; SearchEngine::kTransitionBased)
// is the same model with time coarsened to blocks: the mapping is fixed
// inside a block and SWAPs form one layer per block transition. It differs
// in six places:
//   - a SWAP occupies one step, so sigma[e][k] is the layer entering
//     block k and extract() names it by the block it leaves, k-1;
//   - dependent gates may share a block: t_g <= t_g' instead of t_g < t_g';
//   - SWAPs of one layer exclude each other and the SWAP/gate exclusion
//     (Eq. 2-3) vanishes;
//   - the phase hint puts every gate in block 0 instead of ASAP;
//   - no gate windows: t_g <= t_g' confines no gate to fewer blocks;
//   - depth_bound(b) also keeps the SWAP layers at blocks >= b empty.
// The OLSQ baseline additionally materializes a space variable x[g] per
// gate (edge index for two-qubit gates, physical qubit for single-qubit
// gates) and the consistency constraints tying x to pi and time - exactly
// the redundancy the paper eliminates.
//
// Objective bounds are exposed as assumption literals so the optimizer's
// iterative refinement reuses one incrementally-solved instance.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "circuit/dependency.h"
#include "encode/totalizer.h"
#include "layout/search.h"
#include "layout/types.h"

namespace olsq2::layout {

class Model {
 public:
  /// Build the time-resolved constraint system for depths 0..t_ub-1. Any
  /// schedule of depth <= t_ub fits, so the optimizers pass the depth bound
  /// a model answers as `t_ub`. When `proof` is non-null the solver logs a
  /// DRAT proof, and when `log_clauses` is set the original CNF is retained
  /// (both needed for certification and DIMACS export; they must be armed
  /// before constraints are emitted, hence constructor parameters).
  Model(const Problem& problem, int t_ub, const EncodingConfig& config,
        sat::Proof* proof = nullptr, bool log_clauses = false);

  /// Build the model `engine` searches: time-resolved over `horizon` steps
  /// (as above) or transition-based over `horizon` blocks.
  Model(SearchEngine engine, const Problem& problem, int horizon,
        const EncodingConfig& config, sat::Proof* proof = nullptr,
        bool log_clauses = false);

  sat::Solver& solver() { return solver_; }
  SearchEngine engine() const { return engine_; }
  /// Time steps, or blocks in transition-based mode.
  int horizon() const { return horizon_; }

  /// Assumption literal enforcing depth <= t_b (all t_g < t_b - tail(g),
  /// which the dependencies imply); in transition-based mode all t_g < t_b
  /// and no SWAP layer at or after block t_b. Cached.
  Lit depth_bound(int t_b);

  /// Assumption literal enforcing total SWAP count <= s_b via a totalizer
  /// (built on first use).
  Lit swap_bound(int s_b);

  /// Hard-assert the SWAP bound with the chosen one-shot encoding
  /// (sequential counter or adder network) - Table II configurations.
  void assert_swap_bound_hard(int s_b, CardEncoding encoding);

  /// Eagerly materialize every lazily-created bound literal in a canonical
  /// order: depth_bound(1..t_ub-1) ascending, then (when `with_swaps`) the
  /// SWAP totalizer. Afterwards the optimizer's bound requests create no
  /// new variables, so the CNF a search solves does not depend on which
  /// bounds it visits. The optimizers call this on every model they build.
  void materialize_bounds(bool with_swaps);

  /// Decode the current model into a Result (call after a SAT answer).
  /// Swaps finishing at or after the final depth are dropped as inert. A
  /// transition-based result has `depth` = its block count.
  Result extract() const;

  /// Number of SWAP variables that are true in the current model.
  int count_swaps() const;

  /// The injectivity obligations this model must enforce: one literal pair
  /// per (program-qubit pair, physical qubit, time step) that may never be
  /// simultaneously true, regardless of which InjectivityEncoding emitted
  /// the clauses. Input for analysis::audit_mutual_exclusion — the
  /// recognizer that checks the encoding covers every pin pair.
  std::vector<std::pair<Lit, Lit>> injectivity_obligations();

 private:
  void build_variables();
  void build_windows();  // gate windows, time-resolved mode only
  void build_injectivity();
  void build_dependencies();
  void build_two_qubit_adjacency();      // OLSQ2 Eq. 1
  void build_space_consistency();        // OLSQ baseline extra constraints
  void build_mapping_transitions();      // paper constraint (4)
  void build_mapping_update(int q, int t);  // ... for q on t-1 -> t
  void build_swap_swap_exclusion();
  void build_swap_gate_exclusion();      // Eq. 2-3 (or space-var variant)
  void build_layer_transitions();        // transition-based mode

  bool transition_based() const {
    return engine_ == SearchEngine::kTransitionBased;
  }
  // Gate g's window: the steps its dependency chains leave it. Every block
  // in transition-based mode, whose ordering t_g <= t_g' confines nothing.
  int earliest(int g) const {
    return transition_based() ? 0 : deps_.chain_depth(g) - 1;
  }
  int latest(int g) const {
    return horizon_ - 1 - (transition_based() ? 0 : deps_.tail(g));
  }
  // A SWAP finishing at t occupies [t-S_D+1, t] and takes effect on the
  // t-1 -> t transition, so t must be >= max(1, S_D-1).
  bool sigma_is_real(int t) const {
    return t >= swap_steps_ - 1 && t >= 1;
  }

  SearchEngine engine_;
  const circuit::Circuit& circ_;
  const device::Device& dev_;
  int horizon_;
  int swap_steps_;  // S_D; 1 in transition-based mode
  EncodingConfig config_;

  sat::Solver solver_;
  encode::CnfBuilder builder_;
  circuit::DependencyGraph deps_;

  std::vector<std::vector<FdVar>> pi_;      // [q][t]
  std::vector<FdVar> time_;                 // [g]
  std::vector<std::vector<Lit>> sigma_;     // [e][t]
  std::vector<Lit> sigma_flat_;             // all real SWAP literals
  std::vector<std::vector<FdVar>> pi_inv_;  // [p][t], channeling only
  std::vector<FdVar> space_;                // [g], baseline only

  std::map<int, Lit> depth_bound_cache_;
  std::unique_ptr<encode::Totalizer> swap_totalizer_;
};

}  // namespace olsq2::layout
