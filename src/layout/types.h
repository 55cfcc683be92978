// Shared types for the layout synthesis engines.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "device/device.h"
#include "layout/fdvar.h"
#include "sat/solver.h"

namespace olsq2::layout {

class BoundFacts;

/// One layout synthesis instance.
struct Problem {
  const circuit::Circuit* circuit = nullptr;
  const device::Device* device = nullptr;
  /// SWAP gate duration S_D in time steps (1 for QAOA where the SWAP merges
  /// with the phase-splitting gate, 3 = CNOT decomposition otherwise).
  int swap_duration = 1;
};

/// An inserted SWAP gate: device edge index plus the time step (or block
/// transition index, for transition-based results) at which it finishes.
struct SwapOp {
  int edge = -1;
  int end_time = -1;
};

/// Telemetry for one incremental SAT call inside an optimizer loop: which
/// bounds were assumed, what came back, and what it cost. The sequence of
/// these records is the textual form of the Pareto-sweep timeline the
/// tracing layer renders (obs/, OLSQ2_TRACE).
struct SolveCall {
  int depth_bound = -1;  // assumed depth bound (block bound for TB); -1 none
  int swap_bound = -1;   // assumed SWAP bound; -1 none
  char status = '?';     // 'S' = SAT, 'U' = UNSAT, '?' = budget expired,
                         // 'P' = pruned, no SAT call: a peer's shared
                         // bound fact or the SWAP floor proved it UNSAT
  std::uint64_t conflicts = 0;     // conflicts delta for this call
  std::uint64_t propagations = 0;  // propagations delta for this call
  std::uint64_t decisions = 0;     // decisions delta for this call
  double wall_ms = 0.0;
};

/// Synthesis output: qubit mapping per time step, gate schedule and SWAPs
/// (paper §II-A). For transition-based results, "time" means block index
/// and `mapping` has one entry per block.
struct Result {
  bool solved = false;
  bool transition_based = false;
  int depth = 0;       // circuit depth T (or block count for TB results)
  int swap_count = 0;
  std::vector<int> gate_time;             // t_g for every gate
  std::vector<std::vector<int>> mapping;  // mapping[t][q] = physical qubit
  std::vector<SwapOp> swaps;

  // Search diagnostics.
  double wall_ms = 0.0;
  int sat_calls = 0;
  std::uint64_t conflicts = 0;
  bool hit_budget = false;
  /// Per-call telemetry, one entry per incremental SAT call in order.
  std::vector<SolveCall> calls;
  /// (depth, swap) points discovered by the 2-D Pareto sweep (§III-B2).
  std::vector<std::pair<int, int>> pareto;
};

/// How mapping injectivity (paper §II-A constraint 1) is encoded.
enum class InjectivityEncoding {
  kPairwise,     // pairwise disequalities (the paper's formulation)
  kChanneling,   // inverse-function pi_inv(pi(q,t),t) = q (the EUF analog)
  kAmoPerQubit,  // commander at-most-one occupant per physical qubit:
                 // Θ(|Q||P|) clauses/step vs Θ(|Q|²|P|) for pairwise -
                 // decisive on 50+ qubit devices
};

/// How the SWAP-count cardinality constraint (paper Eq. 5) is encoded.
enum class CardEncoding {
  kSeqCounter,  // Sinz sequential counter in CNF (the paper's choice)
  kTotalizer,   // sorted outputs; enables incremental assumption bounds
  kAdder,       // binary adder network (the AtMost / PB-theory analog)
};

/// Whether per-gate space variables are used (original OLSQ) or inferred
/// from mapping + time variables (OLSQ2, paper improvement 1).
enum class Formulation { kOlsq2, kOlsqBaseline };

struct EncodingConfig {
  Formulation formulation = Formulation::kOlsq2;
  VarEncoding vars = VarEncoding::kBinary;
  // Pairwise disequalities, as in the paper's OLSQ2(bv) configuration. The
  // binary forbidden-pair clauses propagate hard and measure most robust
  // across instance families; kAmoPerQubit trades clause count for
  // commander indirection and wins only when |Q| is much smaller than |P|
  // (see the encoding ablation in EXPERIMENTS.md).
  InjectivityEncoding injectivity = InjectivityEncoding::kPairwise;
  CardEncoding cardinality = CardEncoding::kTotalizer;

  std::string label() const;
};

/// Options for the iterative optimization loops (paper §III-B).
struct OptimizerOptions {
  /// Wall-clock budget for the whole optimization; <=0 means unlimited.
  double time_budget_ms = 0.0;
  /// Geometric relaxation factors for the depth bound.
  double relax_small = 1.3;  // applied while T_B < 100
  double relax_large = 1.1;
  /// Reuse one solver across bound iterations (incremental solving). The
  /// ablation bench turns this off to measure its contribution.
  bool incremental = true;
  /// Restart strategy for the underlying CDCL solver.
  sat::Solver::RestartPolicy restart_policy =
      sat::Solver::RestartPolicy::kGlucose;
  /// Optional caller-owned cancellation flag (serve, plan and subarch pass
  /// theirs through). When it turns true, the optimizer unwinds as if its
  /// budget expired.
  const std::atomic<bool>* cancel = nullptr;
  /// Proven objective-bound facts shared with other searches of the same
  /// problem (serve's engine variants of one instance). Owned by the
  /// caller; nullptr = none.
  BoundFacts* facts = nullptr;
};

}  // namespace olsq2::layout
