// The bound-search driver shared by the OLSQ2 and TB engines (DESIGN.md
// §8.1): the deadline, the proven bound facts shared between searches of
// one problem, the SAT-call emitter that fills every SolveCall, the 2-D
// Pareto SWAP sweep (paper §III-B2) with its SWAP floor, and the
// diagnostics merge. Both engines search a layout::Model, in its
// time-resolved or transition-based mode. Each keeps its own horizon walk -
// depth relax-then-bisect for OLSQ2, a +1 block walk for TB - because
// those differ in real ways.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "layout/types.h"

namespace olsq2::layout {

class Model;

/// Wall-clock budget and cancellation token of one search.
class Deadline {
 public:
  /// `budget_ms <= 0` means unlimited; `cancel` may be null.
  explicit Deadline(double budget_ms = 0.0,
                    const std::atomic<bool>* cancel = nullptr);

  double elapsed_ms() const;
  /// Budget left (0 once spent); +infinity when unlimited.
  double remaining_ms() const;
  bool expired() const;
  bool cancelled() const;

  /// Prepare `solver` for its next call: clear its budgets, give it the
  /// remaining time (at least 1 ms) and install the cancel token.
  void arm(sat::Solver& solver) const;

 private:
  std::chrono::steady_clock::time_point start_;
  double budget_ms_;
  const std::atomic<bool>* cancel_;
};

/// Which engine a call belongs to, and the formulation its Model encodes.
/// It picks the span names, the span's bound key and the metric label, so
/// traces and metrics keep one vocabulary per engine: olsq2.solve /
/// depth_bound / time-resolved and tb.solve / block_bound /
/// transition-based.
enum class SearchEngine { kTimeResolved, kTransitionBased };

/// Proven objective-bound facts about one problem, shared by every search
/// of it: serve's engine variants of one instance, or the runs a caller
/// attaches one after another. The facts are statements about the problem,
/// not about any CNF, so they hold across encodings. Depth bounds are
/// monotone (paper §III-B1): UNSAT at depth d implies UNSAT at every
/// d' <= d. A SWAP fact carries the depth bound it was proved under: "no
/// solution with depth <= d and swaps <= k" refutes every query at
/// (d' <= d, k' <= k).
///
/// Not thread-safe; the owner serializes access (serve::Server holds it
/// under its "serve.batch.solve" lock).
class BoundFacts {
 public:
  BoundFacts() = default;
  BoundFacts(const BoundFacts&) = delete;
  BoundFacts& operator=(const BoundFacts&) = delete;

  /// Declare the problem the facts are about to describe. A key that
  /// differs from the current one drops every fact: a depth-UNSAT fact of
  /// instance A would wrongly prune instance B's search and corrupt its
  /// reported optimum. Same-key calls are no-ops. Single-problem users
  /// never need to call this.
  void begin_problem(const std::string& key);

  /// Record a proof that no solution has depth <= `depth`.
  void note_depth_unsat(int depth);
  /// Record that a solution with depth `depth` exists.
  void note_depth_sat(int depth);
  /// Largest depth proven UNSAT (-1 when none).
  int depth_unsat_max() const { return depth_unsat_max_; }
  /// Smallest depth known SAT (INT_MAX when none).
  int depth_sat_min() const { return depth_sat_min_; }

  /// Record a proof that no solution has depth <= `depth` and SWAP count
  /// <= `swaps`. Only non-dominated facts are kept.
  void note_swap_unsat(int depth, int swaps);
  /// True when a recorded fact refutes (depth <= `depth`, swaps <= `swaps`).
  bool swap_known_unsat(int depth, int swaps) const;
  /// The non-dominated (depth, swaps) facts, in no set order.
  const std::vector<std::pair<int, int>>& swap_facts() const {
    return swap_unsat_;
  }

  struct Traffic {
    std::uint64_t bound_facts = 0;  // facts recorded
  };
  Traffic traffic() const { return traffic_; }

 private:
  int depth_unsat_max_ = -1;
  int depth_sat_min_ = std::numeric_limits<int>::max();
  Traffic traffic_;
  std::string problem_key_;
  /// Non-dominated (depth, swaps) UNSAT facts.
  std::vector<std::pair<int, int>> swap_unsat_;
};

/// Nullable view over a BoundFacts; every accessor degrades to "no facts
/// known" when none is attached.
struct FactHub {
  BoundFacts* facts = nullptr;

  int depth_unsat_max() const;
  int depth_sat_min() const;
  void note_depth_unsat(int d) const;
  void note_depth_sat(int d) const;
  void note_swap_unsat(int d, int k) const;
  bool swap_known_unsat(int d, int k) const;
};

/// One SAT call under `assumptions`, armed by `deadline`: a trace span, a
/// SolveCall record and the per-engine call metrics, accumulated into
/// `diag`. `bound`/`swap_bound` of -1 mean "not assumed". The only place
/// a SolveCall is filled.
sat::LBool solve_call(SearchEngine engine, sat::Solver& solver,
                      const std::vector<Lit>& assumptions, int bound,
                      int swap_bound, const Deadline& deadline, Result& diag);

/// One fixed-bound decision: a fresh `engine` Model of `horizon` steps (or
/// blocks) with, when `swap_bound` >= 0, that SWAP bound hard-asserted in
/// `config.cardinality`, solved by one call recorded into `diag` as {-1,
/// swap_bound, status}. Decodes into `*solution` when SAT and `solution`
/// is non-null. An already expired deadline returns kUndef without
/// encoding or solving. solve_fixed, tb_solve_fixed and tb_floor_probe are
/// this call.
sat::LBool decide_fixed(SearchEngine engine, const Problem& problem,
                        int horizon, int swap_bound,
                        const EncodingConfig& config, const Deadline& deadline,
                        Result& diag, Result* solution = nullptr);

/// Why a bound was decided without a SAT call.
enum class PruneReason {
  kPeer,       // a shared bound fact of the problem (FactHub)
  kSwapFloor,  // the SWAP floor of sweep_swaps
};

/// Record a bound decided without running the solver: a `'P'` SolveCall,
/// an `olsq2.bound_pruned` instant and `layout_pruned_probes_total`, each
/// carrying `reason`.
void record_pruned(Result& diag, int bound, int swap_bound,
                   PruneReason reason);

/// Returns a model able to represent horizon `bound`, growing it by the
/// engine's own rule when needed. The sweep calls it only right before a
/// call it solves, so a horizon whose calls are all pruned builds nothing.
using ModelAt = std::function<Model&(int bound)>;

/// Decides the transition-based relaxation at (`swaps`+1 blocks, <= `swaps`
/// SWAPs) as one SAT call recorded into the sweep's diagnostics (see
/// tb_floor_probe in tb.h).
using FloorProbe = std::function<sat::LBool(int swaps)>;

/// The 2-D Pareto sweep (paper §III-B2) of `model`'s engine. At each
/// horizon, starting from `bound` on `model` with incumbent `best`, tighten
/// the SWAP bound one below the incumbent until UNSAT; then relax the
/// horizon by one (through `model_at`) while the SWAP count keeps improving. Facts in `facts`
/// prune calls and receive every UNSAT. Returns the best solution, with
/// `pareto` set.
///
/// The sweep keeps a SWAP floor: every count below it is proven infeasible
/// at every horizon, so a descent step whose target is below it is
/// recorded as pruned (PruneReason::kSwapFloor) instead of solved. It has
/// two sources (DESIGN.md §8.1):
///   - TB block saturation: a transition-based solution with s SWAPs fits
///     in s+1 blocks, so a TB descent UNSAT at (B blocks, <= t) with t < B
///     raises the floor to t+1;
///   - `floor_probe` (the time-resolved engine's): before the first call
///     whose target is at or above the floor, probes k = floor, floor+1, ...
///     until one is SAT (the floor is then exact and never probed again) or
///     the floor passes the target. An UNSAT probe at k raises the floor to
///     k+1, since the TB model relaxes the time-resolved one. A probe that
///     runs out of budget raises nothing and ends the descent.
/// Pruning skips only calls whose answer is proven UNSAT, so a sweep that
/// runs to completion returns the optimum and Pareto points of the
/// unpruned one.
Result sweep_swaps(Model& model, const ModelAt& model_at, Result best,
                   int bound, const FactHub& facts,
                   const FloorProbe& floor_probe, const Deadline& deadline,
                   Result& diag);

/// Move the search diagnostics in `diag` into `result`. The result reports
/// hit_budget when any call ran out of budget or the deadline has passed,
/// so a search cut between two calls never claims a finished proof.
void finish(Result& result, Result& diag, const Deadline& deadline);

}  // namespace olsq2::layout
