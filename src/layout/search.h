// The bound-search driver shared by the OLSQ2 and TB engines (DESIGN.md
// §8.1): the deadline, the SAT-call emitter that fills every SolveCall, the
// 2-D Pareto SWAP sweep (paper §III-B2) with its SWAP floor, and the
// diagnostics merge. Each engine keeps its own horizon walk - depth
// relax-then-decrement for OLSQ2, a +1 block walk for TB - because those
// differ in real ways.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <vector>

#include "layout/types.h"

namespace olsq2::layout {

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

/// Which engine a call belongs to. It picks the span names, the span's
/// bound key and the metric label, so traces and metrics keep one
/// vocabulary per engine: olsq2.solve / depth_bound / time-resolved and
/// tb.solve / block_bound / transition-based.
enum class SearchEngine { kTimeResolved, kTransitionBased };

/// Nullable view over the shared objective-bound registry; every accessor
/// degrades to "no facts known" when no exchange is attached.
struct FactHub {
  sat::ClauseExchange* ex = nullptr;

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

/// Why a bound was decided without a SAT call.
enum class PruneReason {
  kPeer,       // a portfolio peer's shared bound fact (FactHub)
  kSwapFloor,  // the SWAP floor of sweep_swaps
};

/// Record a bound decided without running the solver: a `'P'` SolveCall,
/// an `olsq2.bound_pruned` instant and `layout_pruned_probes_total`, each
/// carrying `reason`.
void record_pruned(Result& diag, int bound, int swap_bound,
                   PruneReason reason, const FactHub& facts);

/// What the SWAP sweep needs from an engine model: a solver and two
/// assumption literals, horizon <= `bound` and SWAPs <= `swaps`. Models
/// are owned as their concrete type, never deleted through this interface.
class SweepModel {
 public:
  virtual sat::Solver& solver() = 0;
  virtual Lit horizon_bound(int bound) = 0;
  virtual Lit swap_bound(int swaps) = 0;
  virtual Result extract() const = 0;

 protected:
  ~SweepModel() = default;
};

/// Returns a model able to represent horizon `bound`, growing it by the
/// engine's own rule when needed.
using ModelAt = std::function<SweepModel&(int bound)>;

/// Decides the transition-based relaxation at (`swaps`+1 blocks, <= `swaps`
/// SWAPs) as one SAT call recorded into the sweep's diagnostics (see
/// tb_floor_probe in tb.h).
using FloorProbe = std::function<sat::LBool(int swaps)>;

/// The 2-D Pareto sweep (paper §III-B2). At each horizon, starting from
/// `bound` on `model` with incumbent `best`, tighten the SWAP bound one
/// below the incumbent until UNSAT; then relax the horizon by one (through
/// `model_at`) while the SWAP count keeps improving. Facts in `facts`
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
Result sweep_swaps(SearchEngine engine, SweepModel& model,
                   const ModelAt& model_at, Result best, int bound,
                   const FactHub& facts, const FloorProbe& floor_probe,
                   const Deadline& deadline, Result& diag);

/// Move the search diagnostics in `diag` into `result`. The result reports
/// hit_budget when any call ran out of budget or the deadline has passed,
/// so a search cut between two calls never claims a finished proof.
void finish(Result& result, Result& diag, const Deadline& deadline);

}  // namespace olsq2::layout
