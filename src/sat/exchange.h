// Cooperative clause + bound-fact exchange for portfolio solving.
//
// Modern parallel SAT (ManySAT, Glucose-syrup) turns N racing solvers from
// "best-of-N luck" into a cooperating team by exchanging small, low-LBD
// learnt clauses: a clause one solver paid thousands of conflicts to derive
// propagates for free in every other solver. This hub implements that
// exchange for the portfolio layer, plus an encoding-independent registry
// of proven objective-bound facts (an UNSAT certificate at depth d or SWAP
// count k prunes every other strategy's bound search, exploiting the
// monotone solution structure of paper §III-B).
//
// Soundness of literal-level sharing requires that importer and exporter
// agree on what every variable means. Solvers therefore register with a
// *group* key (a fingerprint of the encoding configuration, horizon, and
// variable count - see layout::Model::share_signature()); clauses flow only
// within a group, while bound facts - which are statements about the
// problem, not about any CNF - flow globally.
//
// Concurrency: one annotated mutex ("sat.exchange.hub") guards the shared
// clause buffer and the registries; a second ("sat.exchange.swap_facts")
// guards the non-dominated swap-fact set. The publish filter and the
// "anything new for me?" check run lock-free on atomics so solvers touch
// the lock only when clauses actually cross threads (generation-stamped
// hand-off). All methods are thread-safe. Lock hierarchy (DESIGN.md §11):
// hub -> swap_facts, hub -> obs.metrics.registry; collect() invokes its
// callback *outside* the hub lock, so importers may do arbitrary solver
// work (invariant audits, propagation) without holding hub state.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sat/types.h"
#include "util/sync.h"

namespace olsq2::obs::metrics {
class Counter;
}

namespace olsq2::sat {

class ClauseExchange {
 public:
  struct Options {
    /// Clauses with LBD <= max_lbd pass the filter (units and binaries are
    /// always shared regardless).
    unsigned max_lbd = 4;
    /// ... and at most this many literals.
    std::size_t max_size = 16;
    /// Retained shared clauses; the oldest are evicted past this point and
    /// slow importers miss them (counted in Traffic::dropped).
    std::size_t capacity = 1 << 16;
  };

  ClauseExchange() = default;
  explicit ClauseExchange(const Options& options) : options_(options) {}
  ClauseExchange(const ClauseExchange&) = delete;
  ClauseExchange& operator=(const ClauseExchange&) = delete;

  /// Register a solver in sharing group `group`. Returns the solver's id
  /// for publish()/collect(). Clauses are delivered only between members
  /// of the same group. Groups are additionally namespaced by the current
  /// problem key (see begin_problem), so a reused hub can never deliver
  /// clauses across problem boundaries even when two problems' encoding
  /// fingerprints coincide (relabeled instances have identical var/clause
  /// counts).
  int add_solver(const std::string& group);

  /// Declare the problem the hub is about to serve. Bound facts are
  /// statements about a *problem*, not about any CNF, so they must not
  /// survive a switch to a different problem: a depth-UNSAT fact recorded
  /// for instance A would wrongly prune instance B's bound search and
  /// corrupt its reported optimum. When `key` differs from the current
  /// problem key every bound fact is dropped and the clause backlog is
  /// cut off; same-key calls are no-ops so repeated registration is cheap.
  /// Single-problem users (the portfolio, a standalone optimizer run) never
  /// need to call this - a fresh hub starts with an empty key that any
  /// first problem extends.
  void begin_problem(const std::string& key);

  /// Offer a learnt clause to the hub. Units and binaries always pass;
  /// larger clauses must satisfy both the size and LBD thresholds.
  /// Returns true when the clause was accepted (exported).
  bool publish(int solver_id, std::span<const Lit> lits, unsigned lbd);

  /// One entry of a batched publish; the span must stay valid for the
  /// duration of the publish_batch() call (solvers point it straight into
  /// their clause arena and flush before any deletion/compaction).
  struct ExportItem {
    std::span<const Lit> lits;
    unsigned lbd = 0;
  };

  /// publish() for a whole batch under a single hub-lock acquisition.
  /// Solvers accumulate learnts between bookkeeping boundaries and flush
  /// them here, so the hot conflict loop never touches the hub mutex.
  /// Applies the same filter as publish(); returns the number accepted.
  std::size_t publish_batch(int solver_id, std::span<const ExportItem> items);

  /// Deliver every clause published by *other* same-group solvers since
  /// this solver's last collect; advances the solver's cursor. Returns the
  /// number of clauses delivered. The pending clauses are copied out under
  /// the hub lock and `fn` runs after it is released: the callback may
  /// take arbitrarily long (unit propagation, invariant audits) and may
  /// itself acquire downstream locks without extending the hub's hold.
  std::size_t collect(
      int solver_id,
      const std::function<void(std::span<const Lit>, unsigned lbd)>& fn);

  /// True when collect() would deliver something (takes the buffer lock;
  /// solvers use frontier() for the lock-free fast path instead).
  bool has_new(int solver_id) const;

  /// Generation stamp of the shared buffer: total clauses ever published.
  /// Lock-free. A solver that cached the stamp at its last collect() can
  /// skip the lock entirely while nothing new has been published.
  std::uint64_t frontier() const {
    return next_seq_.load(std::memory_order_acquire);
  }

  struct Traffic {
    std::uint64_t published = 0;  // clauses accepted into the buffer
    std::uint64_t filtered = 0;   // rejected by the size/LBD filter
    std::uint64_t delivered = 0;  // deliveries, summed over importers
    std::uint64_t dropped = 0;    // evictions before every peer collected
    std::uint64_t bound_facts = 0;   // objective-bound facts recorded
    std::uint64_t bound_pruned = 0;  // SAT calls skipped thanks to a fact
  };
  Traffic traffic() const;

  // ---- Objective-bound facts (encoding-independent, global) ----------
  //
  // Depth bounds are monotone (paper §III-B1): UNSAT at depth d implies
  // UNSAT at every d' <= d, so one certificate serves every strategy.
  // SWAP facts carry the depth bound they were proved under: "no solution
  // with depth <= d and swaps <= k" refutes any query at (d' <= d,
  // k' <= k).

  /// Record a proof that no solution has depth <= `depth`.
  void note_depth_unsat(int depth);
  /// Record that a solution with depth `depth` exists.
  void note_depth_sat(int depth);
  /// Largest depth proven UNSAT (-1 when none).
  int depth_unsat_max() const {
    return depth_unsat_max_.load(std::memory_order_acquire);
  }
  /// Smallest depth known SAT (INT_MAX when none).
  int depth_sat_min() const {
    return depth_sat_min_.load(std::memory_order_acquire);
  }

  /// Record a proof that no solution has depth <= `depth` and swap count
  /// <= `swaps`.
  void note_swap_unsat(int depth, int swaps);
  /// True when a recorded fact refutes (depth <= `depth`, swaps <=
  /// `swaps`).
  bool swap_known_unsat(int depth, int swaps) const;

  /// Bookkeeping for the observability layer: a consumer skipped a SAT
  /// call because a shared fact already decided it.
  void note_pruned_call() {
    bound_pruned_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  struct SharedClause {
    std::vector<Lit> lits;
    unsigned lbd = 0;
    int source = -1;  // publishing solver id
    int group = -1;
  };
  struct SolverSlot {
    int group = -1;
    /// Sequence number of the next shared clause this solver has not seen.
    std::uint64_t cursor = 0;
  };
  /// Per-group registry handles, resolved lazily (labels hash the group
  /// key, so registration cost is paid once per group, not per clause).
  struct GroupMetrics {
    obs::metrics::Counter* published = nullptr;
    obs::metrics::Counter* filtered = nullptr;
    obs::metrics::Counter* delivered = nullptr;
  };
  /// Handles for group id `group`.
  GroupMetrics& metrics_for(int group) OLSQ2_REQUIRES(mutex_);

  Options options_;

  mutable sync::Mutex mutex_{"sat.exchange.hub"};
  /// Namespace for group registration.
  std::string problem_key_ OLSQ2_GUARDED_BY(mutex_);
  /// Clause seq i lives at buffer_[i - base_seq_].
  std::deque<SharedClause> buffer_ OLSQ2_GUARDED_BY(mutex_);
  /// Seq of buffer_.front().
  std::uint64_t base_seq_ OLSQ2_GUARDED_BY(mutex_) = 0;
  std::atomic<std::uint64_t> next_seq_{0};
  std::vector<SolverSlot> solvers_ OLSQ2_GUARDED_BY(mutex_);
  /// Group id -> key.
  std::vector<std::string> groups_ OLSQ2_GUARDED_BY(mutex_);
  /// Parallel to groups_, lazily resolved.
  std::vector<GroupMetrics> group_metrics_ OLSQ2_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> filtered_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> bound_facts_{0};
  std::atomic<std::uint64_t> bound_pruned_{0};

  std::atomic<int> depth_unsat_max_{-1};
  std::atomic<int> depth_sat_min_{std::numeric_limits<int>::max()};

  mutable sync::Mutex swap_mutex_{"sat.exchange.swap_facts"};
  /// Non-dominated (depth, swaps) UNSAT facts.
  std::vector<std::pair<int, int>> swap_unsat_ OLSQ2_GUARDED_BY(swap_mutex_);
};

}  // namespace olsq2::sat
