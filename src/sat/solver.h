// A CDCL SAT solver in the MiniSat lineage.
//
// Features: two-watched-literal propagation with blockers, first-UIP conflict
// analysis with basic clause minimization, VSIDS decision heuristic with
// phase saving, Luby restarts, a three-tier learnt-clause database with
// usage-based demotion, inter-restart inprocessing (vivification,
// subsumption/self-subsuming resolution, equivalent-literal substitution),
// and incremental solving (clauses may be added between solve() calls;
// solve() accepts assumption literals). Clauses live in a bump-allocated
// arena (arena.h) addressed by 32-bit references with a compacting GC.
//
// This solver is the substrate replacing Z3's SAT core in the OLSQ2
// reproduction: the paper's winning configuration bit-blasts everything into
// propositional logic precisely so that the SAT engine does the work.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sat/arena.h"
#include "sat/heap.h"
#include "sat/proof.h"
#include "sat/stats.h"
#include "sat/types.h"

namespace olsq2::sat {

class Solver {
 public:
  Solver();
  ~Solver();
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Create a fresh variable and return it.
  Var new_var();
  std::int32_t num_vars() const { return static_cast<std::int32_t>(assigns_.size()); }

  /// Add a clause. Returns false if the formula is now trivially UNSAT
  /// (conflicting units at the root level). Tautologies and duplicate
  /// literals are handled internally. May be called between solve() calls.
  bool add_clause(std::vector<Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::vector<Lit>(lits));
  }

  /// Solve under the given assumptions.
  /// kTrue = satisfiable, kFalse = unsatisfiable (under assumptions),
  /// kUndef = a resource budget expired.
  LBool solve(std::span<const Lit> assumptions = {});

  /// Model access; valid only after solve() returned kTrue.
  LBool model_value(Var v) const { return model_[v]; }
  LBool model_value(Lit l) const { return lit_value(model_[l.var()], l.sign()); }
  bool model_bool(Lit l) const { return model_value(l) == LBool::kTrue; }

  /// False once the clause set is root-level unsatisfiable.
  bool okay() const { return ok_; }

  /// Asynchronous interruption: may be called from another thread; the
  /// in-flight solve() returns kUndef at the next conflict boundary. The
  /// flag stays set until clear_interrupt() - subsequent solves also bail.
  void interrupt() { interrupted_.store(true, std::memory_order_relaxed); }
  void clear_interrupt() { interrupted_.store(false, std::memory_order_relaxed); }
  bool interrupted() const {
    return interrupted_.load(std::memory_order_relaxed) ||
           (external_interrupt_ != nullptr &&
            external_interrupt_->load(std::memory_order_relaxed));
  }

  /// Share an externally-owned cancellation flag (an optimizer's cancel
  /// token, installed by layout::Deadline::arm): when it becomes true,
  /// in-flight and future solves return kUndef. The flag must outlive the
  /// solver or be detached with nullptr.
  void set_external_interrupt(const std::atomic<bool>* flag) {
    external_interrupt_ = flag;
  }

  /// Resource budgets; negative disables. Budgets apply per solve() call.
  void set_conflict_budget(std::int64_t conflicts) { conflict_budget_ = conflicts; }
  void set_time_budget(std::chrono::milliseconds ms) { time_budget_ = ms; }
  void clear_budgets() {
    conflict_budget_ = -1;
    time_budget_ = std::nullopt;
  }

  /// Suggest an initial polarity for a variable (domain-guided search,
  /// cf. the paper's future-work discussion on heuristic guidance).
  void set_polarity(Var v, bool value);

  /// Restart strategy. kGlucose restarts when the recent learnt-clause LBD
  /// average degrades relative to the lifetime average, with trail-size
  /// blocking; kLuby is the classical Luby sequence; kAlternating (default)
  /// toggles between the two on a doubling conflict schedule - Glucose-style
  /// phases attack UNSAT proofs, Luby "stable" phases dive for models.
  enum class RestartPolicy { kLuby, kGlucose, kAlternating };
  void set_restart_policy(RestartPolicy policy) { restart_policy_ = policy; }

  const Stats& stats() const { return stats_; }
  std::int64_t num_clauses() const { return num_original_clauses_; }
  std::int64_t num_learnts() const;

  /// Learnt-DB occupancy by tier (core / tier2 / local; see arena.h Tier).
  struct TierCounts {
    std::size_t core = 0;
    std::size_t tier2 = 0;
    std::size_t local = 0;
  };
  TierCounts learnt_tiers() const;

  /// Byte-level snapshot of the dominant heap consumers: live clause bytes
  /// inside the arena (split original/learnt), arena capacity and dead
  /// weight awaiting GC, and watch-list capacities. O(clauses + vars);
  /// call at quiescent points, not inside the search loop.
  MemoryStats memory_stats() const;

  /// Compact the clause arena now: copies every live clause into a fresh
  /// arena and rewrites all watcher, reason, and tier-list references.
  /// Runs automatically when enough dead weight accumulates (deleted
  /// learnts, strengthened literals); public for tests and for embedders
  /// that want memory back at a known-quiescent point.
  void garbage_collect();

  /// Inter-restart inprocessing: equivalent-literal substitution (SCC over
  /// the binary implication graph), clause subsumption / self-subsuming
  /// resolution, and clause vivification, each emitting DRAT add/delete
  /// steps so proofs stay checkable. Enabled by default; the
  /// OLSQ2_INPROCESS environment variable (read per solver construction;
  /// "0" disables) or set_inprocessing() override it.
  void set_inprocessing(bool enabled) { inprocess_enabled_ = enabled; }
  bool inprocessing_enabled() const { return inprocess_enabled_; }

  /// Run one inprocessing round immediately (backtracks to decision level
  /// 0 first). Returns okay(): false when a pass derived root UNSAT.
  /// Normally the solve loop schedules rounds on a growing conflict
  /// interval; this entry point exists for tests and offline simplifiers.
  bool inprocess();

  /// Override the inprocessing schedule: first round once the lifetime
  /// conflict count reaches `first_conflicts`, then every `interval`
  /// conflicts (the interval doubles per round). Tests and the fuzz
  /// differential oracle use this to force rounds early.
  void set_inprocess_schedule(std::uint64_t first_conflicts,
                              std::uint64_t interval) {
    next_inprocess_conflicts_ = first_conflicts;
    inprocess_interval_ = interval == 0 ? 1 : interval;
  }

  /// Per-round work budget in "ticks" (one tick ~ one propagation step or
  /// one subsumption candidate test); passes stop cleanly when spent.
  void set_inprocess_budget(std::uint64_t ticks) { inprocess_budget_ = ticks; }

  /// Periodic progress reporting: `callback` is invoked from inside solve()
  /// roughly every `interval_conflicts` conflicts with a Stats snapshot.
  /// Long bound-search solves are impossible to tune blind; this is the
  /// hook progress bars, watchdogs, and the tracing layer build on. Pass an
  /// empty function to detach. The callback runs on the solving thread and
  /// must not call back into the solver.
  using ProgressCallback = std::function<void(const Stats&)>;
  void set_progress_callback(ProgressCallback callback,
                             std::uint64_t interval_conflicts = 4096) {
    progress_cb_ = std::move(callback);
    progress_interval_ = interval_conflicts == 0 ? 1 : interval_conflicts;
  }

  /// Record every clause passed to add_clause (pre-normalization) for later
  /// DIMACS export. Must be enabled before the clauses of interest arrive.
  void set_clause_log(bool enabled) { clause_log_enabled_ = enabled; }
  const std::vector<Clause>& clause_log() const { return clause_log_; }

  /// After solve() returned kFalse under assumptions: a subset of those
  /// assumptions sufficient for unsatisfiability (the assumption core).
  /// Empty when the formula is UNSAT regardless of assumptions.
  const std::vector<Lit>& conflict_core() const { return conflict_core_; }

  /// Attach a DRAT proof log (learnt clauses, deletions, inprocessing
  /// rewrites, and the empty clause on root UNSAT are recorded). Enable
  /// before adding clauses so normalization steps are covered; pass
  /// nullptr to detach.
  void set_proof(Proof* proof) { proof_ = proof; }

  /// Deep structural self-check of the solver state: watch-list integrity
  /// (every stored clause watched exactly twice, on its first two literals,
  /// with watcher blockers drawn from the clause; a false watched literal
  /// only with the clause otherwise satisfied at an earlier level),
  /// trail/level consistency, reason-clause sanity, learnt-tier/header
  /// agreement, and arena accounting. Returns true when consistent; on
  /// failure returns false and appends descriptions to `errors` (when
  /// non-null). Safe to call at any quiescent point.
  bool check_invariants(std::vector<std::string>* errors = nullptr) const;

  /// Opt-in continuous auditing: when enabled, check_invariants() runs at
  /// solve entry/exit, every restart, and sampled decision/backtrack
  /// boundaries; a violation throws std::logic_error. Defaults on when the
  /// OLSQ2_CHECK_INVARIANTS environment variable is set (non-empty, not
  /// "0") or the OLSQ2_CHECK_INVARIANTS CMake option baked it in.
  void set_check_invariants(bool enabled) {
    check_invariants_enabled_ = enabled;
  }
  bool checking_invariants() const { return check_invariants_enabled_; }

 private:
  struct Watcher {
    CRef cref;
    Lit blocker;
  };
  static_assert(sizeof(Watcher) == 8, "watchers are the propagation hot path");

  // Tier thresholds: learnt LBD <= kCoreLbd lands in core, <= kTier2Lbd in
  // tier2, the rest in the high-churn local pool.
  static constexpr unsigned kCoreLbd = 3;
  static constexpr unsigned kTier2Lbd = 6;
  static Tier tier_for_lbd(unsigned lbd) {
    if (lbd <= kCoreLbd) return Tier::kCore;
    if (lbd <= kTier2Lbd) return Tier::kTier2;
    return Tier::kLocal;
  }
  std::vector<CRef>& tier_list(Tier t) {
    return t == Tier::kCore    ? learnts_core_
           : t == Tier::kTier2 ? learnts_tier2_
                               : learnts_local_;
  }

  LBool value(Var v) const { return assigns_[v]; }
  LBool value(Lit l) const { return lit_value(assigns_[l.var()], l.sign()); }
  int level(Var v) const { return levels_[v]; }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  void attach(CRef cr);
  void detach(CRef cr);
  void enqueue(Lit l, CRef reason);
  CRef propagate();
  void analyze(CRef conflict, std::vector<Lit>& out_learnt, int& out_btlevel,
               unsigned& out_lbd);
  bool literal_redundant(Lit l);
  void cancel_until(int level);
  Lit pick_branch_lit();
  void new_decision_level() {
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    if (static_cast<std::uint64_t>(decision_level()) > stats_.max_decision_level) {
      stats_.max_decision_level = static_cast<std::uint64_t>(decision_level());
    }
  }
  LBool search(std::int64_t conflicts_before_restart);
  void reduce_db();
  void var_bump(Var v);
  void var_decay() { var_inc_ *= (1.0 / kVarDecay); }
  void clause_bump(ClauseData& c);
  void clause_decay() { clause_inc_ *= (1.0 / kClauseDecay); }
  unsigned compute_lbd(std::span<const Lit> lits);
  bool budget_exhausted() const;
  void note_learnt_lbd(unsigned lbd);
  void reset_recent_lbds();
  bool glucose_restart_due() const;
  void analyze_final(Lit failed_assumption);
  /// GC helper: rewrite every live reference into `to`.
  void relocate_all(ClauseArena& to);
  void maybe_collect_garbage() {
    if (arena_.should_collect()) garbage_collect();
  }
  /// Invariant-auditing hook: no-op unless enabled; throws std::logic_error
  /// (tagged with `where`) when a check fails.
  void audit_invariants(const char* where) const;

  // Inprocessing passes (inprocess.cpp). Each draws down `ticks` and stops
  // cleanly at zero; each returns ok_ (false = derived root UNSAT).
  bool inprocess_equiv(std::uint64_t& ticks);
  bool inprocess_subsume(std::uint64_t& ticks);
  bool inprocess_vivify(std::uint64_t& ticks);
  /// Delete an attached clause: DRAT delete, detach, arena free. The
  /// caller owns removing `cr` from its containing list.
  void drop_clause(CRef cr);
  /// Root-level unit derived by an inprocessing rewrite: DRAT-logged by
  /// the caller; enqueues and propagates. Returns ok_.
  bool assert_root_unit(Lit l);

  static constexpr double kVarDecay = 0.95;
  static constexpr double kClauseDecay = 0.999;
  static constexpr double kRescaleLimit = 1e100;

  bool ok_ = true;

  // Per-variable state.
  std::vector<LBool> assigns_;
  std::vector<int> levels_;
  std::vector<CRef> reasons_;
  std::vector<double> activity_;
  std::vector<bool> polarity_;   // saved phase; next decision uses this sign
  std::vector<std::uint8_t> seen_;

  // Clause storage: all clauses live in the arena; these lists hold the
  // references. Learnts are split into three quality tiers (arena.h Tier).
  ClauseArena arena_;
  std::vector<CRef> clauses_;
  std::vector<CRef> learnts_core_;
  std::vector<CRef> learnts_tier2_;
  std::vector<CRef> learnts_local_;
  std::int64_t num_original_clauses_ = 0;

  // Watch lists, indexed by literal code: clauses watching ~l. Binary
  // clauses live in their own lists (`blocker` is the other literal), so
  // propagation over them never loads the clause body - only a conflict or
  // an implication touches the arena.
  std::vector<std::vector<Watcher>> watches_;
  std::vector<std::vector<Watcher>> watches_bin_;

  // Assignment trail.
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;

  // Heuristics.
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  ActivityHeap order_heap_{activity_};

  // Learnt DB sizing.
  double max_learnts_factor_ = 1.0 / 3.0;
  double learnt_size_inc_ = 1.1;
  double max_learnts_ = 0;

  // Glucose-style restart state.
  RestartPolicy restart_policy_ = RestartPolicy::kAlternating;
  RestartPolicy effective_policy_ = RestartPolicy::kGlucose;  // current mode
  std::uint64_t next_mode_switch_ = 4000;   // conflict count of next toggle
  std::uint64_t mode_interval_ = 4000;
  static constexpr std::size_t kLbdWindow = 50;
  static constexpr std::size_t kTrailWindow = 5000;
  static constexpr double kRestartK = 0.8;
  static constexpr double kBlockR = 1.4;
  std::vector<std::uint32_t> lbd_mark_;   // per-level stamp for compute_lbd
  std::uint32_t lbd_stamp_ = 0;
  std::vector<unsigned> recent_lbds_;     // ring buffer of last learnt LBDs
  std::size_t recent_lbd_pos_ = 0;
  std::uint64_t recent_lbd_sum_ = 0;
  bool recent_lbd_full_ = false;
  double lifetime_lbd_sum_ = 0;
  std::uint64_t trail_size_sum_ = 0;      // running average of trail sizes
  std::uint64_t trail_size_count_ = 0;
  // Glucose-style clause DB reduction schedule.
  std::uint64_t next_reduce_conflicts_ = 2000;
  std::uint64_t reduce_rounds_ = 0;

  // Inprocessing schedule and state. The first round waits until the search
  // has produced a meaningful learnt DB; intervals then double so long runs
  // see a handful of rounds, not a steady tax.
  bool inprocess_enabled_ = true;
  std::uint64_t next_inprocess_conflicts_ = 10000;
  std::uint64_t inprocess_interval_ = 10000;
  std::uint64_t inprocess_budget_ = 500'000;
  /// Variables retired by equivalent-literal substitution. Substituted
  /// variables stay linked to their representative through two permanent
  /// "definition binaries" (v -> r, r -> v), so models, assumptions, and
  /// cores need no reconstruction map; the flag only keeps later rounds
  /// from re-deriving the same equivalence.
  std::vector<std::uint8_t> substituted_;
  /// Literal-code -> representative literal map for substitution rounds
  /// (identity for untouched literals).
  std::vector<Lit> subst_map_;

  // Budgets (per solve call).
  std::int64_t conflict_budget_ = -1;
  std::int64_t conflicts_at_solve_start_ = 0;
  std::optional<std::chrono::milliseconds> time_budget_;
  std::chrono::steady_clock::time_point solve_start_;

  std::atomic<bool> interrupted_{false};
  const std::atomic<bool>* external_interrupt_ = nullptr;

  std::vector<Lit> assumptions_;
  std::vector<LBool> model_;
  std::vector<Lit> analyze_stack_;  // scratch for minimization
  bool clause_log_enabled_ = false;
  bool check_invariants_enabled_ = false;
  std::vector<Clause> clause_log_;
  std::vector<Lit> conflict_core_;
  Proof* proof_ = nullptr;

  // Progress reporting + tracing. trace_live_ caches the tracer's enabled
  // flag at solve() entry so the conflict loop never touches an atomic.
  ProgressCallback progress_cb_;
  std::uint64_t progress_interval_ = 4096;
  std::uint64_t next_progress_conflicts_ = 0;
  bool trace_live_ = false;
  std::int64_t propagate_ns_ = 0;  // time inside propagate() while tracing

  Stats stats_;
};

}  // namespace olsq2::sat
