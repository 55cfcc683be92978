#include "layout/search.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <utility>

#include "layout/model.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace olsq2::layout {

namespace {

using Clock = std::chrono::steady_clock;

struct EngineNames {
  const char* solve_span;
  const char* sweep_span;
  const char* bound_key;
  const char* label;
};

const EngineNames& names(SearchEngine engine) {
  static constexpr EngineNames kNames[] = {
      {"olsq2.solve", "olsq2.swap_sweep", "depth_bound", "time-resolved"},
      {"tb.solve", "tb.swap_sweep", "block_bound", "transition-based"}};
  return kNames[static_cast<int>(engine)];
}

// Fault injection for the fuzzing harness (src/fuzz/): when
// OLSQ2_FUZZ_INJECT_FLOOR_BUG is set, every raise of the SWAP floor
// overshoots by one, so the sweep prunes a call nothing proved UNSAT.
// check_engine_differential's floor oracle must catch it (olsq2_fuzz
// --inject-floor-bug). Read per sweep, so a test can toggle it.
int floor_bug() {
  const char* v = std::getenv("OLSQ2_FUZZ_INJECT_FLOOR_BUG");
  return v != nullptr && v[0] != '\0' && v[0] != '0' ? 1 : 0;
}

/// Counts below `value` are proven infeasible at every horizon.
struct SwapFloor {
  int value = 0;
  bool exact = false;  // a floor probe found `value` itself feasible
  int bug = floor_bug();

  void raise_to(int proven_infeasible_below) {
    value = std::max(value, proven_infeasible_below + bug);
  }
};

/// Probe k = floor.value, floor.value+1, ... until a probe is SAT or the
/// floor passes `target`. Returns false when a probe ran out of budget.
bool raise_floor(const FloorProbe& probe, int target, SwapFloor& floor) {
  while (floor.value <= target) {
    const int k = floor.value;
    const sat::LBool status = probe(k);
    if (status == sat::LBool::kUndef) return false;
    if (status == sat::LBool::kTrue) {
      floor.exact = true;
      return true;
    }
    floor.raise_to(k + 1);
  }
  return true;
}

}  // namespace

Deadline::Deadline(double budget_ms, const std::atomic<bool>* cancel)
    : start_(Clock::now()), budget_ms_(budget_ms), cancel_(cancel) {}

double Deadline::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - start_)
      .count();
}

double Deadline::remaining_ms() const {
  if (budget_ms_ <= 0) return std::numeric_limits<double>::infinity();
  return std::max(0.0, budget_ms_ - elapsed_ms());
}

bool Deadline::expired() const {
  return budget_ms_ > 0 && elapsed_ms() >= budget_ms_;
}

bool Deadline::cancelled() const {
  return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
}

void Deadline::arm(sat::Solver& solver) const {
  solver.clear_budgets();
  if (budget_ms_ > 0) {
    solver.set_time_budget(std::chrono::milliseconds(
        static_cast<std::int64_t>(std::max(1.0, remaining_ms()))));
  }
  solver.set_external_interrupt(cancel_);
}

void BoundFacts::begin_problem(const std::string& key) {
  if (problem_key_ == key) return;
  problem_key_ = key;
  depth_unsat_max_ = -1;
  depth_sat_min_ = std::numeric_limits<int>::max();
  swap_unsat_.clear();
}

void BoundFacts::note_depth_unsat(int depth) {
  if (depth <= depth_unsat_max_) return;
  depth_unsat_max_ = depth;
  ++traffic_.bound_facts;
}

void BoundFacts::note_depth_sat(int depth) {
  if (depth >= depth_sat_min_) return;
  depth_sat_min_ = depth;
  ++traffic_.bound_facts;
}

void BoundFacts::note_swap_unsat(int depth, int swaps) {
  // (d, k) refutes every (d' <= d, k' <= k), so a fact with both
  // coordinates <= another's adds nothing.
  if (swap_known_unsat(depth, swaps)) return;
  std::erase_if(swap_unsat_, [&](const std::pair<int, int>& f) {
    return f.first <= depth && f.second <= swaps;
  });
  swap_unsat_.emplace_back(depth, swaps);
  ++traffic_.bound_facts;
}

bool BoundFacts::swap_known_unsat(int depth, int swaps) const {
  for (const auto& [d, k] : swap_unsat_) {
    if (d >= depth && k >= swaps) return true;
  }
  return false;
}

int FactHub::depth_unsat_max() const {
  return facts ? facts->depth_unsat_max() : -1;
}
int FactHub::depth_sat_min() const {
  return facts ? facts->depth_sat_min() : std::numeric_limits<int>::max();
}
void FactHub::note_depth_unsat(int d) const {
  if (facts) facts->note_depth_unsat(d);
}
void FactHub::note_depth_sat(int d) const {
  if (facts) facts->note_depth_sat(d);
}
void FactHub::note_swap_unsat(int d, int k) const {
  if (facts) facts->note_swap_unsat(d, k);
}
bool FactHub::swap_known_unsat(int d, int k) const {
  return facts && facts->swap_known_unsat(d, k);
}

sat::LBool solve_call(SearchEngine engine, sat::Solver& solver,
                      const std::vector<Lit>& assumptions, int bound,
                      int swap_bound, const Deadline& deadline, Result& diag) {
  const EngineNames& n = names(engine);
  obs::Span span(n.solve_span);
  const double start_ms = deadline.elapsed_ms();
  const sat::Stats before = solver.stats();
  deadline.arm(solver);
  const sat::LBool status = solver.solve(assumptions);
  const sat::Stats delta = solver.stats() - before;

  SolveCall call;
  call.depth_bound = bound;
  call.swap_bound = swap_bound;
  call.status = status == sat::LBool::kTrue    ? 'S'
                : status == sat::LBool::kFalse ? 'U'
                                               : '?';
  call.conflicts = delta.conflicts;
  call.propagations = delta.propagations;
  call.decisions = delta.decisions;
  call.wall_ms = deadline.elapsed_ms() - start_ms;
  if (span.live()) {
    span.arg(n.bound_key, bound);
    span.arg("swap_bound", swap_bound);
    span.arg("result", status == sat::LBool::kTrue    ? "sat"
                       : status == sat::LBool::kFalse ? "unsat"
                                                      : "unknown");
    span.arg("conflicts", delta.conflicts);
    span.arg("propagations", delta.propagations);
    span.arg("wall_ms", call.wall_ms);
  }

  diag.sat_calls++;
  diag.conflicts += delta.conflicts;
  diag.calls.push_back(call);
  if (status == sat::LBool::kUndef) diag.hit_budget = true;
  if (obs::metrics::enabled()) {
    obs::metrics::Registry& registry = obs::metrics::Registry::instance();
    const obs::metrics::Labels labels{{"engine", n.label}};
    registry
        .histogram("layout_solve_call_duration_ms",
                   "Wall time of each incremental SAT call in the optimizer "
                   "loop",
                   labels)
        .observe(call.wall_ms);
    registry
        .counter("layout_sat_calls_total",
                 "Incremental SAT calls issued by optimizers", labels)
        .inc();
  }
  return status;
}

sat::LBool decide_fixed(SearchEngine engine, const Problem& problem,
                        int horizon, int swap_bound,
                        const EncodingConfig& config, const Deadline& deadline,
                        Result& diag, Result* solution) {
  if (deadline.expired()) return sat::LBool::kUndef;
  Model model(engine, problem, horizon, config);
  if (swap_bound >= 0) {
    model.assert_swap_bound_hard(swap_bound, config.cardinality);
  }
  const sat::LBool status = solve_call(engine, model.solver(), {},
                                       /*bound=*/-1, swap_bound, deadline,
                                       diag);
  if (status == sat::LBool::kTrue && solution != nullptr) {
    *solution = model.extract();
  }
  return status;
}

void record_pruned(Result& diag, int bound, int swap_bound,
                   PruneReason reason) {
  SolveCall call;
  call.depth_bound = bound;
  call.swap_bound = swap_bound;
  call.status = 'P';
  diag.calls.push_back(call);
  const bool by_peer = reason == PruneReason::kPeer;
  if (obs::Trace::instance().enabled()) {
    obs::instant("olsq2.bound_pruned",
                 {{"reason", by_peer ? "peer" : "swap_floor", /*quoted=*/true}});
  }
  if (obs::metrics::enabled()) {
    const auto pruned = [](const char* why) -> obs::metrics::Counter& {
      return obs::metrics::Registry::instance().counter(
          "layout_pruned_probes_total",
          "SAT calls skipped because their answer was already proven, by a "
          "peer's shared bound fact or the SWAP floor",
          {{"reason", why}});
    };
    static obs::metrics::Counter& peer = pruned("peer");
    static obs::metrics::Counter& swap_floor = pruned("swap_floor");
    (by_peer ? peer : swap_floor).inc();
  }
}

Result sweep_swaps(Model& model, const ModelAt& model_at, Result best,
                   int bound, const FactHub& facts,
                   const FloorProbe& floor_probe, const Deadline& deadline,
                   Result& diag) {
  const SearchEngine engine = model.engine();
  Model* current = &model;
  std::vector<std::pair<int, int>> pareto;
  int prev_bound_swaps = -1;
  SwapFloor floor;

  while (true) {
    // Iterative descent on the SWAP bound at this horizon: start from the
    // incumbent's count and tighten by one.
    obs::Span sweep_span(names(engine).sweep_span);
    sweep_span.arg(names(engine).bound_key, bound);
    int incumbent = best.swap_count;
    while (incumbent > 0) {
      if (deadline.expired()) break;
      const int target = incumbent - 1;
      // A peer proved (horizon <= bound, swaps <= target) empty; our query
      // is a subset of that region.
      const bool peer_fact = facts.swap_known_unsat(bound, target);
      if (!peer_fact && floor_probe && !floor.exact &&
          target >= floor.value && !raise_floor(floor_probe, target, floor)) {
        break;
      }
      if (target < floor.value || peer_fact) {
        record_pruned(diag, bound, target,
                      target < floor.value ? PruneReason::kSwapFloor
                                           : PruneReason::kPeer);
        break;
      }
      if (current == nullptr) current = &model_at(bound);
      const std::vector<Lit> assumptions = {current->depth_bound(bound),
                                            current->swap_bound(target)};
      const sat::LBool status = solve_call(engine, current->solver(),
                                           assumptions, bound, target,
                                           deadline, diag);
      if (status == sat::LBool::kFalse) {
        facts.note_swap_unsat(bound, target);
        // TB block saturation: a TB solution with <= target SWAPs has at
        // most target non-empty transitions, so it fits in target+1 <= bound
        // blocks, and this UNSAT holds at every horizon.
        if (engine == SearchEngine::kTransitionBased && target < bound) {
          floor.raise_to(target + 1);
        }
      }
      if (status != sat::LBool::kTrue) break;
      Result candidate = current->extract();
      if (candidate.swap_count < best.swap_count ||
          (candidate.swap_count == best.swap_count &&
           candidate.depth < best.depth)) {
        best = candidate;
      }
      incumbent = std::min(target, candidate.swap_count);
    }
    pareto.emplace_back(bound, best.swap_count);
    if (sweep_span.live()) {
      sweep_span.arg("swap_floor", floor.value);
      sweep_span.arg("floor_exact", floor.exact);
    }

    // Termination: the optimum cannot improve, the previous relaxation
    // brought no gain (Pareto-terminal, paper condition 2), or the budget
    // is gone.
    if (best.swap_count == 0 || deadline.expired() || diag.hit_budget) break;
    if (prev_bound_swaps >= 0 && best.swap_count >= prev_bound_swaps) break;
    prev_bound_swaps = best.swap_count;
    ++bound;
    current = nullptr;
  }

  best.pareto = std::move(pareto);
  return best;
}

void finish(Result& result, Result& diag, const Deadline& deadline) {
  result.sat_calls = diag.sat_calls;
  result.conflicts = diag.conflicts;
  result.hit_budget = diag.hit_budget || deadline.expired();
  result.wall_ms = deadline.elapsed_ms();
  result.calls = std::move(diag.calls);
}

}  // namespace olsq2::layout
