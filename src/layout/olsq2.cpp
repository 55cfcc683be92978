#include "layout/olsq2.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "layout/search.h"
#include "layout/tb.h"
#include "obs/obs.h"

namespace olsq2::layout {

namespace {

/// The geometric relaxation step (paper §III-B1), capped at `t_ub` until it
/// gets there; past an UNSAT `t_ub` it goes on uncapped.
int next_relaxed_bound(int t_b, int t_ub, const OptimizerOptions& options) {
  const double r = t_b < 100 ? options.relax_small : options.relax_large;
  const int next = std::max(t_b + 1, static_cast<int>(std::ceil(r * t_b)));
  return t_b < t_ub ? std::min(next, t_ub) : next;
}

/// Build a Model wired for this optimizer run: restart policy, then every
/// bound literal materialized up front.
std::unique_ptr<Model> make_configured_model(const Problem& problem, int t_ub,
                                             const EncodingConfig& config,
                                             const OptimizerOptions& options,
                                             bool with_swaps) {
  auto model = std::make_unique<Model>(problem, t_ub, config);
  model->solver().set_restart_policy(options.restart_policy);
  model->materialize_bounds(with_swaps);
  return model;
}

/// One depth search's state: no schedule has depth <= `refuted`, and
/// `best`, once solved, is the incumbent. The search is done when the
/// incumbent's depth is refuted + 1.
struct DepthInterval {
  int refuted;
  Result best;                   // solved=false until the first SAT
  std::unique_ptr<Model> model;  // model in which `best` was found

  bool closed() const { return best.solved && best.depth - 1 <= refuted; }

  /// Adopt a shared fact that refutes more than this run has, recording
  /// the bound it decides as pruned. The run publishes its own refutations
  /// as it proves them, so those never count as a peer's.
  void narrow_by_peers(const FactHub& facts, Result& diag) {
    if (facts.depth_unsat_max() <= refuted) return;
    refuted = facts.depth_unsat_max();
    record_pruned(diag, refuted, -1, PruneReason::kPeer);
  }
};

/// Shared depth-optimization phase; also the first stage of the SWAP sweep.
/// Every model is built at the horizon of the bound it answers, since a
/// schedule of depth <= t_b fits in horizon t_b.
DepthInterval run_depth_phase(const Problem& problem,
                              const EncodingConfig& config,
                              const OptimizerOptions& options,
                              const Deadline& deadline, Result& diag,
                              bool with_swaps) {
  obs::Span phase_span("olsq2.depth_phase");
  const circuit::DependencyGraph deps(*problem.circuit);
  const int t_lb = deps.longest_chain();
  const int t_ub = deps.default_upper_bound();
  const FactHub facts{options.facts};

  DepthInterval out{t_lb - 1, {}, nullptr};
  const int calls_before = diag.sat_calls;
  int relax_calls = 0;
  // Relax geometrically from T_LB (or from a peer's refutation) until the
  // first SAT, never past a bound a peer proved satisfiable. Then bisect
  // (refuted, incumbent] incrementally on the first SAT model, unless the
  // options ask for a fresh model per bound.
  while (!deadline.expired()) {
    out.narrow_by_peers(facts, diag);
    if (out.closed()) break;
    int t_b = out.refuted + 1;
    if (out.best.solved) {
      t_b = out.refuted + (out.best.depth - out.refuted) / 2;
    } else {
      if (t_b > t_lb) t_b = next_relaxed_bound(out.refuted, t_ub, options);
      t_b = std::min(t_b, std::max(facts.depth_sat_min(), out.refuted + 1));
      ++relax_calls;
    }
    std::unique_ptr<Model> fresh =
        out.best.solved && options.incremental
            ? nullptr
            : make_configured_model(problem, t_b, config, options, with_swaps);
    Model& current = fresh ? *fresh : *out.model;
    const sat::LBool status =
        solve_call(SearchEngine::kTimeResolved, current.solver(),
                   {current.depth_bound(t_b)}, t_b, -1, deadline, diag);
    if (status == sat::LBool::kUndef) break;
    if (status == sat::LBool::kFalse) {
      out.refuted = t_b;
      facts.note_depth_unsat(t_b);
      continue;
    }
    out.best = current.extract();
    facts.note_depth_sat(out.best.depth);
    if (fresh) out.model = std::move(fresh);
  }
  phase_span.arg("t_lb", t_lb);
  phase_span.arg("refuted", out.refuted);
  phase_span.arg("incumbent", out.best.solved ? out.best.depth : -1);
  phase_span.arg("relax_calls", relax_calls);
  phase_span.arg("bisect_calls", diag.sat_calls - calls_before - relax_calls);
  return out;
}

}  // namespace

Result synthesize_depth_optimal(const Problem& problem,
                                const EncodingConfig& config,
                                const OptimizerOptions& options) {
  obs::Span span("olsq2.depth_optimal");
  const Deadline deadline(options.time_budget_ms, options.cancel);
  Result diag;
  Result result = run_depth_phase(problem, config, options, deadline, diag,
                                  /*with_swaps=*/false)
                      .best;
  finish(result, diag, deadline);
  return result;
}

Result synthesize_swap_optimal(const Problem& problem,
                               const EncodingConfig& config,
                               const OptimizerOptions& options) {
  obs::Span span("olsq2.swap_optimal");
  const Deadline deadline(options.time_budget_ms, options.cancel);
  Result diag;
  DepthInterval outcome = run_depth_phase(problem, config, options, deadline,
                                          diag, /*with_swaps=*/true);
  if (!outcome.best.solved) {
    finish(outcome.best, diag, deadline);
    return outcome.best;
  }

  // Relaxing past the model's horizon regenerates it at exactly the bound
  // asked for; depth_bound(horizon()) is already the true literal.
  std::unique_ptr<Model> model = std::move(outcome.model);
  const ModelAt model_at = [&](int depth_bound) -> Model& {
    if (depth_bound > model->horizon()) {
      model = make_configured_model(problem, depth_bound, config, options,
                                    /*with_swaps=*/true);
    }
    return *model;
  };
  // The SWAP floor's probes solve the TB relaxation in models of their own.
  const FloorProbe floor_probe = [&](int swaps) {
    return tb_floor_probe(problem, swaps, config, deadline, diag);
  };
  Result best = sweep_swaps(*model, model_at, outcome.best,
                            outcome.best.depth, FactHub{options.facts},
                            floor_probe, deadline, diag);
  finish(best, diag, deadline);
  return best;
}

Result solve_fixed(const Problem& problem, int t_ub, int swap_bound,
                   const EncodingConfig& config, const Deadline& deadline) {
  obs::Span span("olsq2.solve_fixed");
  span.arg("t_ub", t_ub);
  Result diag;
  Result result;
  decide_fixed(SearchEngine::kTimeResolved, problem, t_ub, swap_bound, config,
               deadline, diag, &result);
  finish(result, diag, deadline);
  return result;
}

}  // namespace olsq2::layout
