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

sat::LBool solve_depth(Model& model, int t_b, const Deadline& deadline,
                       Result& diag) {
  return solve_call(SearchEngine::kTimeResolved, model.solver(),
                    {model.depth_bound(t_b)}, t_b, -1, deadline, diag);
}

struct DepthPhaseOutcome {
  std::unique_ptr<Model> model;  // model in which the solution was found
  Result best;                   // solved=false on budget exhaustion
};

/// Shared depth-optimization phase; also the first stage of the SWAP sweep.
/// Every model is built at the horizon of the bound it answers, since a
/// schedule of depth <= t_b fits in horizon t_b.
DepthPhaseOutcome run_depth_phase(const Problem& problem,
                                  const EncodingConfig& config,
                                  const OptimizerOptions& options,
                                  const Deadline& deadline, Result& diag,
                                  bool with_swaps) {
  obs::Span phase_span("olsq2.depth_phase");
  const circuit::DependencyGraph deps(*problem.circuit);
  const int t_lb = deps.longest_chain();
  const int t_ub = deps.default_upper_bound();
  const FactHub facts{options.facts};

  DepthPhaseOutcome out;
  std::unique_ptr<Model> model;
  int t_b = t_lb;

  // Phase 1: geometric relaxation until the first satisfying bound.
  while (true) {
    if (deadline.expired()) return out;
    // Shared facts: skip past bounds another search already refuted, and
    // never relax beyond a bound one already proved satisfiable.
    if (t_b <= facts.depth_unsat_max() && t_b < t_ub) {
      record_pruned(diag, t_b, -1, PruneReason::kPeer);
      t_b = std::min(next_relaxed_bound(facts.depth_unsat_max(), t_ub, options),
                     std::max(facts.depth_sat_min(), t_lb));
      continue;
    }
    const int sat_cap = facts.depth_sat_min();
    if (t_b > sat_cap && sat_cap >= t_lb && sat_cap < t_ub) t_b = sat_cap;
    model = make_configured_model(problem, t_b, config, options, with_swaps);
    const sat::LBool status = solve_depth(*model, t_b, deadline, diag);
    if (status == sat::LBool::kUndef) return out;
    if (status == sat::LBool::kTrue) break;
    facts.note_depth_unsat(t_b);
    t_b = next_relaxed_bound(t_b, t_ub, options);
  }

  out.best = model->extract();
  facts.note_depth_sat(out.best.depth);
  // Phase 2: decrement to the first UNSAT, incrementally on the first SAT
  // model unless the options ask for a fresh model per bound.
  t_b = out.best.depth - 1;
  while (t_b >= t_lb) {
    if (deadline.expired()) break;
    if (t_b <= facts.depth_unsat_max()) {
      // A peer already proved this bound (hence everything below it)
      // unsatisfiable: the incumbent is optimal.
      record_pruned(diag, t_b, -1, PruneReason::kPeer);
      break;
    }
    std::unique_ptr<Model> fresh =
        options.incremental ? nullptr
                            : make_configured_model(problem, t_b, config,
                                                    options, with_swaps);
    Model& current = fresh ? *fresh : *model;
    const sat::LBool status = solve_depth(current, t_b, deadline, diag);
    if (status == sat::LBool::kFalse) facts.note_depth_unsat(t_b);
    if (status != sat::LBool::kTrue) break;
    out.best = current.extract();
    if (fresh) model = std::move(fresh);
    facts.note_depth_sat(out.best.depth);
    t_b = out.best.depth - 1;
  }
  out.model = std::move(model);
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
  DepthPhaseOutcome outcome = run_depth_phase(problem, config, options,
                                              deadline, diag,
                                              /*with_swaps=*/true);
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
