#include "layout/certify.h"

#include "layout/model.h"
#include "layout/search.h"
#include "sat/drat_check.h"

namespace olsq2::layout {

namespace {

Certificate run_certification(Model& model, sat::Proof& proof,
                              const Deadline& deadline) {
  Certificate cert;
  deadline.arm(model.solver());
  const sat::LBool status = model.solver().solve();
  cert.infeasible = status == sat::LBool::kFalse;
  cert.proof_steps = proof.size();
  if (cert.infeasible) {
    const sat::DratCheckResult check =
        sat::check_drat(model.solver().clause_log(), proof);
    cert.proof_checked = check.all_steps_valid;
    cert.refutation_complete = check.proves_unsat;
  }
  cert.wall_ms = deadline.elapsed_ms();
  return cert;
}

}  // namespace

Certificate certify_depth_lower_bound(const Problem& problem, int t_ub,
                                      int depth_bound,
                                      const EncodingConfig& config,
                                      double time_budget_ms) {
  const Deadline deadline(time_budget_ms);
  Certificate cert;
  if (depth_bound >= t_ub) return cert;  // bound vacuous within this horizon
  sat::Proof proof;
  Model model(problem, t_ub, config, &proof, /*log_clauses=*/true);
  model.solver().add_clause({model.depth_bound(depth_bound)});
  return run_certification(model, proof, deadline);
}

Certificate certify_swap_lower_bound(const Problem& problem, int t_ub,
                                     int swap_bound,
                                     const EncodingConfig& config,
                                     double time_budget_ms) {
  const Deadline deadline(time_budget_ms);
  sat::Proof proof;
  Model model(problem, t_ub, config, &proof, /*log_clauses=*/true);
  model.assert_swap_bound_hard(swap_bound, config.cardinality);
  return run_certification(model, proof, deadline);
}

}  // namespace olsq2::layout
