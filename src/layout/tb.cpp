#include "layout/tb.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "layout/model.h"
#include "obs/obs.h"

namespace olsq2::layout {

namespace {

std::unique_ptr<Model> make_tb_model(const Problem& problem, int max_blocks,
                                     const EncodingConfig& config,
                                     const OptimizerOptions& options) {
  auto model = std::make_unique<Model>(SearchEngine::kTransitionBased,
                                       problem, max_blocks, config);
  model->solver().set_restart_policy(options.restart_policy);
  return model;
}

struct TbBlockPhase {
  std::unique_ptr<Model> model;
  Result best;
  int blocks = -1;
};

// Minimize block count: T_B starts at 1 and increments on UNSAT (§III-D).
TbBlockPhase tb_block_phase(const Problem& problem,
                            const EncodingConfig& config,
                            const OptimizerOptions& options,
                            const Deadline& deadline, Result& diag) {
  TbBlockPhase out;
  int max_blocks = 4;
  auto model = make_tb_model(problem, max_blocks, config, options);
  for (int blocks = 1; !deadline.expired(); ++blocks) {
    if (blocks > max_blocks) {
      max_blocks = std::max(blocks, max_blocks * 2);
      model = make_tb_model(problem, max_blocks, config, options);
    }
    const sat::LBool status =
        solve_call(SearchEngine::kTransitionBased, model->solver(),
                   {model->depth_bound(blocks)}, blocks, -1, deadline, diag);
    if (status == sat::LBool::kUndef) return out;
    if (status == sat::LBool::kTrue) {
      out.best = model->extract();
      out.blocks = blocks;
      out.model = std::move(model);
      return out;
    }
  }
  return out;
}

}  // namespace

Result tb_synthesize_block_optimal(const Problem& problem,
                                   const EncodingConfig& config,
                                   const OptimizerOptions& options) {
  obs::Span span("tb.block_optimal");
  const Deadline deadline(options.time_budget_ms, options.cancel);
  Result diag;
  Result result =
      tb_block_phase(problem, config, options, deadline, diag).best;
  finish(result, diag, deadline);
  return result;
}

Result tb_synthesize_swap_optimal(const Problem& problem,
                                  const EncodingConfig& config,
                                  const OptimizerOptions& options) {
  obs::Span span("tb.swap_optimal");
  const Deadline deadline(options.time_budget_ms, options.cancel);
  Result diag;
  TbBlockPhase phase = tb_block_phase(problem, config, options, deadline, diag);
  if (!phase.best.solved) {
    finish(phase.best, diag, deadline);
    return phase.best;
  }

  // Relaxing past the model's capacity regenerates it with exactly the
  // blocks asked for. TB does not read the fact hub: block bounds are not
  // depth bounds, so the shared facts do not apply. Its SWAP floor needs no
  // probe: its own descent UNSATs saturate the blocks (search.h).
  std::unique_ptr<Model> model = std::move(phase.model);
  const ModelAt model_at = [&](int blocks) -> Model& {
    if (blocks > model->horizon()) {
      model = make_tb_model(problem, blocks, config, options);
    }
    return *model;
  };
  Result best = sweep_swaps(*model, model_at, phase.best, phase.blocks,
                            FactHub{}, FloorProbe{}, deadline, diag);
  finish(best, diag, deadline);
  return best;
}

Result tb_solve_fixed(const Problem& problem, int blocks, int swap_bound,
                      const EncodingConfig& config, const Deadline& deadline) {
  Result diag;
  Result result;
  decide_fixed(SearchEngine::kTransitionBased, problem, blocks, swap_bound,
               config, deadline, diag, &result);
  finish(result, diag, deadline);
  return result;
}

sat::LBool tb_floor_probe(const Problem& problem, int swaps,
                          const EncodingConfig& config,
                          const Deadline& deadline, Result& diag) {
  return decide_fixed(SearchEngine::kTransitionBased, problem, swaps + 1,
                      swaps, config, deadline, diag);
}

}  // namespace olsq2::layout
