#include "layout/windowed.h"

#include <algorithm>
#include <memory>

#include "circuit/dependency.h"
#include "layout/search.h"
#include "layout/tb.h"
#include "obs/obs.h"

namespace olsq2::layout {

WindowedResult synthesize_windowed_swap(const Problem& problem,
                                        const WindowedOptions& options,
                                        const EncodingConfig& config) {
  obs::Span top_span("windowed.swap");
  const Deadline deadline(options.time_budget_ms);

  WindowedResult result;
  // Budget exhaustion returns what is finished so far.
  const auto out_of_budget = [&] {
    result.hit_budget = true;
    result.wall_ms = deadline.elapsed_ms();
    return result;
  };
  const circuit::Circuit& circ = *problem.circuit;
  const circuit::DependencyGraph deps(circ);

  // Split dependency layers into windows of ~gates_per_window gates.
  std::vector<circuit::Circuit> windows;
  {
    circuit::Circuit current(circ.num_qubits(), circ.name() + "_win");
    for (const auto& layer : deps.asap_layers()) {
      if (current.num_gates() > 0 &&
          current.num_gates() + static_cast<int>(layer.size()) >
              options.gates_per_window) {
        windows.push_back(std::move(current));
        current = circuit::Circuit(circ.num_qubits(), circ.name() + "_win");
      }
      for (const int g : layer) {
        const circuit::Gate& gate = circ.gate(g);
        if (gate.is_two_qubit()) {
          current.add_gate(gate.name, gate.q0, gate.q1, gate.params);
        } else {
          current.add_gate(gate.name, gate.q0, gate.params);
        }
      }
    }
    if (current.num_gates() > 0) windows.push_back(std::move(current));
  }
  result.window_count = static_cast<int>(windows.size());
  if (windows.empty()) {
    result.solved = true;
    return result;
  }

  top_span.arg("windows", result.window_count);

  std::vector<int> mapping;  // exit mapping of the previous window
  int window_index = 0;
  for (const circuit::Circuit& window : windows) {
    obs::Span window_span("windowed.window");
    window_span.arg("index", window_index++);
    window_span.arg("gates", window.num_gates());
    if (deadline.expired()) return out_of_budget();
    const Problem sub{&window, problem.device, problem.swap_duration};

    // Block phase: smallest satisfiable block count with the pinned entry.
    std::unique_ptr<TbModel> model;
    int model_blocks = 0;  // capacity of the current model
    int blocks = 1;
    Result best;
    while (true) {
      if (deadline.expired()) return out_of_budget();
      if (model == nullptr || blocks > model_blocks) {
        model_blocks = std::max(blocks, std::max(4, 2 * model_blocks));
        model = std::make_unique<TbModel>(sub, model_blocks, config);
        if (!mapping.empty()) model->pin_initial_mapping(mapping);
      }
      deadline.arm(model->solver());
      sat::LBool status;
      {
        obs::Span span("windowed.solve");
        span.arg("block_bound", blocks);
        status =
            model->solver().solve(std::vector<Lit>{model->block_bound(blocks)});
        span.arg("result", status == sat::LBool::kTrue    ? "sat"
                           : status == sat::LBool::kFalse ? "unsat"
                                                          : "unknown");
      }
      if (status == sat::LBool::kUndef) return out_of_budget();
      if (status == sat::LBool::kTrue) {
        best = model->extract();
        break;
      }
      blocks++;
    }

    // Swap descent at this block count.
    int incumbent = best.swap_count;
    while (incumbent > 0 && !deadline.expired()) {
      obs::Span span("windowed.solve");
      span.arg("block_bound", blocks);
      span.arg("swap_bound", incumbent - 1);
      const sat::LBool status = model->solver().solve(std::vector<Lit>{
          model->block_bound(blocks), model->swap_bound(incumbent - 1)});
      span.arg("result", status == sat::LBool::kTrue ? "sat" : "non-sat");
      if (status != sat::LBool::kTrue) break;
      const Result candidate = model->extract();
      if (candidate.swap_count < best.swap_count) best = candidate;
      incumbent = std::min(incumbent - 1, candidate.swap_count);
    }

    result.window_mappings.push_back(best.mapping.front());
    result.swap_count += best.swap_count;
    mapping = best.mapping.back();
  }

  result.final_mapping = mapping;
  result.solved = true;
  result.wall_ms = deadline.elapsed_ms();
  return result;
}

}  // namespace olsq2::layout
