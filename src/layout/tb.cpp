#include "layout/tb.h"

#include <algorithm>
#include <cassert>

#include "encode/cardinality.h"
#include "obs/obs.h"

namespace olsq2::layout {

TbModel::TbModel(const Problem& problem, int max_blocks,
                 const EncodingConfig& config)
    : problem_(problem),
      circ_(*problem.circuit),
      dev_(*problem.device),
      max_blocks_(max_blocks),
      config_(config),
      builder_(solver_),
      deps_(circ_) {
  if (circ_.num_qubits() > dev_.num_qubits()) {
    throw std::invalid_argument("layout: circuit has more program qubits (" +
                                std::to_string(circ_.num_qubits()) +
                                ") than the device has physical qubits (" +
                                std::to_string(dev_.num_qubits()) + ")");
  }
  assert(max_blocks_ >= 1);
  obs::Span span("tb.encode");
  build_variables();
  build_injectivity();
  build_dependencies();
  build_adjacency();
  build_transitions();
  if (span.live()) {
    span.arg("max_blocks", max_blocks_);
    span.arg("vars", solver_.num_vars());
    span.arg("clauses", static_cast<std::int64_t>(solver_.num_clauses()));
  }

  // Domain-guided phase hints: identity mapping, gates in block 0.
  for (int q = 0; q < circ_.num_qubits(); ++q) {
    for (int k = 0; k < max_blocks_; ++k) pi_[q][k].suggest(solver_, q);
  }
  for (int g = 0; g < circ_.num_gates(); ++g) time_[g].suggest(solver_, 0);
}

void TbModel::build_variables() {
  const int num_q = circ_.num_qubits();
  const int num_p = dev_.num_qubits();
  pi_.resize(num_q);
  for (int q = 0; q < num_q; ++q) {
    for (int k = 0; k < max_blocks_; ++k) {
      pi_[q].push_back(FdVar::make(builder_, num_p, config_.vars));
    }
  }
  time_.reserve(circ_.num_gates());
  for (int g = 0; g < circ_.num_gates(); ++g) {
    time_.push_back(FdVar::make(builder_, max_blocks_, config_.vars));
  }
  sigma_.resize(dev_.num_edges());
  for (int e = 0; e < dev_.num_edges(); ++e) {
    for (int k = 0; k + 1 < max_blocks_; ++k) {
      const Lit l = builder_.new_lit();
      sigma_[e].push_back(l);
      sigma_flat_.push_back(l);
    }
  }
  if (config_.injectivity == InjectivityEncoding::kChanneling) {
    pi_inv_.resize(num_p);
    for (int p = 0; p < num_p; ++p) {
      for (int k = 0; k < max_blocks_; ++k) {
        pi_inv_[p].push_back(FdVar::make(builder_, num_q, config_.vars));
      }
    }
  }
  if (config_.formulation == Formulation::kOlsqBaseline) {
    // TB-OLSQ: per-gate space variables, as in the original formulation.
    space_.reserve(circ_.num_gates());
    for (int g = 0; g < circ_.num_gates(); ++g) {
      const int domain =
          circ_.gate(g).is_two_qubit() ? dev_.num_edges() : dev_.num_qubits();
      space_.push_back(FdVar::make(builder_, domain, config_.vars));
    }
  }
}

void TbModel::build_injectivity() {
  const int num_q = circ_.num_qubits();
  const int num_p = dev_.num_qubits();
  for (int k = 0; k < max_blocks_; ++k) {
    if (config_.injectivity == InjectivityEncoding::kChanneling) {
      for (int q = 0; q < num_q; ++q) {
        for (int p = 0; p < num_p; ++p) {
          builder_.imply(pi_[q][k].eq(builder_, p),
                         pi_inv_[p][k].eq(builder_, q));
        }
      }
    } else if (config_.injectivity == InjectivityEncoding::kAmoPerQubit) {
      for (int p = 0; p < num_p; ++p) {
        std::vector<Lit> occupants;
        occupants.reserve(num_q);
        for (int q = 0; q < num_q; ++q) {
          occupants.push_back(pi_[q][k].eq(builder_, p));
        }
        encode::at_most_one_commander(builder_, occupants);
      }
    } else {
      for (int q = 0; q < num_q; ++q) {
        for (int r = q + 1; r < num_q; ++r) {
          for (int p = 0; p < num_p; ++p) {
            builder_.add({~pi_[q][k].eq(builder_, p), ~pi_[r][k].eq(builder_, p)});
          }
        }
      }
    }
  }
}

void TbModel::build_dependencies() {
  // Dependent gates may share a block (mapping is constant inside one), so
  // ordering weakens to t_g <= t_g' (paper §III-D).
  for (const auto& [earlier, later] : deps_.pairs()) {
    time_[earlier].assert_le(builder_, time_[later]);
  }
}

void TbModel::build_adjacency() {
  const bool baseline = config_.formulation == Formulation::kOlsqBaseline;
  for (int g = 0; g < circ_.num_gates(); ++g) {
    const circuit::Gate& gate = circ_.gate(g);
    if (!gate.is_two_qubit()) {
      if (baseline) {
        // TB-OLSQ consistency for single-qubit gates: x_g tracks pi.
        for (int k = 0; k < max_blocks_; ++k) {
          const Lit at_k = time_[g].eq(builder_, k);
          for (int p = 0; p < dev_.num_qubits(); ++p) {
            builder_.add({~at_k, ~space_[g].eq(builder_, p),
                          pi_[gate.q0][k].eq(builder_, p)});
          }
        }
      }
      continue;
    }
    for (int k = 0; k < max_blocks_; ++k) {
      const Lit at_k = time_[g].eq(builder_, k);
      if (baseline) {
        for (int e = 0; e < dev_.num_edges(); ++e) {
          const device::Edge& edge = dev_.edge(e);
          const Lit a1 = builder_.mk_and(pi_[gate.q0][k].eq(builder_, edge.p0),
                                         pi_[gate.q1][k].eq(builder_, edge.p1));
          const Lit a2 = builder_.mk_and(pi_[gate.q0][k].eq(builder_, edge.p1),
                                         pi_[gate.q1][k].eq(builder_, edge.p0));
          builder_.add({~at_k, ~space_[g].eq(builder_, e),
                        builder_.mk_or({a1, a2})});
        }
        continue;
      }
      std::vector<Lit> arrangements;
      arrangements.reserve(2 * dev_.num_edges());
      for (const device::Edge& e : dev_.edges()) {
        arrangements.push_back(
            builder_.mk_and(pi_[gate.q0][k].eq(builder_, e.p0),
                            pi_[gate.q1][k].eq(builder_, e.p1)));
        arrangements.push_back(
            builder_.mk_and(pi_[gate.q0][k].eq(builder_, e.p1),
                            pi_[gate.q1][k].eq(builder_, e.p0)));
      }
      builder_.imply(at_k, builder_.mk_or(arrangements));
    }
  }
}

void TbModel::build_transitions() {
  const int num_q = circ_.num_qubits();
  const int num_p = dev_.num_qubits();
  for (int k = 0; k + 1 < max_blocks_; ++k) {
    // SWAPs within one transition layer must not share a qubit.
    for (int e = 0; e < dev_.num_edges(); ++e) {
      const device::Edge& edge = dev_.edge(e);
      for (int e2 = e + 1; e2 < dev_.num_edges(); ++e2) {
        const device::Edge& other = dev_.edge(e2);
        if (other.touches(edge.p0) || other.touches(edge.p1)) {
          builder_.add({~sigma_[e][k], ~sigma_[e2][k]});
        }
      }
    }
    // Mapping update across the transition.
    for (int q = 0; q < num_q; ++q) {
      for (int p = 0; p < num_p; ++p) {
        std::vector<Lit> clause;
        clause.push_back(~pi_[q][k].eq(builder_, p));
        for (const int e : dev_.edges_at(p)) clause.push_back(sigma_[e][k]);
        clause.push_back(pi_[q][k + 1].eq(builder_, p));
        builder_.add(std::move(clause));
      }
      for (int e = 0; e < dev_.num_edges(); ++e) {
        const device::Edge& edge = dev_.edge(e);
        builder_.add({~sigma_[e][k], ~pi_[q][k].eq(builder_, edge.p0),
                      pi_[q][k + 1].eq(builder_, edge.p1)});
        builder_.add({~sigma_[e][k], ~pi_[q][k].eq(builder_, edge.p1),
                      pi_[q][k + 1].eq(builder_, edge.p0)});
      }
    }
  }
}

Lit TbModel::block_bound(int blocks) {
  assert(blocks >= 1);
  if (blocks >= max_blocks_) return builder_.true_lit();
  if (auto it = block_bound_cache_.find(blocks); it != block_bound_cache_.end()) {
    return it->second;
  }
  std::vector<Lit> bounds;
  bounds.reserve(time_.size());
  for (const FdVar& tg : time_) bounds.push_back(tg.le(builder_, blocks - 1));
  // Unused transition layers must stay SWAP-free so the block bound also
  // caps where SWAPs may appear.
  for (int e = 0; e < dev_.num_edges(); ++e) {
    for (int k = blocks - 1; k + 1 < max_blocks_; ++k) {
      bounds.push_back(~sigma_[e][k]);
    }
  }
  const Lit lit = builder_.mk_and(bounds);
  block_bound_cache_.emplace(blocks, lit);
  return lit;
}

Lit TbModel::swap_bound(int s_b) {
  if (swap_totalizer_ == nullptr) {
    swap_totalizer_ = std::make_unique<encode::Totalizer>(builder_, sigma_flat_);
  }
  return swap_totalizer_->bound_leq(builder_, s_b);
}

void TbModel::assert_swap_bound_hard(int s_b, CardEncoding encoding) {
  switch (encoding) {
    case CardEncoding::kSeqCounter:
      encode::at_most_k_seqcounter(builder_, sigma_flat_, s_b);
      break;
    case CardEncoding::kAdder:
      encode::at_most_k_adder(builder_, sigma_flat_, s_b);
      break;
    case CardEncoding::kTotalizer:
      swap_bound(s_b);
      swap_totalizer_->assert_leq(builder_, s_b);
      break;
  }
}

Result TbModel::extract() const {
  obs::Span span("tb.decode");
  Result r;
  r.solved = true;
  r.transition_based = true;
  r.gate_time.resize(circ_.num_gates());
  int blocks = 1;
  for (int g = 0; g < circ_.num_gates(); ++g) {
    r.gate_time[g] = time_[g].decode(solver_);
    blocks = std::max(blocks, r.gate_time[g] + 1);
  }
  r.depth = blocks;
  r.mapping.assign(blocks, std::vector<int>(circ_.num_qubits()));
  for (int k = 0; k < blocks; ++k) {
    for (int q = 0; q < circ_.num_qubits(); ++q) {
      r.mapping[k][q] = pi_[q][k].decode(solver_);
    }
  }
  for (int e = 0; e < dev_.num_edges(); ++e) {
    for (int k = 0; k + 1 < blocks; ++k) {
      if (solver_.model_bool(sigma_[e][k])) r.swaps.push_back({e, k});
    }
  }
  r.swap_count = static_cast<int>(r.swaps.size());
  return r;
}

namespace {

std::unique_ptr<TbModel> make_tb_model(const Problem& problem, int max_blocks,
                                       const EncodingConfig& config,
                                       const OptimizerOptions& options) {
  auto model = std::make_unique<TbModel>(problem, max_blocks, config);
  model->solver().set_restart_policy(options.restart_policy);
  return model;
}

/// One fixed-bound TB solve recorded into `diag`; decodes into `solution`
/// when SAT and `solution` is non-null.
sat::LBool decide_tb_fixed(const Problem& problem, int blocks, int swap_bound,
                           const EncodingConfig& config,
                           const Deadline& deadline, Result& diag,
                           Result* solution) {
  if (deadline.expired()) return sat::LBool::kUndef;
  TbModel model(problem, blocks, config);
  if (swap_bound >= 0) {
    model.assert_swap_bound_hard(swap_bound, config.cardinality);
  }
  const sat::LBool status =
      solve_call(SearchEngine::kTransitionBased, model.solver(), {},
                 /*bound=*/-1, swap_bound, deadline, diag);
  if (status == sat::LBool::kTrue && solution != nullptr) {
    *solution = model.extract();
  }
  return status;
}

struct TbBlockPhase {
  std::unique_ptr<TbModel> model;
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
                   {model->block_bound(blocks)}, blocks, -1, deadline, diag);
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
  std::unique_ptr<TbModel> model = std::move(phase.model);
  const ModelAt model_at = [&](int blocks) -> SweepModel& {
    if (blocks > model->max_blocks()) {
      model = make_tb_model(problem, blocks, config, options);
    }
    return *model;
  };
  Result best = sweep_swaps(SearchEngine::kTransitionBased, *model, model_at,
                            phase.best, phase.blocks, FactHub{},
                            FloorProbe{}, deadline, diag);
  finish(best, diag, deadline);
  return best;
}

Result tb_solve_fixed(const Problem& problem, int blocks, int swap_bound,
                      const EncodingConfig& config, const Deadline& deadline) {
  Result diag;
  Result result;
  decide_tb_fixed(problem, blocks, swap_bound, config, deadline, diag,
                  &result);
  finish(result, diag, deadline);
  return result;
}

sat::LBool tb_floor_probe(const Problem& problem, int swaps,
                          const EncodingConfig& config,
                          const Deadline& deadline, Result& diag) {
  return decide_tb_fixed(problem, swaps + 1, swaps, config, deadline, diag,
                         nullptr);
}

}  // namespace olsq2::layout
