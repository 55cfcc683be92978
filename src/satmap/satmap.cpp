#include "satmap/satmap.h"

#include <algorithm>
#include <memory>

#include "circuit/dependency.h"
#include "encode/totalizer.h"
#include "layout/fdvar.h"
#include "layout/search.h"

namespace olsq2::satmap {

namespace {

using layout::FdVar;
using layout::VarEncoding;
using sat::LBool;
using sat::Lit;

// SAT model for one slice: mappings m[0..R] with m[0] optionally pinned,
// <= R disjoint SWAP layers between them, and adjacency for the slice's
// two-qubit gates at m[R].
class SliceModel {
 public:
  SliceModel(const layout::Problem& problem, int transition_layers,
             const std::vector<int>* previous_mapping,
             const std::vector<std::pair<int, int>>& slice_pairs)
      : dev_(*problem.device),
        num_q_(problem.circuit->num_qubits()),
        layers_(transition_layers),
        builder_(solver_) {
    const int num_p = dev_.num_qubits();
    pi_.resize(num_q_);
    for (int q = 0; q < num_q_; ++q) {
      for (int r = 0; r <= layers_; ++r) {
        pi_[q].push_back(FdVar::make(builder_, num_p, VarEncoding::kBinary));
      }
    }
    // Injectivity at every stage.
    for (int r = 0; r <= layers_; ++r) {
      for (int q = 0; q < num_q_; ++q) {
        for (int s = q + 1; s < num_q_; ++s) {
          for (int p = 0; p < num_p; ++p) {
            builder_.add({~pi_[q][r].eq(builder_, p),
                          ~pi_[s][r].eq(builder_, p)});
          }
        }
      }
    }
    // Pin the entry mapping to the previous slice's exit mapping.
    if (previous_mapping != nullptr) {
      for (int q = 0; q < num_q_; ++q) {
        builder_.add({pi_[q][0].eq(builder_, (*previous_mapping)[q])});
      }
    }
    // SWAP layers.
    sigma_.resize(dev_.num_edges());
    for (int e = 0; e < dev_.num_edges(); ++e) {
      for (int r = 0; r < layers_; ++r) {
        const Lit l = builder_.new_lit();
        sigma_[e].push_back(l);
        sigma_flat_.push_back(l);
      }
    }
    for (int r = 0; r < layers_; ++r) {
      for (int e = 0; e < dev_.num_edges(); ++e) {
        const device::Edge& edge = dev_.edge(e);
        for (int e2 = e + 1; e2 < dev_.num_edges(); ++e2) {
          const device::Edge& other = dev_.edge(e2);
          if (other.touches(edge.p0) || other.touches(edge.p1)) {
            builder_.add({~sigma_[e][r], ~sigma_[e2][r]});
          }
        }
      }
      for (int q = 0; q < num_q_; ++q) {
        for (int p = 0; p < dev_.num_qubits(); ++p) {
          std::vector<Lit> clause;
          clause.push_back(~pi_[q][r].eq(builder_, p));
          for (const int e : dev_.edges_at(p)) clause.push_back(sigma_[e][r]);
          clause.push_back(pi_[q][r + 1].eq(builder_, p));
          builder_.add(std::move(clause));
        }
        for (int e = 0; e < dev_.num_edges(); ++e) {
          const device::Edge& edge = dev_.edge(e);
          builder_.add({~sigma_[e][r], ~pi_[q][r].eq(builder_, edge.p0),
                        pi_[q][r + 1].eq(builder_, edge.p1)});
          builder_.add({~sigma_[e][r], ~pi_[q][r].eq(builder_, edge.p1),
                        pi_[q][r + 1].eq(builder_, edge.p0)});
        }
      }
    }
    // Every two-qubit pair in the slice is adjacent at the exit mapping.
    for (const auto& [qa, qb] : slice_pairs) {
      std::vector<Lit> arrangements;
      for (const device::Edge& e : dev_.edges()) {
        arrangements.push_back(builder_.mk_and(
            pi_[qa][layers_].eq(builder_, e.p0),
            pi_[qb][layers_].eq(builder_, e.p1)));
        arrangements.push_back(builder_.mk_and(
            pi_[qa][layers_].eq(builder_, e.p1),
            pi_[qb][layers_].eq(builder_, e.p0)));
      }
      builder_.add(std::move(arrangements));
    }
  }

  sat::Solver& solver() { return solver_; }

  Lit swap_bound(int k) {
    if (totalizer_ == nullptr) {
      totalizer_ = std::make_unique<encode::Totalizer>(builder_, sigma_flat_);
    }
    return totalizer_->bound_leq(builder_, k);
  }

  int count_swaps() const {
    int count = 0;
    for (const Lit l : sigma_flat_) {
      if (solver_.model_bool(l)) count++;
    }
    return count;
  }

  std::vector<int> exit_mapping() const {
    std::vector<int> mapping(num_q_);
    for (int q = 0; q < num_q_; ++q) {
      mapping[q] = pi_[q][layers_].decode(solver_);
    }
    return mapping;
  }

 private:
  const device::Device& dev_;
  int num_q_;
  int layers_;
  sat::Solver solver_;
  encode::CnfBuilder builder_;
  std::vector<std::vector<FdVar>> pi_;
  std::vector<std::vector<Lit>> sigma_;
  std::vector<Lit> sigma_flat_;
  std::unique_ptr<encode::Totalizer> totalizer_;
};

}  // namespace

SatmapResult route(const layout::Problem& problem, const SatmapOptions& options) {
  const layout::Deadline deadline(options.time_budget_ms);

  SatmapResult result;
  // Budget exhaustion returns what is finished so far.
  const auto out_of_budget = [&] {
    result.hit_budget = true;
    result.wall_ms = deadline.elapsed_ms();
    return result;
  };
  const circuit::Circuit& circ = *problem.circuit;
  const circuit::DependencyGraph deps(circ);

  // Group dependency layers into slices of two-qubit pairs.
  std::vector<std::vector<std::pair<int, int>>> slices;
  const auto layers = deps.asap_layers();
  for (std::size_t i = 0; i < layers.size();
       i += static_cast<std::size_t>(options.layers_per_slice)) {
    std::vector<std::pair<int, int>> pairs;
    for (std::size_t j = i;
         j < std::min(layers.size(),
                      i + static_cast<std::size_t>(options.layers_per_slice));
         ++j) {
      for (const int g : layers[j]) {
        const circuit::Gate& gate = circ.gate(g);
        if (gate.is_two_qubit()) pairs.emplace_back(gate.q0, gate.q1);
      }
    }
    slices.push_back(std::move(pairs));
  }
  result.slice_count = static_cast<int>(slices.size());

  std::vector<int> mapping;  // exit mapping of the previous slice
  bool have_mapping = false;
  for (const auto& slice : slices) {
    if (deadline.expired()) return out_of_budget();
    // Grow the number of transition layers until the slice is satisfiable.
    bool slice_done = false;
    for (int r = have_mapping ? 0 : 0; r <= options.max_transition_layers; ++r) {
      SliceModel model(problem, r, have_mapping ? &mapping : nullptr, slice);
      deadline.arm(model.solver());
      const LBool status = model.solver().solve();
      if (status == LBool::kUndef) return out_of_budget();
      if (status != LBool::kTrue) continue;

      // Minimize SWAPs used for this slice by totalizer descent.
      int best = model.count_swaps();
      std::vector<int> best_mapping = model.exit_mapping();
      while (best > 0 && !deadline.expired()) {
        const std::vector<Lit> assume = {model.swap_bound(best - 1)};
        deadline.arm(model.solver());
        const LBool tightened = model.solver().solve(assume);
        if (tightened != LBool::kTrue) break;
        best = model.count_swaps();
        best_mapping = model.exit_mapping();
      }
      result.swap_count += best;
      mapping = std::move(best_mapping);
      have_mapping = true;
      result.slice_mappings.push_back(mapping);
      slice_done = true;
      break;
    }
    if (!slice_done) {
      // Could not connect the slices within the layer cap.
      result.wall_ms = deadline.elapsed_ms();
      return result;
    }
  }
  result.solved = true;
  result.wall_ms = deadline.elapsed_ms();
  return result;
}

}  // namespace olsq2::satmap
