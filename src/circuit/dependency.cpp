#include "circuit/dependency.h"

#include <algorithm>
#include <cmath>

namespace olsq2::circuit {

DependencyGraph::DependencyGraph(const Circuit& c)
    : num_gates_(c.num_gates()),
      depth_(c.num_gates(), 1),
      tail_(c.num_gates(), 0) {
  std::vector<int> last_on_qubit(c.num_qubits(), -1);
  for (int g = 0; g < c.num_gates(); ++g) {
    const Gate& gate = c.gate(g);
    for (const int q : {gate.q0, gate.q1}) {
      if (q < 0) continue;
      if (last_on_qubit[q] >= 0) {
        pairs_.emplace_back(last_on_qubit[q], g);
        depth_[g] = std::max(depth_[g], depth_[last_on_qubit[q]] + 1);
      }
      last_on_qubit[q] = g;
    }
    longest_chain_ = std::max(longest_chain_, depth_[g]);
  }
  // pairs_ is ordered by its later gate, so walking it backwards finishes
  // every successor's tail before its predecessors read it.
  for (auto it = pairs_.rbegin(); it != pairs_.rend(); ++it) {
    tail_[it->first] = std::max(tail_[it->first], tail_[it->second] + 1);
  }
}

int DependencyGraph::default_upper_bound() const {
  const int scaled = static_cast<int>(std::ceil(1.5 * longest_chain_));
  return std::max(scaled, longest_chain_ + 1);
}

std::vector<std::vector<int>> DependencyGraph::asap_layers() const {
  std::vector<std::vector<int>> layers(longest_chain_);
  for (int g = 0; g < num_gates_; ++g) {
    layers[depth_[g] - 1].push_back(g);
  }
  return layers;
}

}  // namespace olsq2::circuit
