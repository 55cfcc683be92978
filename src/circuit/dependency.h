// Gate dependency analysis (paper §II-A constraint 2 and §III-A1).
//
// Two gates that act on a shared program qubit must execute in program
// order. The dependency list D holds the immediate (per-qubit predecessor)
// pairs; the longest chain through the DAG gives the depth lower bound
// T_LB. The chains before and after a gate also confine it to a window of
// steps: a depth-T schedule runs gate g no earlier than chain_depth(g) - 1
// and no later than T - 1 - tail(g). T_UB = ceil(1.5 * T_LB) is the
// paper's empirically sufficient upper bound for variable construction.
#pragma once

#include <utility>
#include <vector>

#include "circuit/circuit.h"

namespace olsq2::circuit {

class DependencyGraph {
 public:
  explicit DependencyGraph(const Circuit& c);

  /// Immediate dependencies: (earlier gate index, later gate index).
  const std::vector<std::pair<int, int>>& pairs() const { return pairs_; }

  /// Longest dependency chain length, in gates (= depth lower bound T_LB
  /// when every gate takes one time step).
  int longest_chain() const { return longest_chain_; }

  /// Paper's default upper bound: ceil(1.5 * T_LB), floored at T_LB + 1.
  int default_upper_bound() const;

  /// Chain length ending at each gate (1-based): depth_[g] in [1, T_LB].
  int chain_depth(int gate) const { return depth_[gate]; }

  /// Longest chain strictly after each gate, in gates: tail_[g] in
  /// [0, T_LB - 1], and chain_depth(g) + tail(g) <= T_LB.
  int tail(int gate) const { return tail_[gate]; }

  /// ASAP layering: gates grouped by chain_depth - 1. Used by the
  /// transition-based model and the SATMap-style slicer.
  std::vector<std::vector<int>> asap_layers() const;

 private:
  int num_gates_;
  std::vector<std::pair<int, int>> pairs_;
  std::vector<int> depth_;
  std::vector<int> tail_;
  int longest_chain_ = 0;
};

}  // namespace olsq2::circuit
