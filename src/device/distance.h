// All-pairs shortest-path distances of a device, in edges.
//
// Only the routing engines read distances (SABRE's cost, A*'s heuristic and
// greedy fallback, the planning engine's bounds), so each builds one table
// per run instead of every Device paying for an n x n BFS at construction.
#pragma once

#include <vector>

#include "device/device.h"

namespace olsq2::device {

class DistanceTable {
 public:
  /// One BFS per source over the device's CSR neighbours.
  explicit DistanceTable(const Device& dev);

  int num_qubits() const { return n_; }

  /// Shortest-path distance in edges; num_qubits() if disconnected.
  int distance(int p0, int p1) const {
    return dist_[static_cast<std::size_t>(p0) * n_ + p1];
  }

  /// Largest finite pairwise distance (the diameter of the connected part;
  /// 0 for a device without edges).
  int diameter() const { return diameter_; }

 private:
  int n_;
  int diameter_ = 0;
  std::vector<int> dist_;  // row-major n x n
};

/// True when every qubit is reachable from qubit 0 (one BFS).
bool connected(const Device& dev);

}  // namespace olsq2::device
