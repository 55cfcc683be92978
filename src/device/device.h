// Coupling graph of a quantum processor (paper §II-A).
//
// Vertices are physical qubits; edges are qubit pairs that support two-qubit
// gates. A Device is a flat immutable value: neighbours and incident edges
// in CSR form (one offset array shared by two flat arrays, in edge order)
// plus one adjacency bit row per qubit, so adjacent() is a single bit test.
// Shortest-path distances are not part of the device; the engines that
// route build a device::DistanceTable (device/distance.h) once per run.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace olsq2::device {

struct Edge {
  int p0;
  int p1;

  bool touches(int p) const { return p == p0 || p == p1; }
  int other(int p) const { return p == p0 ? p1 : p0; }
};

class Device {
 public:
  Device(std::string name, int num_qubits, std::vector<Edge> edges);

  const std::string& name() const { return name_; }
  int num_qubits() const { return num_qubits_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  const Edge& edge(int e) const { return edges_[e]; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Edge indices incident to physical qubit p (E_p in the paper), in edge
  /// order.
  std::span<const int> edges_at(int p) const {
    return {incident_.data() + offset_[p],
            static_cast<std::size_t>(offset_[p + 1] - offset_[p])};
  }

  /// Neighboring physical qubits of p; neighbors(p)[i] is the other end of
  /// edges_at(p)[i].
  std::span<const int> neighbors(int p) const {
    return {neighbors_.data() + offset_[p],
            static_cast<std::size_t>(offset_[p + 1] - offset_[p])};
  }

  /// One bit test in p0's adjacency row.
  bool adjacent(int p0, int p1) const {
    return ((rows_[static_cast<std::size_t>(p0) * row_words_ + (p1 >> 6)] >>
             (p1 & 63)) &
            1U) != 0;
  }

 private:
  std::string name_;
  int num_qubits_;
  int row_words_;  // ceil(num_qubits / 64)
  std::vector<Edge> edges_;
  std::vector<int> offset_;     // CSR row starts, num_qubits + 1 entries
  std::vector<int> neighbors_;  // 2 * num_edges entries
  std::vector<int> incident_;   // 2 * num_edges entries
  std::vector<std::uint64_t> rows_;  // num_qubits rows of row_words_
};

}  // namespace olsq2::device
