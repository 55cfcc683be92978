#include "device/device.h"

#include <cassert>

namespace olsq2::device {

Device::Device(std::string name, int num_qubits, std::vector<Edge> edges)
    : name_(std::move(name)),
      num_qubits_(num_qubits),
      row_words_((num_qubits + 63) / 64),
      edges_(std::move(edges)),
      offset_(num_qubits + 1, 0),
      neighbors_(2 * edges_.size()),
      incident_(2 * edges_.size()),
      rows_(static_cast<std::size_t>(num_qubits) * row_words_, 0) {
  for (const Edge& edge : edges_) {
    assert(edge.p0 >= 0 && edge.p0 < num_qubits_);
    assert(edge.p1 >= 0 && edge.p1 < num_qubits_);
    assert(edge.p0 != edge.p1);
    ++offset_[edge.p0 + 1];
    ++offset_[edge.p1 + 1];
  }
  for (int p = 0; p < num_qubits_; ++p) offset_[p + 1] += offset_[p];
  std::vector<int> fill(offset_.begin(), offset_.end() - 1);
  const auto link = [&](int from, int to, int e) {
    incident_[fill[from]] = e;
    neighbors_[fill[from]++] = to;
    rows_[static_cast<std::size_t>(from) * row_words_ + (to >> 6)] |=
        std::uint64_t{1} << (to & 63);
  };
  for (int e = 0; e < num_edges(); ++e) {
    link(edges_[e].p0, edges_[e].p1, e);
    link(edges_[e].p1, edges_[e].p0, e);
  }
}

}  // namespace olsq2::device
