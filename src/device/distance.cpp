#include "device/distance.h"

#include <algorithm>

namespace olsq2::device {

namespace {

/// BFS from `src`, writing hop counts into `dist` (pre-filled with the
/// unreachable sentinel). `queue` has room for num_qubits entries.
void bfs(const Device& dev, int src, int* dist, int* queue) {
  dist[src] = 0;
  int head = 0;
  int tail = 0;
  queue[tail++] = src;
  while (head < tail) {
    const int u = queue[head++];
    for (const int v : dev.neighbors(u)) {
      if (dist[v] > dist[u] + 1) {
        dist[v] = dist[u] + 1;
        queue[tail++] = v;
      }
    }
  }
}

}  // namespace

DistanceTable::DistanceTable(const Device& dev)
    : n_(dev.num_qubits()),
      dist_(static_cast<std::size_t>(n_) * n_, n_) {
  std::vector<int> queue(n_);
  for (int src = 0; src < n_; ++src) {
    int* row = dist_.data() + static_cast<std::size_t>(src) * n_;
    bfs(dev, src, row, queue.data());
    for (int p = 0; p < n_; ++p) {
      if (row[p] < n_) diameter_ = std::max(diameter_, row[p]);
    }
  }
}

bool connected(const Device& dev) {
  const int n = dev.num_qubits();
  if (n == 0) return true;
  std::vector<int> dist(n, n);
  std::vector<int> queue(n);
  bfs(dev, 0, dist.data(), queue.data());
  return std::none_of(dist.begin(), dist.end(), [n](int d) { return d >= n; });
}

}  // namespace olsq2::device
