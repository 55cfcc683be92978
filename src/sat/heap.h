// Indexed binary max-heap over variables, ordered by VSIDS activity.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "sat/types.h"

namespace olsq2::sat {

/// Max-heap keyed by an external activity array; supports decrease/increase
/// key via update() and membership queries in O(1).
class ActivityHeap {
 public:
  explicit ActivityHeap(const std::vector<double>& activity)
      : activity_(activity) {}

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  bool contains(Var v) const {
    return v < static_cast<Var>(index_.size()) && index_[v] >= 0;
  }

  void reserve_vars(std::size_t n) {
    if (index_.size() < n) index_.resize(n, -1);
  }

  void insert(Var v) {
    reserve_vars(static_cast<std::size_t>(v) + 1);
    if (contains(v)) return;
    index_[v] = static_cast<std::int32_t>(heap_.size());
    heap_.push_back(v);
    sift_up(index_[v]);
  }

  /// Re-establish heap order after v's activity increased.
  void update(Var v) {
    if (contains(v)) sift_up(index_[v]);
  }

  Var pop() {
    assert(!heap_.empty());
    const Var top = heap_[0];
    heap_[0] = heap_.back();
    index_[heap_[0]] = 0;
    heap_.pop_back();
    index_[top] = -1;
    if (!heap_.empty()) sift_down(0);
    return top;
  }

 private:
  bool greater(Var a, Var b) const { return activity_[a] > activity_[b]; }

  void sift_up(std::size_t i) {
    const Var v = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 1;
      if (!greater(v, heap_[parent])) break;
      heap_[i] = heap_[parent];
      index_[heap_[i]] = static_cast<std::int32_t>(i);
      i = parent;
    }
    heap_[i] = v;
    index_[v] = static_cast<std::int32_t>(i);
  }

  void sift_down(std::size_t i) {
    const Var v = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && greater(heap_[child + 1], heap_[child])) child++;
      if (!greater(heap_[child], v)) break;
      heap_[i] = heap_[child];
      index_[heap_[i]] = static_cast<std::int32_t>(i);
      i = child;
    }
    heap_[i] = v;
    index_[v] = static_cast<std::int32_t>(i);
  }

  const std::vector<double>& activity_;
  std::vector<Var> heap_;
  std::vector<std::int32_t> index_;  // var -> heap position, -1 if absent
};

}  // namespace olsq2::sat
