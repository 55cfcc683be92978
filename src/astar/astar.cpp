#include "astar/astar.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "bengen/rng.h"
#include "circuit/dependency.h"
#include "device/distance.h"

namespace olsq2::astar {

namespace {

using circuit::Circuit;
using circuit::Gate;
using device::Device;

// Hash a mapping vector (program -> physical).
struct VecHash {
  std::size_t operator()(const std::vector<int>& v) const {
    std::size_t h = 1469598103934665603ull;
    for (const int x : v) {
      h ^= static_cast<std::size_t>(x) + 0x9e3779b97f4a7c15ull;
      h *= 1099511628211ull;
    }
    return h;
  }
};

class Router {
 public:
  Router(const layout::Problem& problem, const AstarOptions& options)
      : circ_(*problem.circuit),
        dev_(*problem.device),
        dist_(dev_),
        swap_duration_(problem.swap_duration),
        options_(options) {}

  AstarResult run() {
    AstarResult result;
    result.routed = Circuit(dev_.num_qubits(), circ_.name() + "_astar");

    // Seeded initial mapping.
    std::vector<int> slots(dev_.num_qubits());
    for (int p = 0; p < dev_.num_qubits(); ++p) slots[p] = p;
    bengen::Rng rng(options_.seed);
    rng.shuffle(slots);
    std::vector<int> mapping(circ_.num_qubits());
    for (int q = 0; q < circ_.num_qubits(); ++q) mapping[q] = slots[q];
    result.initial_mapping = mapping;

    const circuit::DependencyGraph deps(circ_);
    for (const auto& layer : deps.asap_layers()) {
      // Collect the layer's two-qubit pairs.
      std::vector<std::pair<int, int>> pairs;
      for (const int g : layer) {
        const Gate& gate = circ_.gate(g);
        if (gate.is_two_qubit()) pairs.emplace_back(gate.q0, gate.q1);
      }
      bool astar_ok = true;
      if (!pairs.empty() && !all_adjacent(mapping, pairs)) {
        std::vector<int> swap_edges;
        astar_ok = search_swaps(mapping, pairs, swap_edges);
        if (astar_ok) {
          for (const int e : swap_edges) {
            const device::Edge& edge = dev_.edge(e);
            result.routed.add_gate("swap", edge.p0, edge.p1);
            apply_swap(mapping, e);
            result.swap_count++;
          }
        }
      }
      if (astar_ok) {
        // Emit the layer's gates on physical operands.
        for (const int g : layer) {
          const Gate& gate = circ_.gate(g);
          if (gate.is_two_qubit()) {
            result.routed.add_gate(gate.name, mapping[gate.q0],
                                   mapping[gate.q1], gate.params);
          } else {
            result.routed.add_gate(gate.name, mapping[gate.q0], gate.params);
          }
        }
      } else {
        // Expansion cap hit: route the layer gate by gate along shortest
        // paths (each SWAP strictly shrinks its pair's distance, so this
        // always terminates).
        result.greedy_fallbacks++;
        fallback_layer(layer, mapping, result);
      }
    }
    result.final_mapping = mapping;
    result.depth = compute_depth(result.routed);
    result.optimal = result.greedy_fallbacks == 0;
    return result;
  }

 private:
  bool all_adjacent(const std::vector<int>& mapping,
                    const std::vector<std::pair<int, int>>& pairs) const {
    for (const auto& [a, b] : pairs) {
      if (!dev_.adjacent(mapping[a], mapping[b])) return false;
    }
    return true;
  }

  void apply_swap(std::vector<int>& mapping, int edge_index) const {
    const device::Edge& e = dev_.edge(edge_index);
    for (int& p : mapping) {
      if (p == e.p0) {
        p = e.p1;
      } else if (p == e.p1) {
        p = e.p0;
      }
    }
  }

  // Admissible heuristic: each SWAP moves one qubit one step, and can
  // shrink the total remaining distance by at most 2 (both endpoints of
  // one gate pair move closer by at most... one swap affects one gate pair
  // endpoint), so half the summed slack is a lower bound.
  int heuristic(const std::vector<int>& mapping,
                const std::vector<std::pair<int, int>>& pairs) const {
    int slack = 0;
    for (const auto& [a, b] : pairs) {
      slack += std::max(0, dist_.distance(mapping[a], mapping[b]) - 1);
    }
    return (slack + 1) / 2;
  }

  // Gate-by-gate fallback: for each gate, walk its first operand one step
  // at a time along a shortest path toward the other, then emit the gate.
  void fallback_layer(const std::vector<int>& layer, std::vector<int>& mapping,
                      AstarResult& result) const {
    for (const int g : layer) {
      const Gate& gate = circ_.gate(g);
      if (gate.is_two_qubit()) {
        while (!dev_.adjacent(mapping[gate.q0], mapping[gate.q1])) {
          const int from = mapping[gate.q0];
          const int target = mapping[gate.q1];
          int step_edge = -1;
          for (const int e : dev_.edges_at(from)) {
            const int next = dev_.edge(e).other(from);
            if (dist_.distance(next, target) < dist_.distance(from, target)) {
              step_edge = e;
              break;
            }
          }
          // A closer neighbor always exists on a shortest path.
          const device::Edge& edge = dev_.edge(step_edge);
          result.routed.add_gate("swap", edge.p0, edge.p1);
          apply_swap(mapping, step_edge);
          result.swap_count++;
        }
        result.routed.add_gate(gate.name, mapping[gate.q0], mapping[gate.q1],
                               gate.params);
      } else {
        result.routed.add_gate(gate.name, mapping[gate.q0], gate.params);
      }
    }
  }

  // A* over mappings: actions are SWAPs on edges touching some gate qubit.
  // Returns false when the expansion cap was hit (out_swaps untouched).
  bool search_swaps(const std::vector<int>& start,
                    const std::vector<std::pair<int, int>>& pairs,
                    std::vector<int>& out_swaps) const {
    struct Node {
      std::vector<int> mapping;
      std::vector<int> swaps;  // edge indices applied so far
      int g = 0;
      int f = 0;
    };
    auto cmp = [](const Node& a, const Node& b) { return a.f > b.f; };
    std::priority_queue<Node, std::vector<Node>, decltype(cmp)> open(cmp);
    std::unordered_map<std::vector<int>, int, VecHash> best_g;

    open.push({start, {}, 0, heuristic(start, pairs)});
    best_g[start] = 0;
    int expansions = 0;
    while (!open.empty()) {
      Node node = open.top();
      open.pop();
      if (auto it = best_g.find(node.mapping);
          it != best_g.end() && it->second < node.g) {
        continue;  // stale queue entry
      }
      if (all_adjacent(node.mapping, pairs)) {
        out_swaps = node.swaps;
        return true;
      }
      if (++expansions > options_.max_expansions) break;

      // Candidate swaps: edges incident to any physical qubit hosting a
      // gate operand.
      std::unordered_set<int> candidates;
      for (const auto& [a, b] : pairs) {
        for (const int q : {a, b}) {
          for (const int e : dev_.edges_at(node.mapping[q])) {
            candidates.insert(e);
          }
        }
      }
      for (const int e : candidates) {
        Node next = node;
        apply_swap(next.mapping, e);
        next.swaps.push_back(e);
        next.g = node.g + 1;
        next.f = next.g + heuristic(next.mapping, pairs);
        auto it = best_g.find(next.mapping);
        if (it == best_g.end() || next.g < it->second) {
          best_g[next.mapping] = next.g;
          open.push(std::move(next));
        }
      }
    }

    return false;  // expansion cap hit; caller uses the gate-by-gate fallback
  }

  int compute_depth(const Circuit& routed) const {
    std::vector<int> available(dev_.num_qubits(), 0);
    int depth = 0;
    for (const Gate& g : routed.gates()) {
      const int duration = g.name == "swap" ? swap_duration_ : 1;
      int start = available[g.q0];
      if (g.is_two_qubit()) start = std::max(start, available[g.q1]);
      const int end = start + duration;
      available[g.q0] = end;
      if (g.is_two_qubit()) available[g.q1] = end;
      depth = std::max(depth, end);
    }
    return depth;
  }

  const Circuit& circ_;
  const Device& dev_;
  const device::DistanceTable dist_;
  int swap_duration_;
  AstarOptions options_;
};

}  // namespace

AstarResult route(const layout::Problem& problem, const AstarOptions& options) {
  if (problem.circuit->num_qubits() > problem.device->num_qubits()) {
    throw std::invalid_argument("astar: circuit does not fit the device");
  }
  return Router(problem, options).run();
}

}  // namespace olsq2::astar
