#include "sabre/sabre.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "bengen/rng.h"
#include "device/distance.h"

namespace olsq2::sabre {

namespace {

using circuit::Circuit;
using circuit::Gate;
using device::Device;

// Dependency DAG over a gate sequence.
struct Dag {
  std::vector<std::vector<int>> successors;
  std::vector<int> indegree;

  explicit Dag(const std::vector<Gate>& gates, int num_qubits) {
    const int n = static_cast<int>(gates.size());
    successors.resize(n);
    indegree.assign(n, 0);
    std::vector<int> last(num_qubits, -1);
    for (int g = 0; g < n; ++g) {
      for (const int q : {gates[g].q0, gates[g].q1}) {
        if (q < 0) continue;
        if (last[q] >= 0) {
          successors[last[q]].push_back(g);
          indegree[g]++;
        }
        last[q] = g;
      }
    }
  }
};

class Router {
 public:
  Router(const layout::Problem& problem, const SabreOptions& options)
      : circ_(*problem.circuit),
        dev_(*problem.device),
        dist_(dev_),
        swap_duration_(problem.swap_duration),
        options_(options) {}

  SabreResult run() {
    // Initial mapping: seeded shuffle of the identity.
    std::vector<int> mapping(circ_.num_qubits());
    std::vector<int> slots(dev_.num_qubits());
    for (int p = 0; p < dev_.num_qubits(); ++p) slots[p] = p;
    bengen::Rng rng(options_.seed);
    rng.shuffle(slots);
    for (int q = 0; q < circ_.num_qubits(); ++q) mapping[q] = slots[q];

    // Bidirectional refinement: forward pass then backward pass, feeding
    // each pass's final mapping into the next as its initial mapping.
    const std::vector<Gate> forward = circ_.gates();
    std::vector<Gate> backward(forward.rbegin(), forward.rend());
    for (int i = 0; i < options_.reverse_passes; ++i) {
      PassOutput fwd = route_pass(forward, mapping);
      PassOutput bwd = route_pass(backward, fwd.final_mapping);
      mapping = bwd.final_mapping;
    }

    SabreResult result;
    result.initial_mapping = mapping;
    PassOutput final_pass = route_pass(forward, mapping);
    result.final_mapping = final_pass.final_mapping;
    result.swap_count = final_pass.swap_count;
    result.routed = std::move(final_pass.routed);
    result.depth = compute_depth(result.routed);
    return result;
  }

 private:
  struct PassOutput {
    std::vector<int> final_mapping;
    int swap_count = 0;
    Circuit routed;
  };

  int dist(int p0, int p1) const { return dist_.distance(p0, p1); }

  // Lookahead set: up to extended_size two-qubit gates reachable from the
  // front layer through the DAG.
  std::vector<int> extended_set(const Dag& dag, const std::vector<Gate>& gates,
                                const std::vector<int>& front,
                                const std::vector<int>& remaining_preds) const {
    std::vector<int> result;
    std::vector<int> frontier = front;
    std::vector<char> visited(gates.size(), 0);
    while (!frontier.empty() &&
           static_cast<int>(result.size()) < options_.extended_size) {
      std::vector<int> next;
      for (const int g : frontier) {
        for (const int s : dag.successors[g]) {
          if (visited[s]) continue;
          visited[s] = 1;
          if (gates[s].is_two_qubit()) {
            result.push_back(s);
            if (static_cast<int>(result.size()) >= options_.extended_size) {
              return result;
            }
          }
          next.push_back(s);
        }
      }
      frontier = std::move(next);
    }
    (void)remaining_preds;
    return result;
  }

  PassOutput route_pass(const std::vector<Gate>& gates,
                        const std::vector<int>& initial_mapping) const {
    const Dag dag(gates, circ_.num_qubits());
    PassOutput out;
    out.routed = Circuit(dev_.num_qubits(), circ_.name() + "_routed");

    std::vector<int> phys = initial_mapping;           // program -> physical
    std::vector<int> prog(dev_.num_qubits(), -1);      // physical -> program
    for (int q = 0; q < circ_.num_qubits(); ++q) prog[phys[q]] = q;

    std::vector<int> remaining = dag.indegree;
    std::vector<int> front;
    for (int g = 0; g < static_cast<int>(gates.size()); ++g) {
      if (remaining[g] == 0) front.push_back(g);
    }

    std::vector<double> decay(dev_.num_qubits(), 1.0);
    int rounds_since_reset = 0;
    std::int64_t guard = 0;
    const std::int64_t guard_limit =
        10000 + 200LL * static_cast<std::int64_t>(gates.size()) *
                    dev_.num_qubits();

    while (!front.empty()) {
      if (++guard > guard_limit) {
        throw std::runtime_error("sabre: routing failed to converge");
      }
      // Execute everything executable in the current front layer.
      std::vector<int> still_blocked;
      bool executed = false;
      for (const int g : front) {
        const Gate& gate = gates[g];
        const bool runnable =
            !gate.is_two_qubit() ||
            dev_.adjacent(phys[gate.q0], phys[gate.q1]);
        if (!runnable) {
          still_blocked.push_back(g);
          continue;
        }
        executed = true;
        if (gate.is_two_qubit()) {
          out.routed.add_gate(gate.name, phys[gate.q0], phys[gate.q1],
                              gate.params);
        } else {
          out.routed.add_gate(gate.name, phys[gate.q0], gate.params);
        }
        for (const int s : dag.successors[g]) {
          if (--remaining[s] == 0) still_blocked.push_back(s);
        }
      }
      front = std::move(still_blocked);
      if (executed) {
        // Gate progress resets the decay bias (SABRE's rule).
        std::fill(decay.begin(), decay.end(), 1.0);
        rounds_since_reset = 0;
        continue;
      }
      if (front.empty()) break;

      // All front gates are blocked two-qubit gates: choose a SWAP.
      std::vector<int> front2;
      for (const int g : front) {
        if (gates[g].is_two_qubit()) front2.push_back(g);
      }
      assert(!front2.empty());
      const std::vector<int> ext =
          extended_set(dag, gates, front, remaining);

      int best_edge = -1;
      double best_score = std::numeric_limits<double>::infinity();
      for (int e = 0; e < dev_.num_edges(); ++e) {
        const device::Edge& edge = dev_.edge(e);
        // Only consider swaps moving a qubit of a blocked front gate.
        bool relevant = false;
        for (const int g : front2) {
          const Gate& gate = gates[g];
          if (edge.touches(phys[gate.q0]) || edge.touches(phys[gate.q1])) {
            relevant = true;
            break;
          }
        }
        if (!relevant) continue;

        // Tentatively apply the swap to score it.
        auto phys_after = [&](int q) {
          const int p = phys[q];
          if (p == edge.p0) return edge.p1;
          if (p == edge.p1) return edge.p0;
          return p;
        };
        double h = 0;
        for (const int g : front2) {
          h += dist(phys_after(gates[g].q0), phys_after(gates[g].q1));
        }
        h /= static_cast<double>(front2.size());
        if (!ext.empty()) {
          double lookahead = 0;
          for (const int g : ext) {
            lookahead += dist(phys_after(gates[g].q0), phys_after(gates[g].q1));
          }
          h += options_.extended_weight * lookahead /
               static_cast<double>(ext.size());
        }
        h *= std::max(decay[edge.p0], decay[edge.p1]);
        if (h < best_score) {
          best_score = h;
          best_edge = e;
        }
      }
      assert(best_edge >= 0);

      const device::Edge& edge = dev_.edge(best_edge);
      out.routed.add_gate("swap", edge.p0, edge.p1);
      out.swap_count++;
      const int qa = prog[edge.p0];
      const int qb = prog[edge.p1];
      std::swap(prog[edge.p0], prog[edge.p1]);
      if (qa >= 0) phys[qa] = edge.p1;
      if (qb >= 0) phys[qb] = edge.p0;
      decay[edge.p0] += options_.decay_increment;
      decay[edge.p1] += options_.decay_increment;
      if (++rounds_since_reset >= options_.decay_reset_interval) {
        std::fill(decay.begin(), decay.end(), 1.0);
        rounds_since_reset = 0;
      }
    }

    out.final_mapping = phys;
    return out;
  }

  // ASAP depth of the routed circuit: SWAPs take swap_duration_ steps,
  // everything else one step.
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
  SabreOptions options_;
};

}  // namespace

SabreResult route(const layout::Problem& problem, const SabreOptions& options) {
  if (problem.circuit->num_qubits() > problem.device->num_qubits()) {
    throw std::invalid_argument("sabre: circuit does not fit the device");
  }
  return Router(problem, options).run();
}

}  // namespace olsq2::sabre
