#include "plan/heuristic.h"

#include <cstdlib>
#include <string_view>

#include "circuit/circuit.h"
#include "device/device.h"
#include "device/distance.h"

namespace olsq2::plan {

namespace {

// Fault-injection hook for the fuzz harness: see Heuristic's class comment.
bool plan_bug_requested() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once per synthesize, at a
  // quiescent construction point; nothing in-process calls setenv
  // concurrently.
  const char* v = std::getenv("OLSQ2_FUZZ_INJECT_PLAN_BUG");
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

}  // namespace

Heuristic::Heuristic(const Space& space)
    : space_(&space), inject_bug_(plan_bug_requested()) {}

int Heuristic::operator()(const Space::State& s) const {
  const circuit::Circuit& circ = *space_->problem().circuit;
  const device::DistanceTable& dist = space_->distances();
  const int unreachable_dist = dist.num_qubits();
  int max_slack = 0;
  int frontier_sum = 0;
  for (int g = 0; g < space_->total_gates(); ++g) {
    const circuit::Gate& gate = circ.gate(g);
    if (!gate.is_two_qubit()) continue;
    if (space_->gate_executed(s, g)) continue;
    const int d = dist.distance(s.mapping[gate.q0], s.mapping[gate.q1]);
    if (d >= unreachable_dist) return kUnreachable;
    const int slack = d - 1;
    if (slack > max_slack) max_slack = slack;
    const bool front = space_->pos_on_q0(g) == s.next[gate.q0] &&
                       space_->pos_on_q1(g) == s.next[gate.q1];
    if (front) frontier_sum += slack;
  }
  int h = max_slack;
  const int frontier_bound = (frontier_sum + 1) / 2;
  if (frontier_bound > h) h = frontier_bound;
  if (inject_bug_ && h > 0) ++h;  // deliberate overestimate (+1)
  return h;
}

int greedy_completion(const Space& space, Space::State state,
                      std::vector<int>* swap_edges) {
  const circuit::Circuit& circ = *space.problem().circuit;
  const device::Device& dev = *space.problem().device;
  const device::DistanceTable& dist = space.distances();
  space.closure(&state);
  int swaps = 0;
  // Each iteration strictly reduces one front gate's distance, so the walk
  // terminates; the cap only guards against a malformed device table.
  const long cap =
      4L * (space.total_gates() + 1) * (dist.diameter() + dev.num_qubits() + 1);
  for (long iter = 0; iter < cap; ++iter) {
    if (space.is_goal(state)) return swaps;
    // Pick the front two-qubit gate with minimum slack (one always exists:
    // the pending gate with the smallest index is front, and closure has
    // consumed every front single-qubit gate).
    int best_gate = -1;
    int best_dist = -1;
    for (int g = 0; g < space.total_gates(); ++g) {
      const circuit::Gate& gate = circ.gate(g);
      if (!gate.is_two_qubit() || space.gate_executed(state, g)) continue;
      if (space.pos_on_q0(g) != state.next[gate.q0] ||
          space.pos_on_q1(g) != state.next[gate.q1]) {
        continue;
      }
      const int d =
          dist.distance(state.mapping[gate.q0], state.mapping[gate.q1]);
      if (best_gate < 0 || d < best_dist) {
        best_gate = g;
        best_dist = d;
      }
    }
    if (best_gate < 0 || best_dist >= dev.num_qubits()) return -1;
    const circuit::Gate& gate = circ.gate(best_gate);
    const int from = state.mapping[gate.q0];
    const int to = state.mapping[gate.q1];
    // One step along a shortest path: first neighbor closing the distance.
    int step_edge = -1;
    for (int e : dev.edges_at(from)) {
      const int n = dev.edge(e).other(from);
      if (dist.distance(n, to) < best_dist) {
        step_edge = e;
        break;
      }
    }
    if (step_edge < 0) return -1;  // disconnected despite finite distance
    space.apply_swap(&state, step_edge);
    space.closure(&state);
    swap_edges->push_back(step_edge);
    ++swaps;
  }
  return -1;
}

}  // namespace olsq2::plan
