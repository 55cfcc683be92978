#include "plan/space.h"

#include <algorithm>
#include <cassert>

#include "bengen/rng.h"
#include "circuit/circuit.h"
#include "device/device.h"

namespace olsq2::plan {

Space::Space(const layout::Problem& problem)
    : problem_(&problem), distances_(*problem.device) {
  const circuit::Circuit& circ = *problem.circuit;
  const device::Device& dev = *problem.device;
  num_program_ = circ.num_qubits();
  num_physical_ = dev.num_qubits();
  total_gates_ = circ.num_gates();

  qubit_gates_.assign(num_program_, {});
  pos_on_q0_.assign(total_gates_, -1);
  pos_on_q1_.assign(total_gates_, -1);
  last_two_qubit_pos_.assign(num_program_, -1);
  for (int g = 0; g < total_gates_; ++g) {
    const circuit::Gate& gate = circ.gate(g);
    pos_on_q0_[g] = static_cast<int>(qubit_gates_[gate.q0].size());
    qubit_gates_[gate.q0].push_back(g);
    if (gate.is_two_qubit()) {
      pos_on_q1_[g] = static_cast<int>(qubit_gates_[gate.q1].size());
      qubit_gates_[gate.q1].push_back(g);
      last_two_qubit_pos_[gate.q0] = pos_on_q0_[g];
      last_two_qubit_pos_[gate.q1] = pos_on_q1_[g];
    }
  }
  for (int q = 0; q < num_program_; ++q) {
    if (last_two_qubit_pos_[q] >= 0) interacting_.push_back(q);
  }
}

void Space::closure(State* s, std::vector<int>* executed_gates) const {
  const circuit::Circuit& circ = *problem_->circuit;
  const device::Device& dev = *problem_->device;
  bool progress = true;
  while (progress) {
    progress = false;
    for (int q = 0; q < num_program_; ++q) {
      while (s->next[q] < static_cast<int>(qubit_gates_[q].size())) {
        const int g = qubit_gates_[q][s->next[q]];
        const circuit::Gate& gate = circ.gate(g);
        if (!gate.is_two_qubit()) {
          ++s->next[q];
          ++s->executed;
          if (executed_gates != nullptr) executed_gates->push_back(g);
          progress = true;
          continue;
        }
        // Two-qubit: executable only when front on both operands and the
        // operands sit on adjacent physical qubits.
        const int other = (gate.q0 == q) ? gate.q1 : gate.q0;
        const int my_pos = (gate.q0 == q) ? pos_on_q0_[g] : pos_on_q1_[g];
        const int other_pos = (gate.q0 == q) ? pos_on_q1_[g] : pos_on_q0_[g];
        assert(my_pos == s->next[q]);
        (void)my_pos;
        if (other_pos != s->next[other] ||
            !dev.adjacent(s->mapping[gate.q0], s->mapping[gate.q1])) {
          break;
        }
        ++s->next[gate.q0];
        ++s->next[gate.q1];
        ++s->executed;
        if (executed_gates != nullptr) executed_gates->push_back(g);
        progress = true;
      }
    }
  }
}

void Space::candidate_edges(const State& s, std::vector<int>* out) const {
  const device::Device& dev = *problem_->device;
  out->clear();
  // Mark active positions, then collect incident edges without duplicates.
  std::vector<char> edge_seen(dev.num_edges(), 0);
  for (int q : interacting_) {
    if (!active(s, q)) continue;
    for (int e : dev.edges_at(s.mapping[q])) {
      if (!edge_seen[e]) {
        edge_seen[e] = 1;
        out->push_back(e);
      }
    }
  }
  std::sort(out->begin(), out->end());
}

void Space::apply_swap(State* s, int edge) const {
  const device::Edge& e = problem_->device->edge(edge);
  const int a = s->inv[e.p0];
  const int b = s->inv[e.p1];
  if (a >= 0) s->mapping[a] = e.p1;
  if (b >= 0) s->mapping[b] = e.p0;
  s->inv[e.p0] = b;
  s->inv[e.p1] = a;
}

std::vector<int> Space::key(const State& s) const {
  std::vector<int> k;
  k.reserve(2 * static_cast<std::size_t>(num_program_));
  for (int q = 0; q < num_program_; ++q) k.push_back(s.next[q]);
  for (int q = 0; q < num_program_; ++q) {
    k.push_back(active(s, q) ? s.mapping[q] : -1);
  }
  return k;
}

Space::State Space::make_root(const std::vector<int>& placement) const {
  State s;
  s.mapping.assign(num_program_, -1);
  s.inv.assign(num_physical_, -1);
  s.next.assign(num_program_, 0);
  for (std::size_t i = 0; i < interacting_.size(); ++i) {
    s.mapping[interacting_[i]] = placement[i];
    s.inv[placement[i]] = interacting_[i];
  }
  // Non-interacting qubits fill the leftover slots in ascending order;
  // their placement never affects cost-to-go.
  int slot = 0;
  for (int q = 0; q < num_program_; ++q) {
    if (s.mapping[q] >= 0) continue;
    while (s.inv[slot] >= 0) ++slot;
    s.mapping[q] = slot;
    s.inv[slot] = q;
  }
  return s;
}

bool Space::roots(std::int64_t max_roots, std::uint64_t seed,
                  std::vector<State>* out) const {
  assert(num_program_ <= num_physical_);
  const int k = static_cast<int>(interacting_.size());
  // Count the full enumeration P*(P-1)*...*(P-k+1), clamped.
  std::int64_t count = 1;
  for (int i = 0; i < k && count <= max_roots; ++i) {
    count *= (num_physical_ - i);
  }
  if (count <= max_roots) {
    // Complete enumeration in lexicographic placement order.
    std::vector<int> placement(k, -1);
    std::vector<char> used(num_physical_, 0);
    std::vector<int> depth_pos(k, 0);
    if (k == 0) {
      out->push_back(make_root(placement));
      return true;
    }
    int d = 0;
    int p = 0;
    while (d >= 0) {
      if (p >= num_physical_) {
        // Backtrack.
        --d;
        if (d < 0) break;
        used[placement[d]] = 0;
        p = placement[d] + 1;
        continue;
      }
      if (used[p]) {
        ++p;
        continue;
      }
      placement[d] = p;
      used[p] = 1;
      if (d + 1 == k) {
        out->push_back(make_root(placement));
        used[p] = 0;
        ++p;
      } else {
        ++d;
        p = 0;
      }
    }
    return true;
  }
  // Too many placements: sample seeded random injective placements. The
  // search result is then only an upper bound (PlanResult::optimal=false).
  bengen::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<int> slots(num_physical_);
  for (int p = 0; p < num_physical_; ++p) slots[p] = p;
  std::vector<int> placement(k);
  for (std::int64_t r = 0; r < max_roots; ++r) {
    // Partial Fisher-Yates: the first k entries become the placement.
    for (int i = 0; i < k; ++i) {
      const int j = i + rng.below_int(num_physical_ - i);
      std::swap(slots[i], slots[j]);
      placement[i] = slots[i];
    }
    out->push_back(make_root(placement));
  }
  return false;
}

}  // namespace olsq2::plan
