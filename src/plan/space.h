// State space for the classical-planning layout engine (DESIGN.md §13).
//
// Following "Optimal Layout Synthesis for Quantum Circuits as Classical
// Planning" (arxiv 2304.12014), a search state is a qubit mapping plus the
// set of already-executed gates; actions are SWAP insertions (unit cost)
// and gate executions (zero cost, folded into an eager closure). Because
// gates acting on a shared program qubit are totally ordered by program
// order, every dependency-closed executed set is exactly a per-qubit
// prefix, so `next[q]` (executed prefix length of q's gate list) encodes
// the executed set in O(|Q|) ints and the whole state is hashable.
//
// Two structural reductions keep the space small without losing optimality:
//
//  * Eager closure. Executing an executable gate costs nothing, never
//    disables another executable gate (gates on disjoint qubits commute
//    here; gates on a shared qubit execute in prefix order), and never
//    changes any distance - so executing everything executable after every
//    SWAP is confluent and some optimal plan has this form.
//
//  * Active-qubit restriction. A program qubit with no pending two-qubit
//    gate is "inactive": its position can never influence which gates
//    become executable, so (a) SWAPs on edges touching no active position
//    are never needed (dropping one from any plan keeps the plan valid),
//    and (b) the transposition key only needs the active positions -
//    states differing only in inactive placement have identical cost-to-go.
#pragma once

#include <cstdint>
#include <vector>

#include "device/distance.h"
#include "layout/types.h"

namespace olsq2::plan {

/// Immutable per-problem precomputation shared by every search node.
class Space {
 public:
  explicit Space(const layout::Problem& problem);

  const layout::Problem& problem() const { return *problem_; }
  int num_program_qubits() const { return num_program_; }
  int num_physical_qubits() const { return num_physical_; }
  int total_gates() const { return total_gates_; }

  /// Shortest-path distances on the problem's device (heuristic bounds and
  /// the greedy completion walk).
  const device::DistanceTable& distances() const { return distances_; }

  /// Gate indices acting on program qubit q, in program order.
  const std::vector<int>& qubit_gates(int q) const { return qubit_gates_[q]; }

  /// Index of gate g within qubit_gates(gate.q0) - O(1) pending test.
  int pos_on_q0(int g) const { return pos_on_q0_[g]; }
  int pos_on_q1(int g) const { return pos_on_q1_[g]; }

  /// Program qubits that touch at least one two-qubit gate (placed
  /// explicitly by root enumeration; the rest fill leftover slots).
  const std::vector<int>& interacting_qubits() const { return interacting_; }

  struct State {
    std::vector<int> mapping;  // program qubit -> physical qubit
    std::vector<int> inv;      // physical qubit -> program qubit or -1
    std::vector<int> next;     // executed prefix length per program qubit
    int executed = 0;          // total gates executed (each counted once)
  };

  bool is_goal(const State& s) const { return s.executed == total_gates_; }

  bool gate_executed(const State& s, int g) const {
    return pos_on_q0_[g] < s.next[problem_->circuit->gate(g).q0];
  }

  /// Execute every currently executable gate. If `executed_gates` is
  /// non-null the executed gate indices are appended in execution order
  /// (used to reconstruct per-block gate times).
  void closure(State* s, std::vector<int>* executed_gates = nullptr) const;

  /// q still has a pending two-qubit gate, so its position matters.
  bool active(const State& s, int q) const {
    return s.next[q] <= last_two_qubit_pos_[q];
  }

  /// Device edge indices incident to at least one active qubit's position -
  /// the only SWAPs that can change cost-to-go (see file comment).
  void candidate_edges(const State& s, std::vector<int>* out) const;

  /// Swap the occupants (possibly none) of the edge's endpoints. Applying
  /// the same edge twice is the identity (used by the IDA* undo).
  void apply_swap(State* s, int edge) const;

  /// Transposition key: per-qubit prefix counts followed by, for each
  /// program qubit, its position if active and -1 otherwise.
  std::vector<int> key(const State& s) const;

  /// Enumerate root states (no closure applied): injective placements of
  /// the interacting qubits over physical positions, non-interacting
  /// qubits filling the remaining slots in ascending order. If the full
  /// enumeration exceeds `max_roots`, appends `max_roots` seeded random
  /// placements instead and returns false (search results then certify
  /// only an upper bound). Returns true when the enumeration is complete.
  bool roots(std::int64_t max_roots, std::uint64_t seed,
             std::vector<State>* out) const;

 private:
  const layout::Problem* problem_;
  device::DistanceTable distances_;
  int num_program_ = 0;
  int num_physical_ = 0;
  int total_gates_ = 0;
  std::vector<std::vector<int>> qubit_gates_;
  std::vector<int> pos_on_q0_;
  std::vector<int> pos_on_q1_;
  std::vector<int> last_two_qubit_pos_;  // -1 when q has no two-qubit gate
  std::vector<int> interacting_;

  State make_root(const std::vector<int>& placement) const;
};

}  // namespace olsq2::plan
