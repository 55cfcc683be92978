// Circuit-driven subarchitecture extraction (DESIGN.md §14).
//
// A layout instance on a 100+ qubit device rarely *uses* more than a
// handful of physical qubits: in any SWAP-minimal solution every SWAP
// moves at least one program qubit that interacts (else the SWAP is
// removable), so the region a k-SWAP solution touches is a connected
// induced subgraph with at most |Q| + k vertices (§14.2 gives the full
// argument). Solving on candidate subarchitectures of exactly that size
// and lifting the answer back is therefore optimality-preserving - the
// approach of "Practical Subarchitectures for Optimal Quantum Layout
// Synthesis" (arxiv 2507.12976).
//
// This header provides the combinatorial half: enumerate *every*
// connected induced m-vertex subgraph of the device (ESU / Wernicke
// enumeration, each vertex set visited exactly once), quotient the sets
// by graph isomorphism through the WL canonicalizer (serve/canonical.h),
// and keep one concrete embedding per class as the lift witness. The
// certification ladder that consumes covers lives in subarch/solve.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "device/device.h"
#include "serve/canonical.h"

namespace olsq2::subarch {

/// A connected subdevice embedded in a full device. `device` is the
/// induced subgraph relabeled to 0..m-1; `to_full[sub]` is the original
/// physical index - the permutation witness every lifted mapping and SWAP
/// is pushed through (subarch/lift.h).
struct SubDevice {
  device::Device device{"empty", 0, {}};
  std::vector<int> to_full;
};

/// One isomorphism class of the cover: a concrete representative
/// embedding plus its canonical form (the library key), and how many
/// embeddings collapsed into the class.
struct CoverClass {
  SubDevice rep;
  serve::DeviceCanon canon;
  std::int64_t members = 0;
  int induced_edges = 0;
};

struct ExtractOptions {
  /// Abort enumeration (complete=false) after this many vertex sets.
  std::int64_t max_subgraphs = 2'000'000;
  /// Largest subgraph size worth enumerating; beyond it the caller falls
  /// back to the direct solve (ESU cost grows with the count of connected
  /// sets, which explodes as m approaches the device size). Sizes above 16
  /// never enumerate: the per-set signature packs the m(m-1)/2 vertex pairs
  /// into 128 bits.
  int max_sub_qubits = 12;
};

/// All connected induced m-vertex subgraphs of `dev`, deduplicated to
/// isomorphism classes. `complete` is true iff enumeration finished
/// within the budget AND every class key is exact - only then may the
/// cover certify optimality. Classes are ordered densest-first (most
/// induced edges), the pruning order that finds SAT embeddings earliest
/// without ever dropping a class.
struct Cover {
  int size = 0;
  bool complete = false;
  std::int64_t enumerated = 0;  // raw connected vertex sets visited
  std::vector<CoverClass> classes;
};

/// Enumerate (or fetch from the process-wide cover cache) the size-m
/// cover of `dev`. Thread-safe; covers depend only on the device
/// structure, so one enumeration serves every request in the process.
Cover enumerate_cover(const device::Device& dev, int m,
                      const ExtractOptions& options = {});

/// True when every two-qubit-gate endpoint lies in one connected
/// component of the circuit's interaction graph (the precondition of the
/// §14.2 region argument) and the circuit has at least one 2q gate.
bool interaction_connected(const circuit::Circuit& circuit);

/// Build the induced subdevice on a sorted vertex set (the concrete
/// embedding half of a CoverClass).
SubDevice make_subdevice(const device::Device& dev,
                         std::vector<int> vertices);

/// Heuristic m-vertex region for the non-certified compositions
/// (windowed deep-circuit synthesis): greedy growth from a max-degree
/// seed, each step adding the frontier vertex that gains the most
/// induced edges. Deterministic.
SubDevice greedy_region(const device::Device& dev, int m);

}  // namespace olsq2::subarch
