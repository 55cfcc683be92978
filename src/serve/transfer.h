// Transfer of synthesis results between an instance and its canonical
// representative (the inverse direction of the relabeling witness).
//
// The cache solves and stores results in canonical space. On a hit for an
// original instance O with witness (qubit_perm, gate_perm, device perm),
// the stored result R_c is mapped back:
//   mapping_O[t][q]  = dev_perm^-1[ mapping_c[t][qubit_perm[q]] ]
//   gate_time_O[g]   = gate_time_c[gate_perm[g]]
//   swap (e_c, t)    -> original edge with endpoints dev_perm^-1 applied
// Objective values (depth, swap count, pareto points) are invariant; the
// metamorphic relations behind this are exactly fuzz/metamorphic.h's
// relabel_program_qubits / relabel_physical_qubits / commuting_reorder.
#pragma once

#include "layout/types.h"
#include "serve/canonical.h"

namespace olsq2::serve {

/// Map a canonical-space result back onto the original instance. SWAP edge
/// ids translate through canonical_edge_order(`original.device`, witness),
/// so the caller only needs the witness that produced the cache key.
layout::Result untransfer_result(const layout::Result& canonical_result,
                                 const InstanceCanon& canon,
                                 const layout::Problem& original);

}  // namespace olsq2::serve
