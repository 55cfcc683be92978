#include "serve/transfer.h"

#include <stdexcept>
#include <vector>

namespace olsq2::serve {

layout::Result untransfer_result(const layout::Result& canonical_result,
                                 const InstanceCanon& canon,
                                 const layout::Problem& original) {
  layout::Result out = canonical_result;  // objectives + diagnostics carry over
  if (!canonical_result.solved) return out;

  const std::vector<int>& qperm = canon.circuit.qubit_perm;
  const std::vector<int> inv_dev = invert_permutation(canon.device.perm);

  for (std::size_t t = 0; t < canonical_result.mapping.size(); ++t) {
    const std::vector<int>& row_c = canonical_result.mapping[t];
    std::vector<int>& row_o = out.mapping[t];
    for (std::size_t q = 0; q < row_o.size(); ++q) {
      row_o[q] = inv_dev[row_c[qperm[q]]];
    }
  }

  const std::vector<int>& gperm = canon.circuit.gate_perm;
  for (std::size_t g = 0; g < out.gate_time.size(); ++g) {
    out.gate_time[g] = canonical_result.gate_time[gperm[g]];
  }

  if (!canonical_result.swaps.empty()) {
    const std::vector<int> original_edge =
        canonical_edge_order(*original.device, canon.device);
    for (layout::SwapOp& op : out.swaps) {
      if (op.edge < 0 || op.edge >= static_cast<int>(original_edge.size())) {
        // Impossible when `canon` really is this instance's witness; guard
        // against a corrupted cache entry rather than emit a bogus layout.
        throw std::runtime_error("serve: swap edge does not transfer");
      }
      op.edge = original_edge[op.edge];
    }
  }
  return out;
}

}  // namespace olsq2::serve
