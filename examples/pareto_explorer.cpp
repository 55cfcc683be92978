// Depth/SWAP trade-off exploration (paper §III-B2): run the 2-D Pareto
// sweep on a QAOA instance and print the frontier the optimizer visits.
//
//   $ ./pareto_explorer [num_qubits] [grid_rows] [grid_cols] [seed]
#include <cstdlib>
#include <iostream>

#include "bengen/workloads.h"
#include "device/presets.h"
#include "layout/olsq2.h"
#include "layout/verifier.h"

int main(int argc, char** argv) {
  using namespace olsq2;
  const int n = argc > 1 ? std::atoi(argv[1]) : 8;
  const int rows = argc > 2 ? std::atoi(argv[2]) : 3;
  const int cols = argc > 3 ? std::atoi(argv[3]) : 3;
  const std::uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;

  const circuit::Circuit qaoa = bengen::qaoa_3regular(n, seed);
  const device::Device dev = device::grid(rows, cols);
  if (qaoa.num_qubits() > dev.num_qubits()) {
    std::cerr << "grid too small for " << n << " program qubits\n";
    return 2;
  }
  const layout::Problem problem{&qaoa, &dev, 1};

  layout::OptimizerOptions options;
  options.time_budget_ms = 120000;

  std::cout << "sweeping " << qaoa.label() << " on " << dev.name() << "\n";
  const layout::Result r = layout::synthesize_swap_optimal(problem, {}, options);
  if (!r.solved) {
    std::cerr << "budget exhausted before the first solution\n";
    return 1;
  }
  std::cout << "\n  depth bound | optimal swaps\n  ------------+--------------\n";
  for (const auto& [depth, swaps] : r.pareto) {
    std::cout << "  " << depth << "\t      | " << swaps << "\n";
  }
  std::cout << "\nbest: depth " << r.depth << " with " << r.swap_count
            << " swaps (" << r.sat_calls << " SAT calls, " << r.wall_ms
            << " ms)\n";
  const bool ok = layout::verify(problem, r).ok;
  std::cout << "verifier: " << (ok ? "OK" : "INVALID") << "\n";
  return ok ? 0 : 1;
}
