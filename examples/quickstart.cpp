// Quickstart: synthesize the paper's running example - a Toffoli gate
// decomposition (Fig. 2) onto IBM QX2 (Fig. 3) - and print the optimal
// schedule, mapping, and routed OpenQASM.
//
//   $ ./quickstart
#include <iostream>

#include "device/presets.h"
#include "layout/certify.h"
#include "layout/export.h"
#include "layout/olsq2.h"
#include "layout/verifier.h"
#include "qasm/writer.h"

int main() {
  using namespace olsq2;

  // The 15-gate Clifford+T Toffoli network.
  circuit::Circuit toffoli(3, "toffoli");
  toffoli.add_gate("h", 2);
  toffoli.add_gate("cx", 1, 2);
  toffoli.add_gate("tdg", 2);
  toffoli.add_gate("cx", 0, 2);
  toffoli.add_gate("t", 2);
  toffoli.add_gate("cx", 1, 2);
  toffoli.add_gate("tdg", 2);
  toffoli.add_gate("cx", 0, 2);
  toffoli.add_gate("t", 1);
  toffoli.add_gate("t", 2);
  toffoli.add_gate("h", 2);
  toffoli.add_gate("cx", 0, 1);
  toffoli.add_gate("t", 0);
  toffoli.add_gate("tdg", 1);
  toffoli.add_gate("cx", 0, 1);

  const device::Device qx2 = device::ibm_qx2();
  const layout::Problem problem{&toffoli, &qx2, /*swap_duration=*/3};

  std::cout << "== depth-optimal synthesis ==\n";
  const layout::Result depth_opt = layout::synthesize_depth_optimal(problem);
  std::cout << layout::format_result(problem, depth_opt);

  std::cout << "\n== swap-optimal synthesis (2-D Pareto sweep) ==\n";
  const layout::Result swap_opt = layout::synthesize_swap_optimal(problem);
  std::cout << layout::format_result(problem, swap_opt);

  // Always verify before trusting a result.
  const layout::Verdict verdict = layout::verify(problem, swap_opt);
  std::cout << "\nverifier: " << (verdict.ok ? "OK" : "INVALID") << "\n";

  // Optimality is machine-checkable: re-derive "depth-1 is impossible" at
  // the optimum's own horizon with DRAT proof logging and replay it through
  // the independent RUP checker.
  const layout::Certificate cert = layout::certify_depth_lower_bound(
      problem, depth_opt.depth, depth_opt.depth - 1);
  std::cout << "optimality certificate (depth " << depth_opt.depth - 1
            << " infeasible): " << (cert.certified() ? "CHECKED" : "FAILED")
            << " (" << cert.proof_steps << " proof steps, " << cert.wall_ms
            << " ms)\n";

  std::cout << "\n== routed circuit (OpenQASM 2.0, physical qubits) ==\n";
  std::cout << qasm::write(layout::to_physical_circuit(problem, swap_opt));
  return verdict.ok ? 0 : 1;
}
