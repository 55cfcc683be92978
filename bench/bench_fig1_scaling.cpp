// Fig. 1 reproduction: SAT solving time versus coupling-graph grid size and
// circuit gate count, for the OLSQ formulation (integer/one-hot variables,
// space variables) versus our OLSQ2 formulation (bit-vector variables, no
// space variables).
//
// The paper sweeps QAOA circuits of 15-36 gates over 5x5..9x9 grids with
// T_UB = 21; at laptop scale we sweep 12-18 gates over 3x3..5x5 grids with
// a satisfiable fixed depth horizon. The expected *shape* is the figure's:
// OLSQ's solve time explodes with both axes while OLSQ2 stays flat.
#include "bench/common.h"
#include "bengen/workloads.h"
#include "device/presets.h"
#include "layout/olsq2.h"

int main() {
  using namespace olsq2;
  using namespace olsq2::bench;

  const double budget = case_budget_ms();
  const int t_ub = 9;  // satisfiable horizon for every case below

  layout::EncodingConfig olsq_int;
  olsq_int.formulation = layout::Formulation::kOlsqBaseline;
  olsq_int.vars = layout::VarEncoding::kOneHot;

  layout::EncodingConfig olsq2_bv;  // defaults: OLSQ2 + binary vars

  std::cout << "=== Fig. 1: SMT-solving time vs grid size and gate count ===\n"
            << "(single satisfiable solve, depth horizon " << t_ub
            << ", unconstrained SWAP count; budget "
            << budget / 1000.0 << "s per cell)\n\n";

  for (const auto& [label, config] :
       {std::pair<const char*, layout::EncodingConfig>{"(a) OLSQ formulation",
                                                       olsq_int},
        {"(b) OLSQ2 formulation (ours)", olsq2_bv}}) {
    std::cout << label << "\n";
    Table table({"qubits/gates", "grid4x4", "grid5x5", "grid6x6"});
    for (const int n : {8, 10, 12}) {
      const circuit::Circuit qaoa = bengen::qaoa_3regular(n, 1);
      std::vector<std::string> row = {std::to_string(n) + "/" +
                                      std::to_string(qaoa.num_gates())};
      for (const int side : {4, 5, 6}) {
        const device::Device dev = device::grid(side, side);
        const layout::Problem problem{&qaoa, &dev, 1};
        const ScopedCaseTrace trace("fig1_" + config.label() + "_n" +
                                    std::to_string(n) + "_grid" +
                                    std::to_string(side));
        const layout::Result r =
            layout::solve_fixed(problem, t_ub, -1, config,
                                layout::Deadline(budget));
        row.push_back(fmt_ms(r.wall_ms, !r.solved));
      }
      table.print_row(row);
    }
    std::cout << "\n";
  }
  return 0;
}
