// Table II reproduction: cardinality-constraint encodings for the SWAP
// bound (paper Eq. 5).
//
//   OLSQ            baseline formulation, sequential-counter bound
//   TB-OLSQ         transition-based baseline (space variables)
//   OLSQ2(AtMost)   succinct formulation + adder-network pseudo-Boolean
//                   bound (the Z3 AtMost / PB-theory analog)
//   OLSQ2(CNF)      succinct formulation + sequential-counter CNF bound
//                   (the paper's choice)
//   TB-OLSQ2(CNF)   transition-based succinct formulation + CNF bound
//
// Paper scale: QAOA 16-24q on a 5x5 grid, swap limit 30, depth 21 (5 blocks
// for the TB rows). Laptop scale: QAOA 8-12q on a 4x4 grid, swap limit 10,
// depth horizon 9, 4 blocks. Ratio = speedup vs OLSQ.
#include "bench/common.h"
#include "bengen/workloads.h"
#include "device/presets.h"
#include "layout/olsq2.h"
#include "layout/tb.h"

int main() {
  using namespace olsq2;
  using namespace olsq2::bench;
  using layout::CardEncoding;
  using layout::EncodingConfig;
  using layout::Formulation;

  const double budget = case_budget_ms();
  const int t_ub = 9;
  const int blocks = 4;
  const int swap_limit = 10;

  const device::Device dev = device::grid(4, 4);

  std::cout << "=== Table II: AtMost (PB adder) vs CNF cardinality ===\n"
            << "(QAOA on " << dev.name() << ", swap limit " << swap_limit
            << ", depth horizon " << t_ub << " / " << blocks
            << " blocks; budget " << budget / 1000.0 << "s per cell)\n\n";

  Table table({"qubit/gate", "OLSQ", "TB-OLSQ", "OLSQ2(AtMost)", "OLSQ2(CNF)",
               "TB-OLSQ2(CNF)", "best ratio"},
              15);

  EncodingConfig olsq_seq;
  olsq_seq.formulation = Formulation::kOlsqBaseline;
  olsq_seq.cardinality = CardEncoding::kSeqCounter;

  EncodingConfig tb_olsq = olsq_seq;  // baseline TB: space variables + CNF

  EncodingConfig olsq2_atmost;
  olsq2_atmost.cardinality = CardEncoding::kAdder;

  EncodingConfig olsq2_cnf;
  olsq2_cnf.cardinality = CardEncoding::kSeqCounter;

  EncodingConfig tb_olsq2_cnf = olsq2_cnf;

  for (const int n : {8, 10, 12}) {
    const circuit::Circuit qaoa = bengen::qaoa_3regular(n, 1);
    const layout::Problem problem{&qaoa, &dev, 1};
    std::vector<std::string> row = {std::to_string(n) + "/" +
                                    std::to_string(qaoa.num_gates())};
    const layout::Result olsq =
        layout::solve_fixed(problem, t_ub, swap_limit, olsq_seq,
                            layout::Deadline(budget));
    row.push_back(fmt_ms(olsq.wall_ms, !olsq.solved));
    const layout::Result tbo =
        layout::tb_solve_fixed(problem, blocks, swap_limit, tb_olsq,
                               layout::Deadline(budget));
    row.push_back(fmt_ms(tbo.wall_ms, !tbo.solved));
    const layout::Result atmost =
        layout::solve_fixed(problem, t_ub, swap_limit, olsq2_atmost,
                            layout::Deadline(budget));
    row.push_back(fmt_ms(atmost.wall_ms, !atmost.solved));
    const layout::Result cnf =
        layout::solve_fixed(problem, t_ub, swap_limit, olsq2_cnf,
                            layout::Deadline(budget));
    row.push_back(fmt_ms(cnf.wall_ms, !cnf.solved));
    const layout::Result tb2 =
        layout::tb_solve_fixed(problem, blocks, swap_limit, tb_olsq2_cnf,
                               layout::Deadline(budget));
    row.push_back(fmt_ms(tb2.wall_ms, !tb2.solved));
    if (olsq.solved && tb2.solved && tb2.wall_ms > 0) {
      row.push_back(fmt_ratio(olsq.wall_ms / tb2.wall_ms));
    } else {
      row.push_back("-");
    }
    table.print_row(row);
  }
  return 0;
}
