// Table I reproduction: runtime comparison of the six variable-encoding
// configurations on satisfiable layout synthesis instances.
//
//   OLSQ(int)       baseline formulation, one-hot (direct) variables
//   OLSQ(bv)        baseline formulation, bit-vector variables
//   OLSQ2(int)      succinct formulation, one-hot variables
//   OLSQ2(EUF+int)  succinct + inverse-function injectivity, one-hot
//   OLSQ2(EUF+bv)   succinct + inverse-function injectivity, bit-vector
//   OLSQ2(bv)       succinct formulation, bit-vector variables
//
// Paper scale: QAOA 16-24 qubits on 7x7/8x8 grids, T_UB = 21, 24 h limit.
// Laptop scale: QAOA 8-12 qubits on 4x4/5x5 grids, T_UB = 9. The "Ratio"
// column is the speedup against OLSQ(int), as in the paper.
#include "bench/common.h"
#include "bengen/workloads.h"
#include "device/presets.h"
#include "layout/olsq2.h"

int main() {
  using namespace olsq2;
  using namespace olsq2::bench;
  using layout::EncodingConfig;
  using layout::Formulation;
  using layout::InjectivityEncoding;
  using layout::VarEncoding;

  const double budget = case_budget_ms();
  const int t_ub = 9;

  struct Config {
    const char* name;
    EncodingConfig config;
  };
  const std::vector<Config> configs = {
      {"OLSQ(int)",
       {Formulation::kOlsqBaseline, VarEncoding::kOneHot,
        InjectivityEncoding::kPairwise}},
      {"OLSQ(bv)",
       {Formulation::kOlsqBaseline, VarEncoding::kBinary,
        InjectivityEncoding::kPairwise}},
      {"OLSQ2(int)",
       {Formulation::kOlsq2, VarEncoding::kOneHot,
        InjectivityEncoding::kPairwise}},
      {"OLSQ2(EUF+int)",
       {Formulation::kOlsq2, VarEncoding::kOneHot,
        InjectivityEncoding::kChanneling}},
      {"OLSQ2(EUF+bv)",
       {Formulation::kOlsq2, VarEncoding::kBinary,
        InjectivityEncoding::kChanneling}},
      {"OLSQ2(bv)",
       {Formulation::kOlsq2, VarEncoding::kBinary,
        InjectivityEncoding::kPairwise}},
  };

  std::cout << "=== Table I: integer vs bit-vector vs EUF encodings ===\n"
            << "(QAOA on grid architectures, depth horizon " << t_ub
            << ", unconstrained SWAP count; budget " << budget / 1000.0
            << "s per cell; Ratio = speedup vs OLSQ(int))\n\n";

  std::vector<std::string> headers = {"grid", "qubit/gate"};
  for (const auto& c : configs) {
    headers.push_back(c.name);
    headers.push_back("Ratio");
  }
  Table table(headers, 15);

  std::vector<double> total_ratio(configs.size(), 0.0);
  std::vector<int> ratio_count(configs.size(), 0);

  for (const int side : {4, 5}) {
    const device::Device dev = device::grid(side, side);
    for (const int n : {8, 10, 12}) {
      const circuit::Circuit qaoa = bengen::qaoa_3regular(n, 1);
      const layout::Problem problem{&qaoa, &dev, 1};
      std::vector<std::string> row = {
          dev.name(),
          std::to_string(n) + "/" + std::to_string(qaoa.num_gates())};
      double baseline_ms = -1;
      for (std::size_t i = 0; i < configs.size(); ++i) {
        const layout::Result r =
            layout::solve_fixed(problem, t_ub, -1, configs[i].config,
                                layout::Deadline(budget));
        row.push_back(fmt_ms(r.wall_ms, !r.solved));
        if (i == 0) baseline_ms = r.solved ? r.wall_ms : -1;
        if (r.solved && baseline_ms > 0) {
          const double ratio = baseline_ms / r.wall_ms;
          row.push_back(fmt_ratio(ratio));
          total_ratio[i] += ratio;
          ratio_count[i]++;
        } else {
          row.push_back("-");
        }
      }
      table.print_row(row);
    }
  }

  std::vector<std::string> avg_row = {"Avg.", ""};
  for (std::size_t i = 0; i < configs.size(); ++i) {
    avg_row.push_back("");
    avg_row.push_back(ratio_count[i] > 0
                          ? fmt_ratio(total_ratio[i] / ratio_count[i])
                          : "-");
  }
  table.print_row(avg_row);
  return 0;
}
