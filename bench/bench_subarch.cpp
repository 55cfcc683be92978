// Subarchitecture-ladder acceptance benchmark (the PR's headline number):
// certified swap-optimal solves on 100+ qubit devices through extraction +
// lift (src/subarch) vs the direct TB-OLSQ2 encoding at the SAME budget.
// On the heavy-hex/grid flagship cases the direct encoding cannot certify
// within the budget (it either times out in the descent or fails to find
// any solution), while the ladder certifies in milliseconds and the lifted
// result passes the full-device verifier.
//
// Emits BENCH_subarch.json for the benchdiff regression gate
// (bench/baselines/BENCH_subarch.json is the pinned floor): per case
// "solved" encodes certified-and-verified-on-the-full-device (a
// correctness key), "headline" rows additionally pin that the direct
// encoding did NOT certify at the same budget, and the subarch/direct wall
// times ride along as timing keys.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bengen/workloads.h"
#include "device/presets.h"
#include "layout/tb.h"
#include "layout/verifier.h"
#include "subarch/solve.h"

namespace {

using namespace olsq2;

struct Case {
  std::string name;
  circuit::Circuit circuit;
  device::Device device;
  int swap_duration = 1;
  /// Flagship rows: the baseline pins that the direct encoding cannot
  /// certify these within the budget while the ladder does.
  bool headline = false;
};

std::vector<Case> cases() {
  const device::Device eagle = device::ibm_eagle127();
  const device::Device grid8 = device::grid(8, 8);
  std::vector<Case> out;
  // Parity rows: both paths certify; the ladder should not be slower in
  // any way that matters.
  out.push_back({"ghz5/eagle127", bengen::ghz(5), eagle, 3, false});
  out.push_back({"ghz6/grid8x8", bengen::ghz(6), grid8, 1, false});
  // Headline rows: star/clique interaction graphs that need SWAPs. The
  // direct 127-qubit encoding burns the whole budget proving nothing
  // (bv: finds the 2-SWAP incumbent but cannot close optimality; K4:
  // finds no solution at all), the ladder certifies in milliseconds.
  out.push_back({"bvstar5/eagle127", bengen::bernstein_vazirani(5, 0b11111),
                 eagle, 3, true});
  out.push_back({"qaoaK4/eagle127", bengen::qaoa_3regular(4, 7), eagle, 1,
                 true});
  out.push_back({"qaoaK4/grid8x8", bengen::qaoa_3regular(4, 7), grid8, 1,
                 true});
  out.push_back({"bvstar5/grid8x8", bengen::bernstein_vazirani(5, 0b11111),
                 grid8, 3, true});
  // A realistic local workload: random connected region of the heavy-hex
  // lattice plus one cross-region gate (the fuzz generator's large-device
  // shape, bengen::region_workload).
  out.push_back({"region7/eagle127",
                 bengen::region_workload(eagle, 7, 16, 1, 3), eagle, 1,
                 false});
  return out;
}

struct Row {
  std::string name;
  bool headline_case = false;
  bool solved = false;    // ladder certified AND full-device verifier green
  bool headline = false;  // solved AND the direct encoding did not certify
  bool direct_certified = false;
  int swap_count = -1;
  int direct_swaps = -1;
  double subarch_ms = 0.0;
  double direct_ms = 0.0;
  int sub_qubits = 0;
  double reduction_ratio = 0.0;
  std::int64_t probes = 0;
  std::int64_t library_hits = 0;
  std::int64_t dominated = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  double budget_ms = 2000.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--budget-ms=", 0) == 0) {
      budget_ms = std::atof(arg.c_str() + 12);
    } else {
      std::cerr << "usage: bench_subarch [--out=FILE] [--budget-ms=N]\n";
      return 2;
    }
  }

  std::vector<Row> rows;
  bench::Table table({"case", "swaps", "subarch_ms", "direct_ms",
                      "direct_cert", "sub_q", "probes", "dominated",
                      "headline"});
  for (Case& c : cases()) {
    Row row;
    row.name = c.name;
    row.headline_case = c.headline;
    const layout::Problem problem{&c.circuit, &c.device, c.swap_duration};

    layout::OptimizerOptions options;
    options.time_budget_ms = budget_ms;
    subarch::SubarchOutcome outcome;
    double t0 = bench::now_ms();
    const layout::Result lifted =
        subarch::tb_synthesize_swap_optimal(problem, {}, options, {}, &outcome);
    row.subarch_ms = bench::now_ms() - t0;
    if (lifted.solved) row.swap_count = lifted.swap_count;
    row.sub_qubits = outcome.sub_qubits;
    row.reduction_ratio = outcome.reduction_ratio;
    row.probes = outcome.probes;
    row.library_hits = outcome.library_hits;
    row.dominated = outcome.dominated;
    const bool verified =
        lifted.solved &&
        layout::verify_transition_based(problem, lifted).ok;
    row.solved = outcome.certified && verified;

    t0 = bench::now_ms();
    const layout::Result direct =
        layout::tb_synthesize_swap_optimal(problem, {}, options);
    row.direct_ms = bench::now_ms() - t0;
    row.direct_certified = direct.solved && !direct.hit_budget;
    if (direct.solved) row.direct_swaps = direct.swap_count;
    // Agreement whenever the direct engine did certify.
    if (row.direct_certified && row.solved &&
        direct.swap_count != lifted.swap_count) {
      std::cerr << "bench_subarch: OPTIMUM DISAGREEMENT on " << row.name
                << ": subarch " << lifted.swap_count << " vs direct "
                << direct.swap_count << "\n";
      row.solved = false;
    }
    row.headline = row.solved && !row.direct_certified;

    table.print_row({row.name, std::to_string(row.swap_count),
                     std::to_string(row.subarch_ms).substr(0, 7),
                     std::to_string(row.direct_ms).substr(0, 7),
                     row.direct_certified ? "yes" : "no",
                     std::to_string(row.sub_qubits),
                     std::to_string(row.probes),
                     std::to_string(row.dominated),
                     row.headline ? "YES" : "-"});
    rows.push_back(row);
  }

  bool ok = true;
  int headlines = 0;
  for (const Row& row : rows) {
    ok = ok && row.solved;
    if (row.headline_case) {
      if (!row.headline) {
        std::cerr << "bench_subarch: headline case " << row.name
                  << " lost its edge (direct certified within budget or "
                     "ladder failed)\n";
      }
      headlines += row.headline ? 1 : 0;
    }
  }
  if (headlines == 0) {
    std::cerr << "bench_subarch: NO headline case demonstrated the "
                 "acceptance criterion\n";
    ok = false;
  }
  std::cout << headlines << " headline case(s): certified on the full "
            << "device where the direct encoding blew the budget\n";

  if (!out_path.empty()) {
    std::ostringstream json;
    json << "{" << bench::json_stamp("subarch")
         << "\"budget_ms\":" << budget_ms
         << ",\"headline_count\":" << headlines << ",\"cases\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      if (i > 0) json << ",";
      json << "{\"name\":\"" << row.name << "\""
           << ",\"solved\":" << (row.solved ? "true" : "false")
           << ",\"headline\":" << (row.headline ? "true" : "false")
           << ",\"swap_count\":" << row.swap_count
           << ",\"subarch_ms\":" << row.subarch_ms
           << ",\"direct_ms\":" << row.direct_ms
           << ",\"sub_qubits\":" << row.sub_qubits
           << ",\"reduction_ratio\":" << row.reduction_ratio
           << ",\"probes\":" << row.probes
           << ",\"library_hits\":" << row.library_hits
           << ",\"dominated\":" << row.dominated << "}";
    }
    json << "]}\n";
    std::ofstream out(out_path);
    out << json.str();
    std::cout << "wrote " << out_path << "\n";
  }
  return ok ? 0 : 1;
}
