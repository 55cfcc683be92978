// Portfolio synthesis (paper §V future work): race several encoding +
// restart configurations on one problem across threads; the first complete
// optimum cancels the rest. While they race, the strategies share proven
// objective-bound facts, so one entry's UNSAT answer prunes the others'
// bound searches (see DESIGN.md §8).
//
//   $ ./portfolio_race [num_qubits] [grid_side] [seed]
#include <cstdlib>
#include <iostream>

#include "bengen/workloads.h"
#include "device/presets.h"
#include "layout/portfolio.h"
#include "layout/verifier.h"

int main(int argc, char** argv) {
  using namespace olsq2;
  const int n = argc > 1 ? std::atoi(argv[1]) : 10;
  const int side = argc > 2 ? std::atoi(argv[2]) : 4;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;

  const circuit::Circuit qaoa = bengen::qaoa_3regular(n, seed);
  const device::Device dev = device::grid(side, side);
  if (qaoa.num_qubits() > dev.num_qubits()) {
    std::cerr << "grid too small\n";
    return 2;
  }
  const layout::Problem problem{&qaoa, &dev, 1};

  layout::OptimizerOptions base;
  base.time_budget_ms = 120000;
  auto entries = layout::default_portfolio(layout::Objective::kDepth, base);
  std::cout << "racing " << entries.size() << " configurations on "
            << qaoa.label() << " @ " << dev.name() << ":\n";
  for (const auto& e : entries) std::cout << "  - " << e.name << "\n";

  const layout::PortfolioResult result = layout::synthesize_portfolio(
      problem, layout::Objective::kDepth, std::move(entries));

  if (!result.best.solved) {
    std::cout << "no configuration finished within budget\n";
    return 1;
  }
  std::cout << "\nwinner: entry " << result.winner << " with depth "
            << result.best.depth << " in " << result.best.wall_ms << " ms ("
            << result.best.sat_calls << " SAT calls)\n";
  for (std::size_t i = 0; i < result.all.size(); ++i) {
    const auto& r = result.all[i];
    std::cout << "  entry " << i << ": "
              << (r.solved ? (r.hit_budget ? "partial" : "complete")
                           : "cancelled/empty")
              << (r.solved ? " depth " + std::to_string(r.depth) : "") << " ("
              << r.wall_ms << " ms)\n";
  }
  const auto& t = result.traffic;
  std::cout << "bound facts: " << t.bound_facts << " recorded, "
            << t.bound_pruned << " SAT calls pruned\n";
  const bool ok = layout::verify(problem, result.best).ok;
  std::cout << "verifier: " << (ok ? "OK" : "INVALID") << "\n";
  return ok ? 0 : 1;
}
