// Ablation of the optimization-strategy choices in paper §III-B:
//   (a) incremental solving (one solver across bound iterations) vs a
//       fresh solver per iteration,
//   (b) geometric depth-bound relaxation (x1.3) vs linear (+1),
//   (c) SWAP-bound iterative *descent* from a satisfying solution vs
//       iterative *ascent* from 0 (the paper argues descent exploits the
//       monotone solution structure - every query but the last is SAT),
//   (d) CDCL restart policy (Luby vs Glucose vs alternating),
//   (e) depth descent after the first SAT: bisection of the interval
//       between the highest refuted bound and the incumbent (what
//       synthesize_depth_optimal runs) vs the paper's decrement by one,
//   (f) injectivity encoding by instance shape.
// (a)+(b), (d) and (e) run the served slots whose depth search descends:
// an instance that is SAT at T_LB ends in one call, so no choice about
// the calls after it can act there.
#include <chrono>
#include <cmath>

#include "bench/common.h"
#include "bengen/workloads.h"
#include "circuit/dependency.h"
#include "device/presets.h"
#include "layout/model.h"
#include "layout/olsq2.h"

int main() {
  using namespace olsq2;
  using namespace olsq2::bench;

  const double budget = case_budget_ms();
  const device::Device dev = device::grid(3, 3);
  const device::Device aspen = device::rigetti_aspen4();
  const device::Device grid23 = device::grid(2, 3);
  struct Row {
    std::string name;
    circuit::Circuit circ;
    const device::Device* on;
    int sd;
  };
  std::vector<Row> descending;
  for (const int seed : {2, 3}) {
    descending.push_back({"QAOA(8) seed " + std::to_string(seed) + " aspen4",
                          bengen::qaoa_3regular(8, seed), &aspen, 1});
  }
  descending.push_back({"TOF(3) grid2x3", bengen::tof(3), &grid23, 3});
  // Calls / time of one depth-optimal search.
  const auto calls_and_time = [](const layout::Result& r) {
    return r.solved ? std::to_string(r.calls.size()) + " / " +
                          fmt_ms(r.wall_ms, false)
                    : "TO";
  };

  std::cout << "=== Ablation: optimization strategies (paper §III-B) ===\n"
            << "(budget " << budget / 1000.0 << "s per cell)\n\n";

  std::cout << "--- (a)+(b) depth optimization: incremental & relaxation ---\n"
            << "(cells: calls / time)\n";
  {
    Table table({"benchmark", "incr+geom", "fresh+geom", "incr+linear"}, 24);
    for (const Row& row : descending) {
      const layout::Problem problem{&row.circ, row.on, row.sd};
      layout::OptimizerOptions incremental;
      incremental.time_budget_ms = budget;
      layout::OptimizerOptions fresh = incremental;
      fresh.incremental = false;
      layout::OptimizerOptions linear = incremental;
      linear.relax_small = linear.relax_large = 1.0;  // +1 steps
      const auto a = layout::synthesize_depth_optimal(problem, {}, incremental);
      const auto b = layout::synthesize_depth_optimal(problem, {}, fresh);
      const auto c = layout::synthesize_depth_optimal(problem, {}, linear);
      table.print_row(
          {row.name, calls_and_time(a), calls_and_time(b), calls_and_time(c)});
    }
  }

  std::cout << "\n--- (c) SWAP bound at fixed optimal depth: descent vs "
               "ascent ---\n"
            << "(QAOA on " << dev.name() << ")\n";
  // Both directions run on ONE incrementally-solved model with totalizer
  // assumption bounds; only the query order differs. Descent (the paper's
  // choice) issues SAT queries until the final UNSAT; ascent issues UNSAT
  // queries until the first SAT.
  {
    Table table({"benchmark", "descent", "ascent", "optimal swaps"}, 15);
    for (const int n : {6, 8}) {
      const circuit::Circuit qaoa = bengen::qaoa_3regular(n, 1);
      const layout::Problem problem{&qaoa, &dev, 1};
      layout::OptimizerOptions options;
      options.time_budget_ms = budget;
      const auto depth_opt =
          layout::synthesize_depth_optimal(problem, {}, options);
      if (!depth_opt.solved) {
        table.print_row({qaoa.label(), "TO", "TO", "-"});
        continue;
      }
      const circuit::DependencyGraph deps(qaoa);
      const int horizon = std::max(deps.default_upper_bound(), depth_opt.depth);
      const int depth_bound = depth_opt.depth;

      auto run_direction = [&](bool descending, double& elapsed) {
        layout::Model model(problem, horizon, {});
        model.solver().set_time_budget(std::chrono::milliseconds(
            static_cast<std::int64_t>(budget)));
        const double t0 = now_ms();
        int optimum = -1;
        if (descending) {
          // First find any solution under the depth bound, then tighten.
          std::vector<layout::Lit> assume = {model.depth_bound(depth_bound)};
          if (model.solver().solve(assume) != sat::LBool::kTrue) {
            elapsed = now_ms() - t0;
            return -1;
          }
          int bound = model.count_swaps();
          optimum = bound;
          while (bound > 0) {
            assume = {model.depth_bound(depth_bound),
                      model.swap_bound(bound - 1)};
            const auto status = model.solver().solve(assume);
            if (status != sat::LBool::kTrue) break;
            bound = std::min(bound - 1, model.count_swaps());
            optimum = model.count_swaps();
          }
        } else {
          for (int bound = 0;; ++bound) {
            const std::vector<layout::Lit> assume = {
                model.depth_bound(depth_bound), model.swap_bound(bound)};
            const auto status = model.solver().solve(assume);
            if (status == sat::LBool::kTrue) {
              optimum = model.count_swaps();
              break;
            }
            if (status == sat::LBool::kUndef) break;  // budget
          }
        }
        elapsed = now_ms() - t0;
        return optimum;
      };

      double descent_ms = 0, ascent_ms = 0;
      const int down = run_direction(true, descent_ms);
      const int up = run_direction(false, ascent_ms);
      table.print_row({qaoa.label(), fmt_ms(descent_ms, down < 0),
                       fmt_ms(ascent_ms, up < 0),
                       down >= 0 ? std::to_string(down) : "-"});
    }
  }

  std::cout << "\n--- (e) depth descent: bisect vs linear decrement ---\n";
  // Both directions run on ONE incrementally-solved model and share the
  // opening: T_LB, then x1.3 relaxation until the first SAT. From there the
  // paper decrements the bound by one until the first UNSAT; bisection asks
  // the midpoint of (highest refuted, incumbent] until it holds one bound.
  // Neither asks a bound the opening refuted. Cells: calls / conflicts / time.
  {
    Table table({"benchmark", "bisect", "linear", "optimal depth"}, 24);
    for (const Row& row : descending) {
      const layout::Problem problem{&row.circ, row.on, row.sd};
      const circuit::DependencyGraph deps(row.circ);
      const int t_lb = deps.longest_chain();
      const int horizon = deps.default_upper_bound();
      const double relax = layout::OptimizerOptions{}.relax_small;

      // Returns the optimal depth (-1 on budget) and fills `cell`.
      auto run_descent = [&](bool bisect, std::string& cell) {
        layout::Model model(problem, horizon, {});
        model.solver().set_time_budget(std::chrono::milliseconds(
            static_cast<std::int64_t>(budget)));
        const double t0 = now_ms();
        int calls = 0;
        int refuted = t_lb - 1;
        int incumbent = -1;
        // Answers depth <= t, moving the interval's matching end.
        auto ask = [&](int t) {
          ++calls;
          const std::vector<layout::Lit> assume = {model.depth_bound(t)};
          const sat::LBool status = model.solver().solve(assume);
          if (status == sat::LBool::kTrue) incumbent = model.extract().depth;
          if (status == sat::LBool::kFalse) refuted = t;
          return status != sat::LBool::kUndef;
        };
        for (int t = t_lb; incumbent < 0 && refuted < horizon;) {
          if (!ask(t)) break;
          t = std::min(horizon,
                       std::max(t + 1, static_cast<int>(std::ceil(relax * t))));
        }
        bool done = incumbent >= 0;
        while (done && incumbent - 1 > refuted) {
          done = ask(bisect ? refuted + (incumbent - refuted) / 2
                            : incumbent - 1);
        }
        cell = done ? std::to_string(calls) + " / " +
                          std::to_string(model.solver().stats().conflicts) +
                          " / " + fmt_ms(now_ms() - t0, false)
                    : "TO";
        return done ? incumbent : -1;
      };

      std::string bisect_cell, linear_cell;
      const int bisected = run_descent(true, bisect_cell);
      const int linear = run_descent(false, linear_cell);
      table.print_row({row.name, bisect_cell, linear_cell,
                       bisected == linear && bisected >= 0
                           ? std::to_string(bisected)
                           : "-"});
    }
  }

  std::cout << "\n--- (f) injectivity encoding by instance shape ---\n";
  // Pairwise forbidden-pair clauses vs inverse-function channeling vs
  // commander AMO-per-qubit: which wins depends on |Q| relative to |P|.
  {
    Table table({"instance", "pairwise", "channeling", "AMO/qubit"}, 15);
    const device::Device syc = device::google_sycamore54();
    struct Shape {
      const char* name;
      circuit::Circuit circ;
      const device::Device* on;
      int sd;
    };
    bengen::QuekoSpec spec;
    spec.depth = 4;
    spec.gate_count = 50;
    spec.seed = 1;
    std::vector<Shape> shapes;
    shapes.push_back({"QFT(4) smallQ/bigP", bengen::qft(4), &syc, 3});
    shapes.push_back({"QUEKO(54) bigQ", bengen::queko(syc, spec), &syc, 3});
    for (auto& shape : shapes) {
      const layout::Problem problem{&shape.circ, shape.on, shape.sd};
      std::vector<std::string> cells = {shape.name};
      for (const auto inj : {layout::InjectivityEncoding::kPairwise,
                             layout::InjectivityEncoding::kChanneling,
                             layout::InjectivityEncoding::kAmoPerQubit}) {
        layout::EncodingConfig config;
        config.injectivity = inj;
        layout::OptimizerOptions options;
        options.time_budget_ms = budget;
        const auto r = layout::synthesize_depth_optimal(problem, config, options);
        cells.push_back(fmt_ms(r.wall_ms, !r.solved));
      }
      table.print_row(cells);
    }
  }

  std::cout << "\n--- (d) restart policy (depth optimization) ---\n"
            << "(cells: calls / time)\n";
  {
    Table table({"benchmark", "alternating", "glucose", "luby"}, 24);
    for (const Row& row : descending) {
      const layout::Problem problem{&row.circ, row.on, row.sd};
      std::vector<std::string> cells = {row.name};
      for (const auto policy : {sat::Solver::RestartPolicy::kAlternating,
                                sat::Solver::RestartPolicy::kGlucose,
                                sat::Solver::RestartPolicy::kLuby}) {
        layout::OptimizerOptions options;
        options.time_budget_ms = budget;
        options.restart_policy = policy;
        cells.push_back(calls_and_time(
            layout::synthesize_depth_optimal(problem, {}, options)));
      }
      table.print_row(cells);
    }
  }
  return 0;
}
