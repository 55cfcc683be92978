// Standalone DIMACS SAT solver CLI over the library's CDCL engine - the
// substrate that replaces Z3's SAT core in this reproduction. Useful for
// cross-checking exported layout-synthesis instances with other solvers.
//
//   $ ./sat_solve <file.cnf> [--proof] [--budget-ms N]
//
// Prints "s SATISFIABLE" + a "v" model line, or "s UNSATISFIABLE" (with a
// self-checked DRAT refutation when --proof is given), or "s UNKNOWN".
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "sat/dimacs.h"
#include "sat/drat_check.h"
#include "sat/proof.h"
#include "sat/solver.h"

int main(int argc, char** argv) {
  using namespace olsq2::sat;
  if (argc < 2) {
    std::cerr << "usage: " << argv[0] << " <file.cnf> [--proof] [--budget-ms N]\n";
    return 2;
  }
  bool want_proof = false;
  double budget_ms = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--proof") == 0) {
      want_proof = true;
    } else if (std::strcmp(argv[i], "--budget-ms") == 0 && i + 1 < argc) {
      budget_ms = std::atof(argv[++i]);
    } else {
      std::cerr << "unknown flag: " << argv[i] << "\n";
      return 2;
    }
  }

  std::ifstream in(argv[1]);
  if (!in) {
    std::cerr << "cannot open " << argv[1] << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  try {
    const DimacsProblem problem = parse_dimacs(buffer.str());
    Solver solver;
    Proof proof;
    if (want_proof) {
      solver.set_proof(&proof);
      solver.set_clause_log(true);
    }
    for (int i = 0; i < problem.num_vars; ++i) solver.new_var();
    for (const auto& clause : problem.clauses) solver.add_clause(clause);
    if (budget_ms > 0) {
      solver.set_time_budget(std::chrono::milliseconds(
          static_cast<std::int64_t>(budget_ms)));
    }
    const LBool status = solver.solve();
    const Stats& stats = solver.stats();
    std::cerr << "c conflicts " << stats.conflicts << " decisions "
              << stats.decisions << " propagations " << stats.propagations
              << "\n";
    std::cerr << "c restarts " << stats.restarts << " learnt "
              << stats.learnt_clauses << " removed " << stats.removed_clauses
              << " binary " << stats.binary_clauses << " max-level "
              << stats.max_decision_level << "\n";
    if (status == LBool::kTrue) {
      std::vector<LBool> model(problem.num_vars);
      for (int v = 0; v < problem.num_vars; ++v) model[v] = solver.model_value(v);
      std::cout << "s SATISFIABLE\nv ";
      for (int v = 0; v < problem.num_vars; ++v) {
        std::cout << (model[v] == LBool::kTrue ? v + 1 : -(v + 1)) << " ";
      }
      std::cout << "0\n";
      return 10;
    }
    if (status == LBool::kFalse) {
      std::cout << "s UNSATISFIABLE\n";
      if (want_proof) {
        const DratCheckResult check =
            check_drat(solver.clause_log(), proof);
        std::cerr << "c proof steps " << proof.size() << ", RUP check "
                  << (check.all_steps_valid && check.proves_unsat ? "OK"
                                                                  : "FAILED")
                  << "\n";
        std::cout << proof.to_drat();
      }
      return 20;
    }
    std::cout << "s UNKNOWN\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
