// Tests for the inter-restart inprocessing pipeline (sat/inprocess.cpp):
// equivalent-literal substitution, subsumption / self-subsuming resolution,
// vivification, the tick budget, DRAT coverage of every rewrite, and
// end-to-end model correctness with rounds forced onto short schedules.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sat/drat_check.h"
#include "sat/proof.h"
#include "sat/solver.h"

namespace olsq2::sat {
namespace {

Lit pos(int v) { return Lit::pos(static_cast<Var>(v)); }
Lit neg(int v) { return Lit::neg(static_cast<Var>(v)); }

bool model_satisfies_log(const Solver& solver) {
  for (const Clause& clause : solver.clause_log()) {
    bool satisfied = false;
    for (const Lit l : clause) {
      if (solver.model_value(l) == LBool::kTrue) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

void add_pigeonhole(Solver& solver, int pigeons, int holes) {
  std::vector<std::vector<Var>> var(pigeons, std::vector<Var>(holes));
  for (int i = 0; i < pigeons; ++i) {
    for (int j = 0; j < holes; ++j) var[i][j] = solver.new_var();
  }
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> clause;
    for (int j = 0; j < holes; ++j) clause.push_back(Lit::pos(var[i][j]));
    solver.add_clause(clause);
  }
  for (int j = 0; j < holes; ++j) {
    for (int i = 0; i < pigeons; ++i) {
      for (int k = i + 1; k < pigeons; ++k) {
        solver.add_clause({Lit::neg(var[i][j]), Lit::neg(var[k][j])});
      }
    }
  }
}

TEST(InprocessTest, EquivalentLiteralSubstitution) {
  // x0 <-> x1 through the binary implication cycle; clauses mentioning both
  // variables collapse onto the representative.
  Solver solver;
  solver.set_clause_log(true);
  for (int i = 0; i < 4; ++i) solver.new_var();
  solver.add_clause({neg(0), pos(1)});
  solver.add_clause({neg(1), pos(0)});
  solver.add_clause({pos(0), pos(2), pos(3)});
  solver.add_clause({pos(1), neg(2), pos(3)});
  solver.add_clause({neg(0), neg(1), neg(3)});

  ASSERT_TRUE(solver.inprocess());
  EXPECT_GE(solver.stats().equiv_vars, 1u);
  EXPECT_GE(solver.stats().inprocess_rounds, 1u);

  ASSERT_EQ(solver.solve(), LBool::kTrue);
  // The definition binaries keep the retired variable tied to its
  // representative, so the model satisfies the *original* clauses directly.
  EXPECT_TRUE(model_satisfies_log(solver));
  EXPECT_EQ(solver.model_value(static_cast<Var>(0)),
            solver.model_value(static_cast<Var>(1)));
}

TEST(InprocessTest, EquivalenceSubstitutionDerivesUnsat) {
  // x0 <-> x1 plus (x0 | x1) and (~x0 | ~x1): substitution reduces the two
  // to a unit and its negation.
  Solver solver;
  solver.set_clause_log(true);
  Proof proof;
  solver.set_proof(&proof);
  solver.new_var();
  solver.new_var();
  solver.add_clause({neg(0), pos(1)});
  solver.add_clause({neg(1), pos(0)});
  solver.add_clause({pos(0), pos(1)});
  solver.add_clause({neg(0), neg(1)});

  const bool still_ok = solver.inprocess();
  EXPECT_EQ(solver.solve(), LBool::kFalse);
  EXPECT_FALSE(still_ok && solver.okay());

  const DratCheckResult drat = check_drat(solver.clause_log(), proof);
  EXPECT_TRUE(drat.all_steps_valid)
      << "first invalid step " << drat.first_invalid_step;
  EXPECT_TRUE(drat.proves_unsat);
}

TEST(InprocessTest, SubsumptionRemovesWeakerClauses) {
  Solver solver;
  solver.set_clause_log(true);
  for (int i = 0; i < 4; ++i) solver.new_var();
  solver.add_clause({pos(0), pos(1)});
  solver.add_clause({pos(0), pos(1), pos(2)});
  solver.add_clause({pos(0), pos(1), pos(3)});

  ASSERT_TRUE(solver.inprocess());
  EXPECT_GE(solver.stats().inprocess_removed_clauses, 2u);

  ASSERT_EQ(solver.solve(), LBool::kTrue);
  EXPECT_TRUE(model_satisfies_log(solver));
}

TEST(InprocessTest, SelfSubsumingResolutionStrengthens) {
  // (x0 | x1 | x2) and (~x0 | x1 | x2) resolve on x0: both shrink to
  // (x1 | x2), and one copy subsumes the other.
  Solver solver;
  solver.set_clause_log(true);
  for (int i = 0; i < 3; ++i) solver.new_var();
  solver.add_clause({pos(0), pos(1), pos(2)});
  solver.add_clause({neg(0), pos(1), pos(2)});

  ASSERT_TRUE(solver.inprocess());
  EXPECT_GE(solver.stats().inprocess_strengthened_lits, 1u);

  ASSERT_EQ(solver.solve(), LBool::kTrue);
  EXPECT_TRUE(model_satisfies_log(solver));
}

TEST(InprocessTest, VivificationShortensClause) {
  // x0 -> x1 -> x2, so in (~x0 | x2 | x3) assuming x0 propagates x2 true:
  // the clause vivifies to (~x0 | x2), dropping x3.
  Solver solver;
  solver.set_clause_log(true);
  for (int i = 0; i < 4; ++i) solver.new_var();
  solver.add_clause({neg(0), pos(1)});
  solver.add_clause({neg(1), pos(2)});
  solver.add_clause({neg(0), pos(2), pos(3)});

  ASSERT_TRUE(solver.inprocess());
  EXPECT_GE(solver.stats().inprocess_strengthened_lits, 1u);

  ASSERT_EQ(solver.solve(), LBool::kTrue);
  EXPECT_TRUE(model_satisfies_log(solver));
}

TEST(InprocessTest, TickBudgetStopsPassesCleanly) {
  Solver solver;
  solver.set_clause_log(true);
  solver.set_inprocess_budget(1);
  add_pigeonhole(solver, 6, 6);
  // One tick cannot cover the clause database; the round must still leave
  // the solver consistent and the verdict correct.
  ASSERT_TRUE(solver.inprocess());
  std::vector<std::string> errors;
  EXPECT_TRUE(solver.check_invariants(&errors))
      << (errors.empty() ? "" : errors.front());
  ASSERT_EQ(solver.solve(), LBool::kTrue);
  EXPECT_TRUE(model_satisfies_log(solver));
}

TEST(InprocessTest, ScheduledRoundsRunDuringSolve) {
  Solver solver;
  solver.set_inprocessing(true);
  solver.set_inprocess_schedule(/*first_conflicts=*/0, /*interval=*/16);
  add_pigeonhole(solver, 6, 5);
  EXPECT_EQ(solver.solve(), LBool::kFalse);
  EXPECT_GE(solver.stats().inprocess_rounds, 1u);
}

TEST(InprocessTest, ForcedScheduleKeepsModelsCorrect) {
  // SAT instance under continuous audits with inprocessing on a punishing
  // schedule: every restart boundary runs a round.
  Solver solver;
  solver.set_clause_log(true);
  solver.set_check_invariants(true);
  solver.set_inprocessing(true);
  solver.set_inprocess_schedule(0, 8);
  add_pigeonhole(solver, 7, 7);
  ASSERT_EQ(solver.solve(), LBool::kTrue);
  EXPECT_TRUE(model_satisfies_log(solver));
}

TEST(InprocessTest, DratProofCoversInprocessingRewrites) {
  Solver solver;
  solver.set_clause_log(true);
  Proof proof;
  solver.set_proof(&proof);
  solver.set_inprocessing(true);
  solver.set_inprocess_schedule(0, 8);
  add_pigeonhole(solver, 6, 5);
  ASSERT_EQ(solver.solve(), LBool::kFalse);
  ASSERT_GE(solver.stats().inprocess_rounds, 1u)
      << "schedule(0,8) must force rounds on this instance";

  const DratCheckResult drat = check_drat(solver.clause_log(), proof);
  EXPECT_TRUE(drat.all_steps_valid)
      << "first invalid step " << drat.first_invalid_step;
  EXPECT_TRUE(drat.proves_unsat);
}

TEST(InprocessTest, DisabledBySetterMeansNoRounds) {
  Solver solver;
  solver.set_inprocessing(false);
  solver.set_inprocess_schedule(0, 8);
  add_pigeonhole(solver, 6, 5);
  EXPECT_EQ(solver.solve(), LBool::kFalse);
  EXPECT_EQ(solver.stats().inprocess_rounds, 0u);
}

TEST(InprocessTest, LearntSubsumerOfOriginalIsPromoted) {
  // A learnt clause with a high LBD, so it lands in the evictable local
  // tier, subsumes an original outright. The subsumer must be promoted to
  // irredundant when the original is deleted: were it left learnt, a later
  // reduce_db() could evict it and the solver could return models violating
  // the deleted original.
  //
  // The solver learns it itself: assuming ~x0..~x7 puts each literal on
  // its own decision level, the wide clause then propagates x8, x8 -> y
  // and y -> x7 conflict, and analysis resolves the chain back to
  // sub = (x0 | ... | x7), whose eight literals span eight levels (LBD 8).
  // The detour through y keeps self-subsuming resolution from shortening
  // the wide clause with the chain before subsumption sees the learnt.
  Solver solver;
  solver.set_clause_log(true);
  for (int i = 0; i < 10; ++i) solver.new_var();
  std::vector<Lit> wide;
  for (int i = 0; i < 9; ++i) wide.push_back(pos(i));
  solver.add_clause(wide);
  solver.add_clause({neg(8), pos(9)});
  solver.add_clause({neg(9), pos(7)});
  const std::vector<Lit> sub(wide.begin(), wide.end() - 1);
  std::vector<Lit> assumptions;
  for (const Lit l : sub) assumptions.push_back(~l);

  ASSERT_EQ(solver.solve(assumptions), LBool::kFalse);
  ASSERT_EQ(solver.num_learnts(), 1);
  ASSERT_EQ(solver.learnt_tiers().local, 1u);

  ASSERT_TRUE(solver.inprocess());
  EXPECT_GE(solver.stats().inprocess_removed_clauses, 1u);
  // The subsumer replaced the original: it is irredundant now, not learnt.
  EXPECT_EQ(solver.num_clauses(), 3);
  EXPECT_EQ(solver.num_learnts(), 0);
  std::vector<std::string> errors;
  EXPECT_TRUE(solver.check_invariants(&errors))
      << (errors.empty() ? "" : errors.front());

  ASSERT_EQ(solver.solve(), LBool::kTrue);
  EXPECT_TRUE(model_satisfies_log(solver));
  bool sub_satisfied = false;
  for (const Lit l : sub) sub_satisfied = sub_satisfied || solver.model_bool(l);
  EXPECT_TRUE(sub_satisfied);
}

TEST(InprocessTest, OriginalClauseAccountingTracksUnitCollapse) {
  // x1 <-> ~x0 and x2 <-> ~x0 via binary cycles; (~x0 | x1 | x2) collapses
  // to the unit ~x0 under the substitution. The dropped original must be
  // deducted from num_clauses() while the four definition binaries are
  // added: 5 inputs + 4 definitions - 1 collapsed = 8.
  Solver solver;
  solver.set_clause_log(true);
  for (int i = 0; i < 3; ++i) solver.new_var();
  solver.add_clause({pos(0), pos(1)});
  solver.add_clause({neg(0), neg(1)});
  solver.add_clause({pos(0), pos(2)});
  solver.add_clause({neg(0), neg(2)});
  solver.add_clause({neg(0), pos(1), pos(2)});
  ASSERT_EQ(solver.num_clauses(), 5);

  ASSERT_TRUE(solver.inprocess());
  EXPECT_GE(solver.stats().equiv_vars, 2u);
  EXPECT_EQ(solver.num_clauses(), 8);
  std::vector<std::string> errors;
  EXPECT_TRUE(solver.check_invariants(&errors))
      << (errors.empty() ? "" : errors.front());

  ASSERT_EQ(solver.solve(), LBool::kTrue);
  EXPECT_TRUE(model_satisfies_log(solver));
  EXPECT_EQ(solver.model_value(static_cast<Var>(0)), LBool::kFalse);
}

TEST(InprocessTest, IncrementalSolvesAfterInprocessing) {
  // Clauses added *after* a round must interact correctly with substituted
  // variables: the definition binaries keep retired variables meaningful.
  Solver solver;
  for (int i = 0; i < 3; ++i) solver.new_var();
  solver.add_clause({neg(0), pos(1)});
  solver.add_clause({neg(1), pos(0)});
  solver.add_clause({pos(0), pos(2)});
  ASSERT_TRUE(solver.inprocess());

  // Now constrain the retired variable directly.
  solver.add_clause({neg(1)});
  ASSERT_EQ(solver.solve(), LBool::kTrue);
  EXPECT_EQ(solver.model_value(static_cast<Var>(0)), LBool::kFalse);
  EXPECT_EQ(solver.model_value(static_cast<Var>(1)), LBool::kFalse);
  EXPECT_EQ(solver.model_value(static_cast<Var>(2)), LBool::kTrue);

  const std::vector<Lit> assume = {pos(0)};
  EXPECT_EQ(solver.solve(assume), LBool::kFalse);
  EXPECT_EQ(solver.solve(), LBool::kTrue);
}

}  // namespace
}  // namespace olsq2::sat
