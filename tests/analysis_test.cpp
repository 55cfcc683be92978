// Tests for the static-analysis subsystem: the CNF linter, the cardinality
// structure recognizers (including the deliberate-corruption case the CI
// gate relies on), the injectivity audit, and the solver invariant auditor.
#include <string>

#include <gtest/gtest.h>

#include "analysis/card_audit.h"
#include "analysis/exclusion_audit.h"
#include "analysis/lint.h"
#include "device/presets.h"
#include "encode/cnf.h"
#include "layout/model.h"
#include "sat/solver.h"

namespace olsq2::analysis {
namespace {

using sat::Clause;
using sat::Lit;

std::int64_t count_of(const LintReport& report, const std::string& check) {
  const auto it = report.counts.find(check);
  return it == report.counts.end() ? 0 : it->second;
}

TEST(Lint, CleanFormulaHasNoFindings) {
  // (x0 | ~x1) & (x1 | x2) & (~x0 | ~x2): every variable both polarities,
  // no duplicates, nothing subsumed.
  const std::vector<Clause> clauses = {
      {Lit::pos(0), Lit::neg(1)},
      {Lit::pos(1), Lit::pos(2)},
      {Lit::neg(0), Lit::neg(2)},
  };
  const LintReport report = lint_cnf(3, clauses);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.errors, 0);
  EXPECT_EQ(report.warnings, 0);
  EXPECT_EQ(report.infos, 0);
  EXPECT_EQ(report.num_clauses, 3);
  EXPECT_EQ(report.num_literals, 6);
}

TEST(Lint, FlagsEmptyClauseAsError) {
  const LintReport report = lint_cnf(1, {{Lit::pos(0)}, {}});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(count_of(report, "empty-clause"), 1);
}

TEST(Lint, FlagsInvalidLiteralAsError) {
  const LintReport report = lint_cnf(1, {{Lit::pos(0), Lit::pos(5)}});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(count_of(report, "invalid-literal"), 1);
}

TEST(Lint, FlagsDuplicateClausesIncludingReordered) {
  const std::vector<Clause> clauses = {
      {Lit::pos(0), Lit::neg(1)},
      {Lit::neg(1), Lit::pos(0)},  // same clause, different literal order
  };
  const LintReport report = lint_cnf(2, clauses);
  EXPECT_EQ(count_of(report, "duplicate-clause"), 1);
  EXPECT_GT(report.warnings, 0);
}

TEST(Lint, FlagsTautologyAndDuplicateLiteral) {
  const std::vector<Clause> clauses = {
      {Lit::pos(0), Lit::neg(0)},              // tautology
      {Lit::pos(1), Lit::pos(1), Lit::neg(0)}  // repeated literal
  };
  const LintReport report = lint_cnf(2, clauses);
  EXPECT_EQ(count_of(report, "tautological-clause"), 1);
  EXPECT_EQ(count_of(report, "duplicate-literal"), 1);
}

TEST(Lint, FlagsSubsumedClauses) {
  const std::vector<Clause> clauses = {
      {Lit::pos(0)},                            // unit
      {Lit::pos(0), Lit::neg(1)},               // subsumed by the unit
      {Lit::pos(1), Lit::neg(2)},               // binary
      {Lit::pos(1), Lit::neg(2), Lit::pos(0)},  // subsumed by the binary
  };
  const LintReport report = lint_cnf(3, clauses);
  // The binary subsumed by the unit and the ternary subsumed by the binary.
  EXPECT_EQ(count_of(report, "subsumed-clause"), 2);
}

TEST(Lint, FlagsUnusedAndPureVariables) {
  const std::vector<Clause> clauses = {
      {Lit::pos(0), Lit::neg(1)},
      {Lit::neg(0), Lit::pos(2)},
      {Lit::neg(2)},
  };
  // Variable 3 never occurs; variable 1 occurs only negated.
  const LintReport report = lint_cnf(4, clauses);
  EXPECT_EQ(count_of(report, "unused-var"), 1);
  EXPECT_EQ(count_of(report, "pure-literal"), 1);
}

TEST(Lint, JsonReportIsWellFormed) {
  const LintReport report = lint_cnf(1, {{Lit::pos(0)}, {}});
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(json.find("\"empty-clause\":1"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// ---------------------------------------------------------------------------
// Cardinality structure recognizers.

TEST(CardAudit, AllEncodersPassExhaustiveSweep) {
  for (const CardKind kind :
       {CardKind::kSeqCounter, CardKind::kTotalizer, CardKind::kAdder}) {
    for (int n = 1; n <= 6; ++n) {
      for (int k = 0; k <= n; ++k) {
        const AuditResult result = audit_card_encoding(kind, n, k);
        EXPECT_TRUE(result.ok)
            << card_kind_name(kind) << " n=" << n << " k=" << k << ": "
            << (result.errors.empty() ? "?" : result.errors.front());
        EXPECT_EQ(result.checks, 1 << n);
      }
    }
  }
}

TEST(CardAudit, StructuralAuditPassesAtScale) {
  for (const CardKind kind :
       {CardKind::kSeqCounter, CardKind::kTotalizer, CardKind::kAdder}) {
    const AuditResult result = audit_card_encoding(kind, 40, 3);
    EXPECT_TRUE(result.ok)
        << card_kind_name(kind) << ": "
        << (result.errors.empty() ? "?" : result.errors.front());
    EXPECT_GT(result.checks, 5);
  }
}

TEST(CardAudit, CatchesDroppedOverflowClause) {
  // Deliberate corruption: the last clause the sequential counter emits is
  // the final overflow clause (~lits[n-1] | ~s[n-2][k-1]) — exactly the
  // clause whose loss lets a (k+1)-true assignment slip through. The
  // recognizer must catch its removal.
  CardFormula formula = encode_at_most_k(CardKind::kSeqCounter, 4, 2);
  ASSERT_FALSE(formula.clauses.empty());
  formula.clauses.pop_back();
  const AuditResult result = audit_at_most_k(
      formula.num_vars, formula.clauses, formula.inputs, formula.k);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.errors.empty());
}

TEST(CardAudit, CatchesDroppedTotalizerBound) {
  // Dropping the root bound unit (~o_k) leaves a sorted network with no
  // constraint at all.
  CardFormula formula = encode_at_most_k(CardKind::kTotalizer, 5, 2);
  ASSERT_FALSE(formula.clauses.empty());
  formula.clauses.pop_back();
  const AuditResult result = audit_at_most_k(
      formula.num_vars, formula.clauses, formula.inputs, formula.k);
  EXPECT_FALSE(result.ok);
}

TEST(CardAudit, EverySingleClauseDropIsCaughtOrRedundant) {
  // The exhaustive sweep is an exact oracle for "encodes at-most-k" over
  // the input variables, so for every single-clause deletion the audit
  // either fails (the clause was load-bearing) or the drop provably
  // preserved the projection onto inputs (sequential counters contain
  // definitional clauses whose loss only loosens the auxiliary counter
  // bits). Sanity-bound both outcomes: the counter's overflow chain alone
  // makes several clauses load-bearing, and the definitional halves make
  // several redundant.
  const CardFormula formula = encode_at_most_k(CardKind::kSeqCounter, 4, 2);
  const int total = static_cast<int>(formula.clauses.size());
  int caught = 0;
  for (std::size_t drop = 0; drop < formula.clauses.size(); ++drop) {
    std::vector<Clause> corrupted = formula.clauses;
    corrupted.erase(corrupted.begin() + static_cast<std::ptrdiff_t>(drop));
    const AuditResult result = audit_at_most_k(formula.num_vars, corrupted,
                                               formula.inputs, formula.k);
    if (!result.ok) caught++;
  }
  EXPECT_GE(caught, static_cast<int>(formula.inputs.size()) - 1);
  EXPECT_LT(caught, total);
}

// ---------------------------------------------------------------------------
// Injectivity (mutual exclusion) audit.

layout::Problem small_problem(const circuit::Circuit& circ,
                              const device::Device& dev) {
  return layout::Problem{&circ, &dev, /*swap_duration=*/1};
}

constexpr layout::SearchEngine kBothFormulations[] = {
    layout::SearchEngine::kTimeResolved,
    layout::SearchEngine::kTransitionBased};

circuit::Circuit chain3() {
  circuit::Circuit c(3, "chain3");
  c.add_gate("cx", 0, 1);
  c.add_gate("cx", 1, 2);
  return c;
}

TEST(ExclusionAudit, AllInjectivityEncodingsCoverEveryPinPair) {
  const circuit::Circuit circ = chain3();
  const device::Device dev = device::ibm_qx2();
  for (const layout::SearchEngine engine : kBothFormulations) {
    for (const layout::InjectivityEncoding encoding :
         {layout::InjectivityEncoding::kPairwise,
          layout::InjectivityEncoding::kChanneling,
          layout::InjectivityEncoding::kAmoPerQubit}) {
      layout::EncodingConfig config;
      config.injectivity = encoding;
      layout::Model model(engine, small_problem(circ, dev), /*horizon=*/3,
                          config);
      const auto obligations = model.injectivity_obligations();
      ASSERT_FALSE(obligations.empty());
      const AuditResult result =
          audit_mutual_exclusion(model.solver(), obligations);
      EXPECT_TRUE(result.ok)
          << "engine " << static_cast<int>(engine) << ", injectivity "
          << "encoding " << static_cast<int>(encoding) << ": "
          << (result.errors.empty() ? "?" : result.errors.front());
      EXPECT_EQ(result.skipped, 0);
    }
  }
}

TEST(ExclusionAudit, DroppedInjectivityClausesAreCaughtInBothFormulations) {
  // Deliberate corruption: copy a pairwise model's CNF without the clauses
  // that keep program qubits 0 and 2 off physical qubit 0. The two share
  // no gate, so nothing else in the model separates them and the audit
  // must flag every dropped pin pair, while the intact copy passes.
  const circuit::Circuit circ = chain3();
  const device::Device dev = device::ibm_qx2();
  const int horizon = 3;
  for (const layout::SearchEngine engine : kBothFormulations) {
    layout::Model model(engine, small_problem(circ, dev), horizon, {},
                        /*proof=*/nullptr, /*log_clauses=*/true);
    // Obligations come step by step, then by program-qubit pair (0-1,
    // 0-2, 1-2), then by physical qubit: (0, 2, p=0) follows 0-1's pairs.
    const auto obligations = model.injectivity_obligations();
    const std::size_t per_step = obligations.size() / horizon;
    std::vector<std::pair<Lit, Lit>> dropped;
    for (int t = 0; t < horizon; ++t) {
      dropped.push_back(obligations[t * per_step + dev.num_qubits()]);
    }
    const auto is_dropped = [&](const Clause& c) {
      for (const auto& [a, b] : dropped) {
        if (c == Clause{~a, ~b}) return true;
      }
      return false;
    };
    const sat::Solver& source = model.solver();
    sat::Solver intact;
    sat::Solver corrupted;
    for (int v = 0; v < source.num_vars(); ++v) {
      intact.new_var();
      corrupted.new_var();
    }
    int removed = 0;
    for (const Clause& c : source.clause_log()) {
      intact.add_clause(c);
      if (is_dropped(c)) {
        ++removed;
      } else {
        corrupted.add_clause(c);
      }
    }
    EXPECT_EQ(removed, horizon);
    EXPECT_TRUE(audit_mutual_exclusion(intact, dropped).ok);
    const AuditResult result = audit_mutual_exclusion(corrupted, dropped);
    EXPECT_FALSE(result.ok) << "engine " << static_cast<int>(engine);
    EXPECT_EQ(result.errors.size(), dropped.size());
  }
}

TEST(ExclusionAudit, DetectsMissingExclusion) {
  sat::Solver solver;
  const Lit a = Lit::pos(solver.new_var());
  const Lit b = Lit::pos(solver.new_var());
  const Lit c = Lit::pos(solver.new_var());
  solver.add_clause({~a, ~b});  // a/b excluded, a/c not
  const std::pair<Lit, Lit> pairs[] = {{a, b}, {a, c}};
  const AuditResult result = audit_mutual_exclusion(solver, pairs);
  EXPECT_FALSE(result.ok);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors.front().find("pair 1"), std::string::npos);
}

TEST(ExclusionAudit, SamplingCapSkipsDeterministically) {
  sat::Solver solver;
  const Lit a = Lit::pos(solver.new_var());
  const Lit b = Lit::pos(solver.new_var());
  solver.add_clause({~a, ~b});
  std::vector<std::pair<Lit, Lit>> pairs(10, {a, b});
  const AuditResult result =
      audit_mutual_exclusion(solver, pairs, /*max_pairs=*/3);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.checks + result.skipped, 10);
  EXPECT_LE(result.checks, 3);
}

// ---------------------------------------------------------------------------
// Model encodings pass the linter (the acceptance gate in unit-test form).

TEST(ModelLint, EncodingsProduceNoLintErrors) {
  const circuit::Circuit circ = [] {
    circuit::Circuit c(3, "chain3");
    c.add_gate("cx", 0, 1);
    c.add_gate("h", 2);
    c.add_gate("cx", 1, 2);
    return c;
  }();
  const device::Device dev = device::ibm_qx2();
  for (const layout::SearchEngine engine : kBothFormulations) {
    for (const layout::InjectivityEncoding encoding :
         {layout::InjectivityEncoding::kPairwise,
          layout::InjectivityEncoding::kChanneling,
          layout::InjectivityEncoding::kAmoPerQubit}) {
      layout::EncodingConfig config;
      config.injectivity = encoding;
      layout::Model model(engine, small_problem(circ, dev), /*horizon=*/4,
                          config, /*proof=*/nullptr, /*log_clauses=*/true);
      const LintReport report = lint_cnf(model.solver().num_vars(),
                                         model.solver().clause_log());
      EXPECT_EQ(report.errors, 0) << "engine " << static_cast<int>(engine)
                                  << ", " << config.label() << ": "
                                  << report.to_json();
    }
  }
}

// ---------------------------------------------------------------------------
// Solver invariant auditor.

void add_pigeonhole(sat::Solver& s, int holes) {
  std::vector<std::vector<sat::Var>> p(static_cast<std::size_t>(holes) + 1,
                                       std::vector<sat::Var>(
                                           static_cast<std::size_t>(holes)));
  for (auto& row : p) {
    for (auto& v : row) v = s.new_var();
  }
  for (int i = 0; i <= holes; ++i) {
    std::vector<Lit> clause;
    for (int j = 0; j < holes; ++j) {
      clause.push_back(Lit::pos(p[static_cast<std::size_t>(i)]
                                 [static_cast<std::size_t>(j)]));
    }
    s.add_clause(clause);
  }
  for (int j = 0; j < holes; ++j) {
    for (int i = 0; i <= holes; ++i) {
      for (int k = i + 1; k <= holes; ++k) {
        s.add_clause({Lit::neg(p[static_cast<std::size_t>(i)]
                                [static_cast<std::size_t>(j)]),
                      Lit::neg(p[static_cast<std::size_t>(k)]
                                [static_cast<std::size_t>(j)])});
      }
    }
  }
}

TEST(Invariants, HoldOnFreshAndSolvedSolver) {
  sat::Solver s;
  EXPECT_TRUE(s.check_invariants());
  add_pigeonhole(s, 5);
  std::vector<std::string> errors;
  EXPECT_TRUE(s.check_invariants(&errors)) << errors.front();
  EXPECT_EQ(s.solve(), sat::LBool::kFalse);  // pigeonhole is UNSAT
  EXPECT_TRUE(s.check_invariants(&errors))
      << (errors.empty() ? "?" : errors.front());
}

TEST(Invariants, ContinuousAuditingSurvivesFullSolves) {
  // With auditing armed, the checks run at solve entry/exit, restarts, and
  // sampled decision/backtrack boundaries; a clean solver must never trip
  // them, across SAT, UNSAT, and assumption-driven solves.
  sat::Solver s;
  s.set_check_invariants(true);
  EXPECT_TRUE(s.checking_invariants());
  add_pigeonhole(s, 6);
  EXPECT_EQ(s.solve(), sat::LBool::kFalse);
  sat::Solver sat_solver;
  sat_solver.set_check_invariants(true);
  std::vector<Lit> somelits;
  for (int i = 0; i < 30; ++i) {
    somelits.push_back(Lit::pos(sat_solver.new_var()));
  }
  for (int i = 0; i + 2 < 30; ++i) {
    sat_solver.add_clause({somelits[static_cast<std::size_t>(i)],
                           somelits[static_cast<std::size_t>(i + 1)],
                           ~somelits[static_cast<std::size_t>(i + 2)]});
  }
  EXPECT_EQ(sat_solver.solve(), sat::LBool::kTrue);
  const Lit assumption = ~somelits[0];
  EXPECT_EQ(sat_solver.solve(std::vector<Lit>{assumption}),
            sat::LBool::kTrue);
}

TEST(Invariants, ContinuousAuditingSurvivesLayoutSynthesis) {
  const circuit::Circuit circ = [] {
    circuit::Circuit c(3, "chain3");
    c.add_gate("cx", 0, 1);
    c.add_gate("cx", 1, 2);
    c.add_gate("cx", 0, 2);
    return c;
  }();
  const device::Device dev = device::ibm_qx2();
  layout::Model model(small_problem(circ, dev), /*t_ub=*/5, {});
  model.solver().set_check_invariants(true);
  EXPECT_EQ(model.solver().solve(), sat::LBool::kTrue);
  const Lit bound = model.depth_bound(4);
  EXPECT_NE(model.solver().solve(std::vector<Lit>{bound}),
            sat::LBool::kUndef);
}

}  // namespace
}  // namespace olsq2::analysis
