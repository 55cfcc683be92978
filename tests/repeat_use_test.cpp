// Stateful-reuse regression tests: components that the serve layer calls
// repeatedly on different problems must either fully reset their internal
// state per call or namespace it per problem.
//
//   layout::Model            - repeated bound requests must be cached (no
//     new solver variables) and repeated solves under the same assumptions
//     must reproduce the same verdict and objectives.
//   layout::BoundFacts       - begin_problem() must fence bound facts
//     between batch items; a stale depth-UNSAT fact from problem A silently
//     corrupts problem B's reported optimum otherwise.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "device/presets.h"
#include "layout/model.h"
#include "layout/olsq2.h"
#include "layout/search.h"
#include "sat/types.h"

namespace olsq2 {
namespace {

using sat::Lit;

// Triangle interaction graph on a 1x3 line: the canonical needs-a-SWAP
// instance used across the test suite (certify_test, serve_test).
circuit::Circuit triangle() {
  circuit::Circuit c(3, "triangle");
  c.add_gate("zz", 0, 1);
  c.add_gate("zz", 1, 2);
  c.add_gate("zz", 0, 2);
  return c;
}

TEST(ModelReuse, BoundRequestsAreIdempotentAndSolvesDeterministic) {
  const auto circ = triangle();
  const auto dev = device::grid(1, 3);
  const layout::Problem problem{&circ, &dev, 1};
  layout::Model model(problem, /*t_ub=*/6, layout::EncodingConfig{});

  const Lit d4 = model.depth_bound(4);
  const Lit s1 = model.swap_bound(1);
  const auto vars_after_first = model.solver().num_vars();

  // Re-requesting the same bounds must hit the cache, not mint variables.
  EXPECT_EQ(model.depth_bound(4), d4);
  EXPECT_EQ(model.swap_bound(1), s1);
  EXPECT_EQ(model.solver().num_vars(), vars_after_first);

  const std::vector<Lit> assumptions{d4, s1};
  const sat::LBool first = model.solver().solve(assumptions);
  ASSERT_EQ(first, sat::LBool::kTrue);
  const layout::Result r1 = model.extract();
  ASSERT_TRUE(r1.solved);

  // Same model, same assumptions, again: the incremental solver keeps its
  // learnt clauses but the verdict and objectives must not drift.
  const sat::LBool second = model.solver().solve(assumptions);
  ASSERT_EQ(second, sat::LBool::kTrue);
  const layout::Result r2 = model.extract();
  EXPECT_EQ(r2.depth, r1.depth);
  EXPECT_EQ(r2.swap_count, r1.swap_count);
  EXPECT_EQ(model.solver().num_vars(), vars_after_first);
}

TEST(BoundFactsReuse, BeginProblemClearsFactsAndSameKeyIsANoOp) {
  layout::BoundFacts facts;
  facts.begin_problem("instance-A");
  facts.note_depth_unsat(7);
  facts.note_depth_sat(12);
  facts.note_swap_unsat(12, 2);
  ASSERT_EQ(facts.depth_unsat_max(), 7);
  ASSERT_TRUE(facts.swap_known_unsat(12, 2));

  // Re-declaring the same problem must keep the facts (batch groups call
  // begin_problem once per engine run on the same instance).
  facts.begin_problem("instance-A");
  EXPECT_EQ(facts.depth_unsat_max(), 7);
  EXPECT_EQ(facts.depth_sat_min(), 12);
  EXPECT_TRUE(facts.swap_known_unsat(12, 2));

  // Switching problems drops every fact.
  facts.begin_problem("instance-B");
  EXPECT_EQ(facts.depth_unsat_max(), -1);
  EXPECT_EQ(facts.depth_sat_min(), std::numeric_limits<int>::max());
  EXPECT_FALSE(facts.swap_known_unsat(12, 2));
}

// End-to-end fence check: facts poisoned with a stale depth-UNSAT fact from
// a previous problem must not inflate the next problem's reported optimum
// once begin_problem() declares the switch. This is exactly the reuse
// pattern of serve::Server::serve_batch.
TEST(BoundFactsReuse, StaleFactsCannotCorruptTheNextProblemsOptimum) {
  const auto circ = triangle();
  const auto dev = device::grid(1, 3);
  const layout::Problem problem{&circ, &dev, 1};

  const layout::Result baseline = synthesize_depth_optimal(problem);
  ASSERT_TRUE(baseline.solved);

  layout::BoundFacts facts;
  facts.begin_problem("some-other-instance");
  facts.note_depth_unsat(baseline.depth + 3);  // true for A, poison for B
  ASSERT_GT(facts.depth_unsat_max(), baseline.depth);

  facts.begin_problem("triangle-on-line");
  layout::OptimizerOptions options;
  options.facts = &facts;
  const layout::Result fenced =
      synthesize_depth_optimal(problem, layout::EncodingConfig{}, options);
  ASSERT_TRUE(fenced.solved);
  EXPECT_EQ(fenced.depth, baseline.depth);

  // The run itself repopulates the facts for the *current* problem.
  EXPECT_EQ(facts.depth_unsat_max(), fenced.depth - 1);
}

}  // namespace
}  // namespace olsq2
