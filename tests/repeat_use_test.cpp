// Stateful-reuse regression tests: components that the serve layer (and the
// portfolio) call repeatedly on different problems must either fully reset
// their internal state per call or namespace it per problem.
//
//   layout::Model            - repeated bound requests must be cached (no
//     new solver variables) and repeated solves under the same assumptions
//     must reproduce the same verdict and objectives.
//   sat::ClauseExchange      - begin_problem() must fence bound facts and
//     clause traffic between batch items; a stale depth-UNSAT fact from
//     problem A silently corrupts problem B's reported optimum otherwise.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "device/presets.h"
#include "layout/model.h"
#include "layout/olsq2.h"
#include "sat/exchange.h"
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

TEST(ExchangeReuse, BeginProblemClearsFactsAndSameKeyIsANoOp) {
  sat::ClauseExchange hub;
  hub.begin_problem("instance-A");
  hub.note_depth_unsat(7);
  hub.note_depth_sat(12);
  hub.note_swap_unsat(12, 2);
  ASSERT_EQ(hub.depth_unsat_max(), 7);
  ASSERT_TRUE(hub.swap_known_unsat(12, 2));

  // Re-declaring the same problem must keep the facts (batch groups call
  // begin_problem once per engine run on the same instance).
  hub.begin_problem("instance-A");
  EXPECT_EQ(hub.depth_unsat_max(), 7);
  EXPECT_EQ(hub.depth_sat_min(), 12);
  EXPECT_TRUE(hub.swap_known_unsat(12, 2));

  // Switching problems drops every fact.
  hub.begin_problem("instance-B");
  EXPECT_EQ(hub.depth_unsat_max(), -1);
  EXPECT_EQ(hub.depth_sat_min(), std::numeric_limits<int>::max());
  EXPECT_FALSE(hub.swap_known_unsat(12, 2));
}

TEST(ExchangeReuse, GroupsAreNamespacedPerProblem) {
  sat::ClauseExchange hub;
  hub.begin_problem("instance-A");
  const int s1 = hub.add_solver("cfg");
  hub.begin_problem("instance-B");
  // Same group string, different problem: must land in a distinct group.
  const int s2 = hub.add_solver("cfg");
  const int s3 = hub.add_solver("cfg");

  // s1 (problem A's group) publishes after the switch; only B's members
  // may exchange with each other, and neither may hear from s1.
  const std::vector<Lit> unit{Lit::pos(0)};
  ASSERT_TRUE(hub.publish(s1, unit, 1));
  std::size_t delivered_to_b = 0;
  delivered_to_b += hub.collect(s2, [](auto, unsigned) {});
  delivered_to_b += hub.collect(s3, [](auto, unsigned) {});
  EXPECT_EQ(delivered_to_b, 0u);

  const std::vector<Lit> binary{Lit::pos(1), Lit::neg(2)};
  ASSERT_TRUE(hub.publish(s2, binary, 2));
  std::size_t got = 0;
  got += hub.collect(s3, [](auto, unsigned) {});
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(hub.collect(s1, [](auto, unsigned) {}), 0u);
}

// End-to-end fence check: a hub poisoned with a stale depth-UNSAT fact from
// a previous problem must not inflate the next problem's reported optimum
// once begin_problem() declares the switch. This is exactly the reuse
// pattern of serve::Server::serve_batch.
TEST(ExchangeReuse, StaleFactsCannotCorruptTheNextProblemsOptimum) {
  const auto circ = triangle();
  const auto dev = device::grid(1, 3);
  const layout::Problem problem{&circ, &dev, 1};

  const layout::Result baseline = synthesize_depth_optimal(problem);
  ASSERT_TRUE(baseline.solved);

  sat::ClauseExchange hub;
  hub.begin_problem("some-other-instance");
  hub.note_depth_unsat(baseline.depth + 3);  // true for A, poison for B
  ASSERT_GT(hub.depth_unsat_max(), baseline.depth);

  hub.begin_problem("triangle-on-line");
  layout::OptimizerOptions options;
  options.exchange = &hub;
  const layout::Result fenced =
      synthesize_depth_optimal(problem, layout::EncodingConfig{}, options);
  ASSERT_TRUE(fenced.solved);
  EXPECT_EQ(fenced.depth, baseline.depth);

  // The run itself repopulates the facts for the *current* problem.
  EXPECT_EQ(hub.depth_unsat_max(), fenced.depth - 1);
}

}  // namespace
}  // namespace olsq2
