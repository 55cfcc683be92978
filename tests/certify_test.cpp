// Tests for machine-checkable optimality certificates.
#include <gtest/gtest.h>

#include "bengen/workloads.h"
#include "circuit/dependency.h"
#include "device/presets.h"
#include "layout/certify.h"
#include "layout/olsq2.h"

namespace olsq2::layout {
namespace {

TEST(Certify, DepthOptimalityOfQueko) {
  const auto dev = device::grid(2, 3);
  bengen::QuekoSpec spec;
  spec.depth = 4;
  spec.gate_count = 12;
  spec.seed = 7;
  const auto c = bengen::queko(dev, spec);
  const Problem problem{&c, &dev, 3};

  const Result optimal = synthesize_depth_optimal(problem);
  ASSERT_TRUE(optimal.solved);
  ASSERT_EQ(optimal.depth, 4);

  const circuit::DependencyGraph deps(c);
  const Certificate cert = certify_depth_lower_bound(
      problem, deps.default_upper_bound(), optimal.depth - 1);
  EXPECT_TRUE(cert.infeasible);
  EXPECT_TRUE(cert.proof_checked);
  EXPECT_TRUE(cert.refutation_complete);
  EXPECT_TRUE(cert.certified());
  EXPECT_GT(cert.proof_steps, 0u);
}

TEST(Certify, SwapOptimalityOfTriangleOnLine) {
  circuit::Circuit c(3, "triangle");
  c.add_gate("zz", 0, 1);
  c.add_gate("zz", 1, 2);
  c.add_gate("zz", 0, 2);
  const auto dev = device::grid(1, 3);
  const Problem problem{&c, &dev, 1};
  const Result optimal = synthesize_swap_optimal(problem);
  ASSERT_TRUE(optimal.solved);
  ASSERT_GE(optimal.swap_count, 1);

  // One fewer SWAP within the discovered depth horizon is refutable.
  const Certificate cert = certify_swap_lower_bound(
      problem, optimal.depth, optimal.swap_count - 1);
  EXPECT_TRUE(cert.certified());
}

TEST(Certify, FeasibleBoundIsNotCertified) {
  const auto c = bengen::qaoa_3regular(4, 1);
  const auto dev = device::grid(2, 2);
  const Problem problem{&c, &dev, 1};
  const Result optimal = synthesize_depth_optimal(problem);
  ASSERT_TRUE(optimal.solved);
  const circuit::DependencyGraph deps(c);
  // Bounding at the optimum itself is satisfiable: no certificate.
  const Certificate cert = certify_depth_lower_bound(
      problem, deps.default_upper_bound(), optimal.depth);
  EXPECT_FALSE(cert.infeasible);
  EXPECT_FALSE(cert.certified());
}

TEST(Certify, VacuousBoundRejected) {
  const auto c = bengen::qaoa_3regular(4, 1);
  const auto dev = device::grid(2, 2);
  const Problem problem{&c, &dev, 1};
  const Certificate cert = certify_depth_lower_bound(problem, 5, 7);
  EXPECT_FALSE(cert.infeasible);
  EXPECT_FALSE(cert.certified());
}

// The serve layer certifies a depth optimum d at horizon d instead of T_UB:
// a schedule of depth <= d-1 fits in horizon d, so the smaller refutation
// makes the same claim.
TEST(Certify, DepthCertificateAtTheOptimumsHorizon) {
  circuit::Circuit triangle(3, "triangle");
  triangle.add_gate("zz", 0, 1);
  triangle.add_gate("zz", 1, 2);
  triangle.add_gate("zz", 0, 2);
  bengen::QuekoSpec spec;
  spec.depth = 4;
  spec.gate_count = 12;
  spec.seed = 7;
  const auto grid23 = device::grid(2, 3);
  const auto queko = bengen::queko(grid23, spec);
  const auto line = device::grid(1, 3);
  const auto qaoa = bengen::qaoa_3regular(4, 1);
  const auto grid22 = device::grid(2, 2);
  const Problem problems[] = {
      {&queko, &grid23, 3}, {&triangle, &line, 1}, {&qaoa, &grid22, 1}};

  int at_lower_bound = 0;
  for (const Problem& problem : problems) {
    SCOPED_TRACE(problem.circuit->name());
    const Result optimal = synthesize_depth_optimal(problem);
    ASSERT_TRUE(optimal.solved);
    const circuit::DependencyGraph deps(*problem.circuit);
    if (optimal.depth == deps.longest_chain()) ++at_lower_bound;
    const Certificate cert = certify_depth_lower_bound(
        problem, optimal.depth, optimal.depth - 1);
    EXPECT_TRUE(cert.infeasible);
    EXPECT_TRUE(cert.proof_checked);
    EXPECT_TRUE(cert.refutation_complete);
  }
  // One optimum is T_LB itself, so its refutation is encoded at T_LB.
  EXPECT_GE(at_lower_bound, 1);
}

TEST(Certify, WorksAcrossEncodings) {
  circuit::Circuit c(3, "triangle");
  c.add_gate("zz", 0, 1);
  c.add_gate("zz", 1, 2);
  c.add_gate("zz", 0, 2);
  const auto dev = device::grid(1, 3);
  const Problem problem{&c, &dev, 1};
  const Result optimal = synthesize_swap_optimal(problem);
  ASSERT_TRUE(optimal.solved);
  for (const auto card :
       {CardEncoding::kSeqCounter, CardEncoding::kTotalizer,
        CardEncoding::kAdder}) {
    EncodingConfig config;
    config.cardinality = card;
    const Certificate cert = certify_swap_lower_bound(
        problem, optimal.depth, optimal.swap_count - 1, config);
    EXPECT_TRUE(cert.certified()) << "cardinality " << static_cast<int>(card);
  }
}

}  // namespace
}  // namespace olsq2::layout
