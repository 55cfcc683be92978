// Property-based sweeps over random problems: every engine's output must
// pass the independent verifier, engines must agree on objective values,
// and relaxations must respect their dominance relations.
#include <gtest/gtest.h>

#include <type_traits>

#include "bengen/rng.h"
#include "bengen/workloads.h"
#include "circuit/dependency.h"
#include "device/presets.h"
#include "layout/olsq2.h"
#include "layout/tb.h"
#include "layout/verifier.h"
#include "sabre/sabre.h"

namespace olsq2::layout {
namespace {

// Random circuit over n qubits with a mix of 1- and 2-qubit gates.
circuit::Circuit random_circuit(int qubits, int gates, std::uint64_t seed) {
  bengen::Rng rng(seed);
  circuit::Circuit c(qubits, "rand");
  for (int g = 0; g < gates; ++g) {
    if (qubits >= 2 && rng.chance(0.6)) {
      const int a = rng.below_int(qubits);
      int b = rng.below_int(qubits - 1);
      if (b >= a) b++;
      c.add_gate("cx", a, b);
    } else {
      c.add_gate("h", rng.below_int(qubits));
    }
  }
  return c;
}

std::string errors_of(const Verdict& v) {
  std::string all;
  for (const auto& e : v.errors) all += e + "; ";
  return all;
}

// gtest names the cases by a byte dump of the whole struct, so it must
// have no padding: `rows` fills the slot before `seed` that would otherwise
// hold whatever the stack did.
struct SweepCase {
  int qubits;
  int gates;
  int swap_duration;
  int rows;  // of the grid device; columns = ceil(qubits / rows)
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<SweepCase>);

class RandomProblemSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RandomProblemSweep, DepthOptimalIsValidAndBoundedBelow) {
  const auto [qubits, gates, sd, rows, seed] = GetParam();
  const auto c = random_circuit(qubits, gates, seed);
  const auto dev = device::grid(rows, (qubits + rows - 1) / rows);
  const Problem problem{&c, &dev, sd};
  const Result r = synthesize_depth_optimal(problem);
  ASSERT_TRUE(r.solved);
  const Verdict v = verify(problem, r);
  EXPECT_TRUE(v.ok) << errors_of(v);
  const circuit::DependencyGraph deps(c);
  EXPECT_GE(r.depth, deps.longest_chain());
}

// The returned depth is the optimum: a fixed-bound solve is SAT at it and
// UNSAT one below, unless it is the dependency lower bound.
TEST_P(RandomProblemSweep, DepthOptimumIsTightByFixedSolves) {
  const auto [qubits, gates, sd, rows, seed] = GetParam();
  const auto c = random_circuit(qubits, gates, seed);
  const auto dev = device::grid(rows, (qubits + rows - 1) / rows);
  const Problem problem{&c, &dev, sd};
  const Result r = synthesize_depth_optimal(problem);
  ASSERT_TRUE(r.solved);
  EXPECT_TRUE(solve_fixed(problem, r.depth, -1).solved);
  if (r.depth > circuit::DependencyGraph(c).longest_chain()) {
    const Result below = solve_fixed(problem, r.depth - 1, -1);
    EXPECT_FALSE(below.solved);
    EXPECT_FALSE(below.hit_budget);
  }
}

// The model confines gate g at horizon h to the window its dependency
// chains allow, [chain_depth(g) - 1, h - 1 - tail(g)], so every decoded
// time lies in it. The windows must remove no schedule: on a fully
// connected device no SWAP is ever needed, so the optimum is T_LB itself,
// and solve_fixed is SAT there (below T_LB no model exists; the grid's
// d - 1 is DepthOptimumIsTightByFixedSolves' check).
TEST_P(RandomProblemSweep, GateTimesLieInTheirWindows) {
  const auto [qubits, gates, sd, rows, seed] = GetParam();
  const auto c = random_circuit(qubits, gates, seed);
  const circuit::DependencyGraph deps(c);
  const auto expect_in_windows = [&](const Result& r, int horizon) {
    ASSERT_TRUE(r.solved);
    for (int g = 0; g < c.num_gates(); ++g) {
      EXPECT_GE(r.gate_time[g], deps.chain_depth(g) - 1) << "gate " << g;
      EXPECT_LE(r.gate_time[g], horizon - 1 - deps.tail(g)) << "gate " << g;
    }
  };
  const auto dev = device::grid(rows, (qubits + rows - 1) / rows);
  const Problem problem{&c, &dev, sd};
  const Result optimum = synthesize_depth_optimal(problem);
  expect_in_windows(optimum, optimum.depth);
  expect_in_windows(solve_fixed(problem, optimum.depth, -1), optimum.depth);

  std::vector<device::Edge> all_pairs;
  for (int p = 0; p < qubits; ++p) {
    for (int q = p + 1; q < qubits; ++q) all_pairs.push_back({p, q});
  }
  const device::Device complete("complete", qubits, all_pairs);
  const Problem unrouted{&c, &complete, sd};
  const int t_lb = deps.longest_chain();
  EXPECT_EQ(synthesize_depth_optimal(unrouted).depth, t_lb);
  expect_in_windows(solve_fixed(unrouted, t_lb, -1), t_lb);
}

TEST_P(RandomProblemSweep, SwapOptimalDominatesAndVerifies) {
  const auto [qubits, gates, sd, rows, seed] = GetParam();
  const auto c = random_circuit(qubits, gates, seed);
  const auto dev = device::grid(rows, (qubits + rows - 1) / rows);
  const Problem problem{&c, &dev, sd};
  const Result depth_first = synthesize_depth_optimal(problem);
  const Result swap_first = synthesize_swap_optimal(problem);
  ASSERT_TRUE(depth_first.solved);
  ASSERT_TRUE(swap_first.solved);
  const Verdict v = verify(problem, swap_first);
  EXPECT_TRUE(v.ok) << errors_of(v);
  // The swap optimizer never returns more swaps than the depth-optimal
  // solution it starts from.
  EXPECT_LE(swap_first.swap_count, depth_first.swap_count);
}

TEST_P(RandomProblemSweep, TbSwapNeverBeatenByExactAtItsOwnGame) {
  const auto [qubits, gates, sd, rows, seed] = GetParam();
  const auto c = random_circuit(qubits, gates, seed);
  const auto dev = device::grid(rows, (qubits + rows - 1) / rows);
  const Problem problem{&c, &dev, sd};
  const Result tb = tb_synthesize_swap_optimal(problem);
  ASSERT_TRUE(tb.solved);
  const Verdict v = verify_transition_based(problem, tb);
  EXPECT_TRUE(v.ok) << errors_of(v);
  // SABRE is a heuristic over the same relaxation space: TB-OLSQ2's SWAP
  // count must not exceed it.
  const sabre::SabreResult heuristic = sabre::route(problem);
  EXPECT_LE(tb.swap_count, heuristic.swap_count);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomProblemSweep,
    ::testing::Values(SweepCase{3, 8, 1, 2, 1}, SweepCase{3, 8, 3, 2, 2},
                      SweepCase{4, 10, 1, 2, 3}, SweepCase{4, 10, 3, 2, 4},
                      SweepCase{5, 12, 1, 2, 5}, SweepCase{5, 12, 3, 2, 6},
                      SweepCase{6, 10, 1, 2, 7}, SweepCase{6, 14, 3, 2, 8}));

// QUEKO family property: for every seed and depth, OLSQ2 recovers exactly
// the generator's planted optimal depth and TB-OLSQ2 needs zero swaps.
class QuekoRecovery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuekoRecovery, PlantedOptimumIsRecovered) {
  const auto dev = device::grid(2, 3);
  bengen::Rng rng(GetParam());
  const int depth = 3 + rng.below_int(3);
  bengen::QuekoSpec spec;
  spec.depth = depth;
  spec.gate_count = depth * 3;
  spec.seed = GetParam();
  const auto c = bengen::queko(dev, spec);
  const Problem problem{&c, &dev, 3};

  const Result r = synthesize_depth_optimal(problem);
  ASSERT_TRUE(r.solved);
  EXPECT_EQ(r.depth, depth);
  EXPECT_TRUE(verify(problem, r).ok);

  const Result tb = tb_synthesize_swap_optimal(problem);
  ASSERT_TRUE(tb.solved);
  EXPECT_EQ(tb.swap_count, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuekoRecovery,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// Monotonicity property (the basis of iterative descent, §III-B2): if the
// model is SAT with SWAP bound S, it is SAT for every S' > S.
TEST(SwapBoundMonotonicity, SatStaysSatAsBoundLoosens) {
  const auto c = bengen::qaoa_3regular(6, 3);
  const auto dev = device::grid(2, 3);
  const Problem problem{&c, &dev, 1};
  const Result optimal = synthesize_swap_optimal(problem);
  ASSERT_TRUE(optimal.solved);
  EncodingConfig seq;
  seq.cardinality = CardEncoding::kSeqCounter;
  const circuit::DependencyGraph deps(c);
  const int horizon = deps.default_upper_bound() + 2;
  for (int bound = optimal.swap_count; bound <= optimal.swap_count + 3;
       ++bound) {
    const Result r = solve_fixed(problem, horizon, bound, seq);
    EXPECT_TRUE(r.solved) << "bound " << bound;
    EXPECT_LE(r.swap_count, bound);
  }
  if (optimal.swap_count > 0) {
    const Result r =
        solve_fixed(problem, optimal.depth, optimal.swap_count - 1, seq);
    EXPECT_FALSE(r.solved);
  }
}

// Swap duration property: larger S_D can only lengthen the optimal depth.
TEST(SwapDuration, DepthMonotoneInSwapDuration) {
  circuit::Circuit c(3, "triangle");
  c.add_gate("zz", 0, 1);
  c.add_gate("zz", 1, 2);
  c.add_gate("zz", 0, 2);
  const auto dev = device::grid(1, 3);
  int prev_depth = 0;
  for (const int sd : {1, 2, 3}) {
    const Problem problem{&c, &dev, sd};
    const Result r = synthesize_depth_optimal(problem);
    ASSERT_TRUE(r.solved) << "sd " << sd;
    EXPECT_TRUE(verify(problem, r).ok) << "sd " << sd;
    EXPECT_GE(r.depth, prev_depth);
    prev_depth = r.depth;
  }
}

// Devices with more connectivity never need a deeper optimal schedule.
TEST(Connectivity, DenserDeviceNeverDeeper) {
  const auto c = bengen::qaoa_3regular(4, 2);
  const auto line = device::grid(1, 4);
  const auto square = device::grid(2, 2);
  const Problem on_line{&c, &line, 1};
  const Problem on_square{&c, &square, 1};
  const Result rl = synthesize_depth_optimal(on_line);
  const Result rs = synthesize_depth_optimal(on_square);
  ASSERT_TRUE(rl.solved);
  ASSERT_TRUE(rs.solved);
  // K4 embeds no better in a square than... actually the square has strictly
  // more adjacent pairs available per step; depth can only improve or tie.
  EXPECT_LE(rs.depth, rl.depth);
}

}  // namespace
}  // namespace olsq2::layout
