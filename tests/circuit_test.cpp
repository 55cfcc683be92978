// Tests for the circuit IR and dependency analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/dependency.h"

namespace olsq2::circuit {
namespace {

TEST(Circuit, GateBookkeeping) {
  Circuit c(3, "demo");
  c.add_gate("h", 0);
  c.add_gate("cx", 0, 1);
  c.add_gate("t", 2);
  c.add_gate("cx", 1, 2);
  EXPECT_EQ(c.num_gates(), 4);
  EXPECT_EQ(c.num_two_qubit_gates(), 2);
  EXPECT_EQ(c.num_single_qubit_gates(), 2);
  EXPECT_EQ(c.label(), "demo(3/4)");
  EXPECT_TRUE(c.gate(1).is_two_qubit());
  EXPECT_FALSE(c.gate(0).is_two_qubit());
  EXPECT_TRUE(c.gate(3).acts_on(1));
  EXPECT_TRUE(c.gate(3).acts_on(2));
  EXPECT_FALSE(c.gate(3).acts_on(0));
}

TEST(Dependency, EmptyCircuit) {
  Circuit c(2, "empty");
  DependencyGraph deps(c);
  EXPECT_EQ(deps.longest_chain(), 0);
  EXPECT_TRUE(deps.pairs().empty());
}

TEST(Dependency, SingleGate) {
  Circuit c(2, "one");
  c.add_gate("cx", 0, 1);
  DependencyGraph deps(c);
  EXPECT_EQ(deps.longest_chain(), 1);
  EXPECT_EQ(deps.default_upper_bound(), 2);  // floored at T_LB + 1
}

TEST(Dependency, ChainOnOneQubit) {
  Circuit c(1, "chain");
  for (int i = 0; i < 7; ++i) c.add_gate("t", 0);
  DependencyGraph deps(c);
  EXPECT_EQ(deps.longest_chain(), 7);
  EXPECT_EQ(deps.pairs().size(), 6u);
}

TEST(Dependency, ParallelGatesShareNoDependency) {
  Circuit c(4, "par");
  c.add_gate("cx", 0, 1);
  c.add_gate("cx", 2, 3);
  DependencyGraph deps(c);
  EXPECT_EQ(deps.longest_chain(), 1);
  EXPECT_TRUE(deps.pairs().empty());
}

TEST(Dependency, TwoQubitGatesLinkBothOperands) {
  Circuit c(3, "link");
  c.add_gate("cx", 0, 1);  // g0
  c.add_gate("cx", 1, 2);  // g1 depends on g0 via q1
  c.add_gate("h", 0);      // g2 depends on g0 via q0
  DependencyGraph deps(c);
  EXPECT_EQ(deps.longest_chain(), 2);
  ASSERT_EQ(deps.pairs().size(), 2u);
  EXPECT_EQ(deps.pairs()[0], std::make_pair(0, 1));
  EXPECT_EQ(deps.pairs()[1], std::make_pair(0, 2));
  EXPECT_EQ(deps.chain_depth(0), 1);
  EXPECT_EQ(deps.chain_depth(1), 2);
  EXPECT_EQ(deps.chain_depth(2), 2);
}

TEST(Dependency, AsapLayersPartitionAllGates) {
  Circuit c(3, "layers");
  c.add_gate("cx", 0, 1);
  c.add_gate("cx", 1, 2);
  c.add_gate("h", 0);
  c.add_gate("cx", 0, 2);
  DependencyGraph deps(c);
  const auto layers = deps.asap_layers();
  std::size_t total = 0;
  for (const auto& layer : layers) total += layer.size();
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(layers.size(), static_cast<std::size_t>(deps.longest_chain()));
  // Layer membership respects chain depth.
  for (std::size_t l = 0; l < layers.size(); ++l) {
    for (const int g : layers[l]) {
      EXPECT_EQ(deps.chain_depth(g), static_cast<int>(l) + 1);
    }
  }
}

TEST(Dependency, TailCountsTheLongestChainAfterEachGate) {
  Circuit c(3, "tail");
  c.add_gate("cx", 0, 1);  // g0: g1 and g2 follow it
  c.add_gate("cx", 1, 2);  // g1: g3 and g4 follow it
  c.add_gate("h", 0);      // g2: last on q0
  c.add_gate("t", 2);      // g3: last on q2
  c.add_gate("h", 1);      // g4: last on q1
  DependencyGraph deps(c);
  EXPECT_EQ(deps.longest_chain(), 3);
  const int tails[] = {2, 1, 0, 0, 0};
  const int depths[] = {1, 2, 2, 3, 3};
  for (int g = 0; g < 5; ++g) {
    EXPECT_EQ(deps.tail(g), tails[g]) << "gate " << g;
    EXPECT_EQ(deps.chain_depth(g), depths[g]) << "gate " << g;
  }
}

// The chain through a gate is the chain up to it plus the chain after it,
// so chain_depth(g) + tail(g) never exceeds T_LB and reaches it on the
// longest chain. Each tail is one more than its longest successor's.
TEST(Dependency, ChainsThroughEachGateFitTheLowerBound) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const int qubits = 2 + static_cast<int>(rng() % 5);
    Circuit c(qubits, "random");
    const int gates = 1 + static_cast<int>(rng() % 30);
    for (int g = 0; g < gates; ++g) {
      const int a = static_cast<int>(rng() % qubits);
      const int b = static_cast<int>(rng() % qubits);
      if (a == b) {
        c.add_gate("h", a);
      } else {
        c.add_gate("cx", a, b);
      }
    }
    const DependencyGraph deps(c);
    std::vector<int> longest_successor(gates, -1);
    for (const auto& [earlier, later] : deps.pairs()) {
      longest_successor[earlier] =
          std::max(longest_successor[earlier], deps.tail(later));
    }
    int widest = 0;
    for (int g = 0; g < gates; ++g) {
      EXPECT_EQ(deps.tail(g), longest_successor[g] + 1) << "gate " << g;
      EXPECT_LE(deps.chain_depth(g) + deps.tail(g), deps.longest_chain());
      widest = std::max(widest, deps.chain_depth(g) + deps.tail(g));
    }
    EXPECT_EQ(widest, deps.longest_chain()) << "trial " << trial;
  }
}

TEST(Dependency, UpperBoundScalesByOnePointFive) {
  Circuit c(1, "ub");
  for (int i = 0; i < 10; ++i) c.add_gate("t", 0);
  DependencyGraph deps(c);
  EXPECT_EQ(deps.longest_chain(), 10);
  EXPECT_EQ(deps.default_upper_bound(), 15);
}

}  // namespace
}  // namespace olsq2::circuit
