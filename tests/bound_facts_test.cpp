// Tests for layout::BoundFacts, the proven objective-bound facts that the
// searches of one problem share: monotone depth cells, the non-dominated
// SWAP set, and their behaviour under concurrent writers.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "layout/search.h"

namespace olsq2::layout {
namespace {

TEST(BoundFacts, DepthFactsAreMonotone) {
  BoundFacts facts;
  EXPECT_EQ(facts.depth_unsat_max(), -1);
  facts.note_depth_unsat(3);
  facts.note_depth_unsat(7);
  facts.note_depth_unsat(5);  // weaker fact, ignored
  EXPECT_EQ(facts.depth_unsat_max(), 7);

  facts.note_depth_sat(20);
  facts.note_depth_sat(12);
  facts.note_depth_sat(15);  // weaker fact, ignored
  EXPECT_EQ(facts.depth_sat_min(), 12);
  EXPECT_EQ(facts.traffic().bound_facts, 4u);
}

TEST(BoundFacts, SwapFactsUseDominance) {
  BoundFacts facts;
  EXPECT_FALSE(facts.swap_known_unsat(1, 1));
  facts.note_swap_unsat(/*depth=*/5, /*swaps=*/2);
  // (d' <= 5, k' <= 2) is refuted...
  EXPECT_TRUE(facts.swap_known_unsat(5, 2));
  EXPECT_TRUE(facts.swap_known_unsat(4, 1));
  // ...but neither deeper nor swap-richer queries are.
  EXPECT_FALSE(facts.swap_known_unsat(6, 2));
  EXPECT_FALSE(facts.swap_known_unsat(5, 3));

  // A dominated fact adds nothing; a dominating one subsumes.
  facts.note_swap_unsat(4, 1);
  EXPECT_EQ(facts.traffic().bound_facts, 1u);
  facts.note_swap_unsat(6, 3);
  EXPECT_TRUE(facts.swap_known_unsat(6, 3));
  EXPECT_EQ(facts.traffic().bound_facts, 2u);
  EXPECT_EQ(facts.swap_facts(), (std::vector<std::pair<int, int>>{{6, 3}}));
}

TEST(BoundFacts, ConcurrentNotesKeepTrueExtremesAndNonDominatedSet) {
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  constexpr int kMax = 24;
  BoundFacts facts;

  struct Noted {
    std::vector<int> depth_unsat;
    std::vector<int> depth_sat;
    std::vector<std::pair<int, int>> swap_unsat;
    bool monotone = true;  // this thread saw the depth cells only tighten
  };
  std::vector<Noted> noted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&facts, &out = noted[t], t] {
      std::mt19937 rng(1000 + t);
      std::uniform_int_distribution<int> value(0, kMax);
      int last_unsat = -1;
      int last_sat = std::numeric_limits<int>::max();
      for (int i = 0; i < kOps; ++i) {
        const int a = value(rng);
        const int b = value(rng);
        switch (i % 4) {
          case 0:
            facts.note_depth_unsat(a);
            out.depth_unsat.push_back(a);
            break;
          case 1:
            facts.note_depth_sat(a);
            out.depth_sat.push_back(a);
            break;
          case 2: {
            // Facts near the anti-diagonal d + k = kMax, so the kept
            // frontier holds many points and dominated ones keep arriving.
            const int k = std::max(0, kMax - a - b % 3);
            facts.note_swap_unsat(a, k);
            out.swap_unsat.emplace_back(a, k);
            break;
          }
          default:
            facts.swap_known_unsat(a, b);
            break;
        }
        const int unsat = facts.depth_unsat_max();
        const int sat = facts.depth_sat_min();
        out.monotone = out.monotone && unsat >= last_unsat && sat <= last_sat;
        last_unsat = unsat;
        last_sat = sat;
      }
    });
  }
  for (std::thread& th : threads) th.join();

  int unsat_max = -1;
  int sat_min = std::numeric_limits<int>::max();
  std::vector<std::pair<int, int>> all_swaps;
  for (const Noted& n : noted) {
    EXPECT_TRUE(n.monotone);
    for (const int d : n.depth_unsat) unsat_max = std::max(unsat_max, d);
    for (const int d : n.depth_sat) sat_min = std::min(sat_min, d);
    all_swaps.insert(all_swaps.end(), n.swap_unsat.begin(),
                     n.swap_unsat.end());
  }
  EXPECT_EQ(facts.depth_unsat_max(), unsat_max);
  EXPECT_EQ(facts.depth_sat_min(), sat_min);

  // No kept fact dominates another...
  const std::vector<std::pair<int, int>> kept = facts.swap_facts();
  ASSERT_FALSE(kept.empty());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    for (std::size_t j = 0; j < kept.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(kept[i].first >= kept[j].first &&
                   kept[i].second >= kept[j].second)
          << "(" << kept[i].first << "," << kept[i].second << ") dominates ("
          << kept[j].first << "," << kept[j].second << ")";
    }
  }
  // ...and together they refute exactly the union of every noted fact.
  for (int d = 0; d <= kMax + 1; ++d) {
    for (int k = 0; k <= kMax + 1; ++k) {
      const bool expected =
          std::any_of(all_swaps.begin(), all_swaps.end(),
                      [&](const std::pair<int, int>& f) {
                        return f.first >= d && f.second >= k;
                      });
      EXPECT_EQ(facts.swap_known_unsat(d, k), expected)
          << "query (" << d << "," << k << ")";
    }
  }
}

}  // namespace
}  // namespace olsq2::layout
