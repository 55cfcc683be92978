// Tests for portfolio (parallel) synthesis: the race with shared bound
// facts, its optima against the sequential optimizer, and reproducible
// optima across repeated races.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "bengen/workloads.h"
#include "device/presets.h"
#include "layout/olsq2.h"
#include "layout/portfolio.h"
#include "layout/verifier.h"
#include "qasm/parser.h"

namespace olsq2::layout {
namespace {

#ifndef OLSQ2_BENCHMARK_DIR
#error "OLSQ2_BENCHMARK_DIR must be defined by the build"
#endif

std::string corpus(const std::string& name) {
  return std::string(OLSQ2_BENCHMARK_DIR) + "/" + name;
}

TEST(Portfolio, DefaultEntriesCoverBothObjectives) {
  const auto depth_entries = default_portfolio(Objective::kDepth);
  const auto swap_entries = default_portfolio(Objective::kSwap);
  EXPECT_GE(depth_entries.size(), 3u);
  EXPECT_GT(swap_entries.size(), depth_entries.size());
  for (const auto& e : depth_entries) EXPECT_FALSE(e.name.empty());
}

TEST(Portfolio, DepthWinnerMatchesSequential) {
  const auto c = bengen::qaoa_3regular(6, 4);
  const auto dev = device::grid(2, 3);
  const Problem problem{&c, &dev, 1};
  const Result sequential = synthesize_depth_optimal(problem);
  ASSERT_TRUE(sequential.solved);

  const PortfolioResult portfolio =
      synthesize_portfolio(problem, Objective::kDepth,
                           default_portfolio(Objective::kDepth));
  ASSERT_TRUE(portfolio.best.solved);
  EXPECT_GE(portfolio.winner, 0);
  EXPECT_EQ(portfolio.best.depth, sequential.depth);
  EXPECT_TRUE(verify(problem, portfolio.best).ok);
}

TEST(Portfolio, SwapWinnerMatchesSequential) {
  const auto c = bengen::qaoa_3regular(6, 2);
  const auto dev = device::grid(2, 3);
  const Problem problem{&c, &dev, 1};
  const Result sequential = synthesize_swap_optimal(problem);
  ASSERT_TRUE(sequential.solved);

  const PortfolioResult portfolio = synthesize_portfolio(
      problem, Objective::kSwap, default_portfolio(Objective::kSwap));
  ASSERT_TRUE(portfolio.best.solved);
  EXPECT_EQ(portfolio.best.swap_count, sequential.swap_count);
  EXPECT_TRUE(verify(problem, portfolio.best).ok);
}

TEST(Portfolio, EmptyPortfolioReturnsUnsolved) {
  const auto c = bengen::qaoa_3regular(4, 1);
  const auto dev = device::grid(2, 2);
  const Problem problem{&c, &dev, 1};
  const PortfolioResult r =
      synthesize_portfolio(problem, Objective::kDepth, {});
  EXPECT_FALSE(r.best.solved);
  EXPECT_EQ(r.winner, -1);
}

TEST(Portfolio, TinyBudgetReportsBestPartial) {
  const auto c = bengen::qaoa_3regular(10, 3);
  const auto dev = device::grid(4, 4);
  const Problem problem{&c, &dev, 1};
  OptimizerOptions base;
  base.time_budget_ms = 5.0;  // nobody can finish
  const PortfolioResult r = synthesize_portfolio(
      problem, Objective::kDepth, default_portfolio(Objective::kDepth, base));
  // Either someone got lucky or nothing solved; both must be consistent.
  if (r.best.solved) {
    EXPECT_GE(r.winner, 0);
  } else {
    EXPECT_EQ(r.winner, -1);
  }
}

TEST(Portfolio, RecordsPerEntryWallClockAndTraffic) {
  const auto c = bengen::qaoa_3regular(6, 2);
  const auto dev = device::grid(2, 3);
  const Problem problem{&c, &dev, 1};
  const PortfolioResult r = synthesize_portfolio(
      problem, Objective::kSwap, default_portfolio(Objective::kSwap));
  ASSERT_TRUE(r.best.solved);
  for (const Result& entry : r.all) EXPECT_GT(entry.wall_ms, 0.0);
  // Every strategy publishes at least its first SAT/UNSAT depth bound.
  EXPECT_GT(r.traffic.bound_facts, 0u);
  // Each call a peer's fact pruned is a 'P' record of some entry (the
  // SWAP floor adds 'P' records of its own).
  std::uint64_t pruned_records = 0;
  for (const Result& entry : r.all) {
    pruned_records += static_cast<std::uint64_t>(std::count_if(
        entry.calls.begin(), entry.calls.end(),
        [](const SolveCall& call) { return call.status == 'P'; }));
  }
  EXPECT_LE(r.traffic.bound_pruned, pruned_records);
}

// Differential: the portfolio must land on exactly the optima the
// sequential optimizer proves, on real QASM inputs (bound-fact pruning must
// never change answers).
TEST(Portfolio, SharingMatchesSequentialOnQasmCorpusDepth) {
  const auto c = qasm::parse_file(corpus("toffoli_qx2.qasm"));
  const auto dev = device::ibm_qx2();
  const Problem problem{&c, &dev, 3};
  const Result sequential = synthesize_depth_optimal(problem);
  ASSERT_TRUE(sequential.solved);
  const PortfolioResult portfolio = synthesize_portfolio(
      problem, Objective::kDepth, default_portfolio(Objective::kDepth));
  ASSERT_TRUE(portfolio.best.solved);
  EXPECT_EQ(portfolio.best.depth, sequential.depth);
  EXPECT_TRUE(verify(problem, portfolio.best).ok);
}

TEST(Portfolio, SharingMatchesSequentialOnQasmCorpusSwap) {
  const auto c = qasm::parse_file(corpus("qaoa_triangle.qasm"));
  const auto dev = device::grid(1, 4);
  const Problem problem{&c, &dev, 2};
  const Result sequential = synthesize_swap_optimal(problem);
  ASSERT_TRUE(sequential.solved);
  const PortfolioResult portfolio = synthesize_portfolio(
      problem, Objective::kSwap, default_portfolio(Objective::kSwap));
  ASSERT_TRUE(portfolio.best.solved);
  EXPECT_EQ(portfolio.best.swap_count, sequential.swap_count);
  EXPECT_TRUE(verify(problem, portfolio.best).ok);
}

// Which entry wins, and which calls peers' facts prune, depends on the
// scheduler; the optimum must not.
TEST(Portfolio, RepeatedRacesReproduceOptima) {
  const auto c = bengen::qaoa_3regular(6, 3);
  const auto dev = device::grid(2, 3);
  const Problem problem{&c, &dev, 1};
  OptimizerOptions base;
  base.seed = 7;
  int depth = -1;
  for (int run = 0; run < 3; ++run) {
    const PortfolioResult r = synthesize_portfolio(
        problem, Objective::kDepth, default_portfolio(Objective::kDepth, base));
    ASSERT_TRUE(r.best.solved);
    if (run == 0) {
      depth = r.best.depth;
    } else {
      EXPECT_EQ(r.best.depth, depth);
    }
  }
}

}  // namespace
}  // namespace olsq2::layout
