// Tests for layout::BoundFacts, the proven objective-bound facts that the
// searches of one problem share: monotone depth cells, the non-dominated
// SWAP set, and facts shared across encodings of one problem.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "device/presets.h"
#include "layout/olsq2.h"
#include "layout/search.h"
#include "layout/verifier.h"
#include "qasm/parser.h"

#ifndef OLSQ2_BENCHMARK_DIR
#error "OLSQ2_BENCHMARK_DIR must be defined by the build"
#endif

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

// Facts are statements about the problem, not about a CNF: serve fences one
// `|tr` fact set across every EncodingConfig of an instance. So facts proved
// under the default encoding must not move the optimum (for SWAP, also the
// Pareto points) that channeling injectivity or seq-counter cardinality
// reaches on the same facts. Returns how many more calls the later runs
// pruned with those facts than without.
long expect_facts_keep_optima(const std::string& qasm,
                              const device::Device& dev, int swap_duration,
                              bool swap_objective) {
  const circuit::Circuit circ =
      qasm::parse_file(std::string(OLSQ2_BENCHMARK_DIR) + "/" + qasm);
  const Problem problem{&circ, &dev, swap_duration};
  const auto run = [&](const EncodingConfig& config, BoundFacts* facts) {
    OptimizerOptions options;
    options.facts = facts;
    return swap_objective ? synthesize_swap_optimal(problem, config, options)
                          : synthesize_depth_optimal(problem, config, options);
  };
  const auto optimum = [&](const Result& r) {
    return swap_objective ? r.pareto
                          : std::vector<std::pair<int, int>>{{r.depth, 0}};
  };
  const auto pruned_calls = [](const Result& r) {
    return std::count_if(r.calls.begin(), r.calls.end(),
                         [](const SolveCall& c) { return c.status == 'P'; });
  };

  EncodingConfig channeling;
  channeling.injectivity = InjectivityEncoding::kChanneling;
  EncodingConfig seq_counter;
  seq_counter.cardinality = CardEncoding::kSeqCounter;

  BoundFacts facts;
  const Result first = run(EncodingConfig{}, &facts);
  EXPECT_TRUE(first.solved && !first.hit_budget);
  EXPECT_EQ(optimum(first), optimum(run(EncodingConfig{}, nullptr)));
  EXPECT_TRUE(verify(problem, first).ok);
  EXPECT_GT(facts.traffic().bound_facts, 0u);

  long pruned = 0;
  for (const EncodingConfig& config : {channeling, seq_counter}) {
    SCOPED_TRACE(config.label());
    const Result unattached = run(config, nullptr);
    const Result attached = run(config, &facts);
    EXPECT_TRUE(unattached.solved && !unattached.hit_budget);
    EXPECT_TRUE(attached.solved && !attached.hit_budget);
    EXPECT_EQ(optimum(attached), optimum(unattached));
    EXPECT_EQ(optimum(attached), optimum(first));
    EXPECT_TRUE(verify(problem, attached).ok);
    pruned += pruned_calls(attached) - pruned_calls(unattached);
  }
  return pruned;
}

// A portfolio of encodings, run one after another on one shared fact set,
// must match the sequential optimizer's optima on real QASM inputs. The
// SWAP floor prunes calls with or without facts, so only the extra 'P'
// calls count as fact use.
TEST(Portfolio, SharingMatchesSequentialOnQasmCorpusDepth) {
  // The depth optimum of toffoli_qx2 is its dependency lower bound, so that
  // search proves no UNSAT fact to prune with; only the optima are checked.
  const long pruned =
      expect_facts_keep_optima("toffoli_qx2.qasm", device::ibm_qx2(), 3,
                               /*swap_objective=*/false);
  EXPECT_GE(pruned, 0);
}

TEST(Portfolio, SharingMatchesSequentialOnQasmCorpusSwap) {
  const long pruned =
      expect_facts_keep_optima("qaoa_triangle.qasm", device::grid(1, 4), 2,
                               /*swap_objective=*/true);
  EXPECT_GT(pruned, 0) << "no later run used a fact";
}

}  // namespace
}  // namespace olsq2::layout
