// Property suite for the subarchitecture extraction + lift stack
// (src/subarch, DESIGN.md §14): cover enumeration against brute force,
// ladder-vs-direct agreement, lift round-trips, library canonical keying,
// budget/cancel degradation, and the serve composition.
// Suite names all start with "Subarch" (the CI TSan filter keys on it).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bengen/rng.h"
#include "bengen/workloads.h"
#include "circuit/circuit.h"
#include "device/distance.h"
#include "device/presets.h"
#include "layout/tb.h"
#include "layout/verifier.h"
#include "serve/batch.h"
#include "serve/canonical.h"
#include "subarch/extract.h"
#include "subarch/library.h"
#include "subarch/lift.h"
#include "subarch/solve.h"

namespace olsq2::subarch {
namespace {

// Brute force: all connected induced m-vertex subgraphs of `dev` by subset
// enumeration (fine for the <= 20-qubit devices used here).
std::vector<std::vector<int>> brute_force_connected(const device::Device& dev,
                                                    int m) {
  const int n = dev.num_qubits();
  std::vector<std::vector<int>> out;
  std::vector<int> pick(m);
  const auto connected = [&](const std::vector<int>& set) {
    std::vector<int> stack{set[0]};
    std::set<int> seen{set[0]};
    const std::set<int> members(set.begin(), set.end());
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (const int u : dev.neighbors(v)) {
        if (members.count(u) && !seen.count(u)) {
          seen.insert(u);
          stack.push_back(u);
        }
      }
    }
    return static_cast<int>(seen.size()) == m;
  };
  const std::function<void(int, int)> rec = [&](int next, int depth) {
    if (depth == m) {
      if (connected(pick)) out.push_back(pick);
      return;
    }
    for (int v = next; v < n; ++v) {
      pick[depth] = v;
      rec(v + 1, depth + 1);
    }
  };
  rec(0, 0);
  return out;
}

int induced_edge_count(const device::Device& dev, const std::vector<int>& set) {
  int count = 0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      if (dev.adjacent(set[i], set[j])) ++count;
    }
  }
  return count;
}

TEST(SubarchCover, MatchesBruteForceOnSmallDevices) {
  for (const device::Device& dev :
       {device::ibm_qx2(), device::grid(2, 3), device::rigetti_aspen4()}) {
    for (int m = 2; m <= 4; ++m) {
      SCOPED_TRACE(dev.name() + " m=" + std::to_string(m));
      const auto brute = brute_force_connected(dev, m);
      const auto cover = enumerate_cover(dev, m);
      ASSERT_TRUE(cover->complete);
      EXPECT_EQ(cover->size, m);
      // Every connected set visited exactly once; classes partition them.
      std::int64_t members = 0;
      for (const CoverClass& cls : cover->classes) members += cls.members;
      EXPECT_EQ(members, static_cast<std::int64_t>(brute.size()));
      for (const CoverClass& cls : cover->classes) {
        // Representative is a genuine connected induced subgraph with the
        // advertised edge count and an in-range, strictly-sorted witness.
        ASSERT_EQ(static_cast<int>(cls.rep.to_full.size()), m);
        EXPECT_TRUE(std::is_sorted(cls.rep.to_full.begin(),
                                   cls.rep.to_full.end()));
        EXPECT_GE(cls.rep.to_full.front(), 0);
        EXPECT_LT(cls.rep.to_full.back(), dev.num_qubits());
        EXPECT_EQ(cls.rep.device.num_edges(),
                  induced_edge_count(dev, cls.rep.to_full));
        EXPECT_EQ(cls.induced_edges, cls.rep.device.num_edges());
        EXPECT_TRUE(device::connected(cls.rep.device))
            << "class rep disconnected";
        // Induced subgraph: every rep edge exists on the device.
        for (const device::Edge& e : cls.rep.device.edges()) {
          EXPECT_TRUE(dev.adjacent(cls.rep.to_full[e.p0],
                                   cls.rep.to_full[e.p1]));
        }
      }
      // Densest-first pruning order.
      for (std::size_t i = 1; i < cover->classes.size(); ++i) {
        EXPECT_GE(cover->classes[i - 1].induced_edges,
                  cover->classes[i].induced_edges);
      }
    }
  }
}

TEST(SubarchCover, ProcessCacheReturnsIdenticalCover) {
  const device::Device dev = device::ibm_guadalupe16();
  // A warm call shares the cached cover instead of copying its classes.
  EXPECT_EQ(enumerate_cover(dev, 4), enumerate_cover(dev, 4));
}

TEST(SubarchCover, ProcessCacheKeysOnTheExactEdgeList) {
  // Same name, qubit and edge count, different coupling graphs: a path and
  // a star. Each must get its own cover, never the other's cached one.
  const device::Device path("twin", 4, {{0, 1}, {1, 2}, {2, 3}});
  const device::Device star("twin", 4, {{0, 1}, {0, 2}, {0, 3}});
  const auto a = enumerate_cover(path, 3);
  const auto b = enumerate_cover(star, 3);
  ASSERT_EQ(a->classes.size(), 1u);
  ASSERT_EQ(b->classes.size(), 1u);
  EXPECT_EQ(a->classes[0].members, 2);
  EXPECT_EQ(b->classes[0].members, 3);
  EXPECT_EQ(a->classes[0].rep.to_full, (std::vector<int>{0, 1, 2}));
  for (const device::Edge& e : b->classes[0].rep.device.edges()) {
    EXPECT_TRUE(star.adjacent(b->classes[0].rep.to_full[e.p0],
                              b->classes[0].rep.to_full[e.p1]));
  }
}

TEST(SubarchCover, InteractionConnectivityPredicate) {
  circuit::Circuit ghz = bengen::ghz(4);
  EXPECT_TRUE(interaction_connected(ghz));

  circuit::Circuit split(4, "split");
  split.add_gate("cx", 0, 1);
  split.add_gate("cx", 2, 3);
  EXPECT_FALSE(interaction_connected(split));

  circuit::Circuit silent(3, "silent");
  silent.add_gate("h", 0);
  EXPECT_FALSE(interaction_connected(silent));
}

TEST(SubarchLadder, MatchesDirectOnSmallDevices) {
  // Force the ladder onto devices the direct engine handles instantly and
  // require identical certified optima (the fuzz oracle sweeps this
  // relation over hundreds of random instances; these are fixed anchors).
  struct Case {
    circuit::Circuit circuit;
    device::Device device;
  };
  std::vector<Case> cases;
  cases.push_back({bengen::qaoa_3regular(4, 1), device::grid(2, 3)});
  cases.push_back({bengen::ghz(4), device::grid(2, 3)});
  cases.push_back({bengen::bernstein_vazirani(3, 0b111), device::grid(2, 3)});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.circuit.name() + " on " + c.device.name());
    const layout::Problem problem{&c.circuit, &c.device, 1};
    SubarchOptions subopts;
    subopts.min_device_qubits = 0;
    SubarchOutcome outcome;
    const layout::Result lifted =
        tb_synthesize_swap_optimal(problem, {}, {}, subopts, &outcome);
    const layout::Result direct = layout::tb_synthesize_swap_optimal(problem);
    ASSERT_TRUE(lifted.solved);
    ASSERT_TRUE(direct.solved);
    EXPECT_EQ(lifted.swap_count, direct.swap_count);
    const auto verdict = layout::verify_transition_based(problem, lifted);
    EXPECT_TRUE(verdict.ok) << (verdict.errors.empty() ? std::string()
                                                       : verdict.errors[0]);
  }
}

TEST(SubarchLadder, CertifiesOnEagle127) {
  circuit::Circuit ghz = bengen::ghz(5);
  const device::Device dev = device::ibm_eagle127();
  const layout::Problem problem{&ghz, &dev, 3};
  SubarchOutcome outcome;
  const layout::Result result =
      tb_synthesize_swap_optimal(problem, {}, {}, {}, &outcome);
  ASSERT_TRUE(result.solved);
  EXPECT_FALSE(result.hit_budget);
  EXPECT_TRUE(outcome.used);
  EXPECT_TRUE(outcome.certified) << outcome.fallback_reason;
  EXPECT_EQ(result.swap_count, 0);
  EXPECT_EQ(outcome.swap_optimum, 0);
  EXPECT_EQ(outcome.sub_qubits, 5);
  EXPECT_DOUBLE_EQ(outcome.reduction_ratio, 127.0 / 5.0);
  // The winning embedding hosts every program qubit: all mapping values
  // lie inside the witness image.
  const std::set<int> image(outcome.to_full.begin(), outcome.to_full.end());
  ASSERT_EQ(image.size(), outcome.to_full.size());
  for (const auto& row : result.mapping) {
    for (const int p : row) EXPECT_TRUE(image.count(p));
  }
  // Verified against the FULL 127-qubit device.
  const auto verdict = layout::verify_transition_based(problem, result);
  EXPECT_TRUE(verdict.ok) << (verdict.errors.empty() ? std::string()
                                                     : verdict.errors[0]);
}

TEST(SubarchLadder, CertifiesSwapsOnEagle127) {
  // A triangle interaction graph cannot embed in heavy-hex (girth > 3):
  // the ladder's round 0 is all-UNSAT and round 1 certifies exactly 1 SWAP.
  circuit::Circuit qaoa = bengen::qaoa_3regular(4, 1);
  const device::Device dev = device::ibm_eagle127();
  const layout::Problem problem{&qaoa, &dev, 1};
  SubarchOutcome outcome;
  const layout::Result result =
      tb_synthesize_swap_optimal(problem, {}, {}, {}, &outcome);
  ASSERT_TRUE(result.solved);
  ASSERT_TRUE(outcome.certified) << outcome.fallback_reason;
  EXPECT_GE(result.swap_count, 1);
  EXPECT_EQ(outcome.rounds, result.swap_count + 1);
  const auto verdict = layout::verify_transition_based(problem, result);
  EXPECT_TRUE(verdict.ok);
}

// `phi` must be a bijection of sub's qubits onto host's that maps every
// coupler of `sub` onto a coupler of `host`.
void expect_spanning_witness(const device::Device& sub,
                             const device::Device& host,
                             const std::vector<int>& phi) {
  const int n = sub.num_qubits();
  ASSERT_EQ(host.num_qubits(), n);
  ASSERT_EQ(static_cast<int>(phi.size()), n);
  const std::set<int> image(phi.begin(), phi.end());
  EXPECT_EQ(static_cast<int>(image.size()), n);
  for (const int w : phi) {
    ASSERT_GE(w, 0);
    ASSERT_LT(w, n);
  }
  for (const device::Edge& e : sub.edges()) {
    EXPECT_TRUE(host.adjacent(phi[e.p0], phi[e.p1]))
        << "coupler " << e.p0 << "-" << e.p1 << " maps to non-coupler "
        << phi[e.p0] << "-" << phi[e.p1];
  }
}

TEST(SubarchDominance, SpanningEmbeddingFindsWitnessesAndRejects) {
  const device::Device path("p4", 4, {{0, 1}, {1, 2}, {2, 3}});
  const device::Device cycle("c4", 4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const device::Device star("k13", 4, {{0, 1}, {0, 2}, {0, 3}});
  const device::Device relabeled("c4-rev", 4, {{3, 1}, {1, 0}, {0, 2}, {2, 3}});

  const std::optional<std::vector<int>> into_cycle =
      spanning_embedding(path, cycle);
  ASSERT_TRUE(into_cycle.has_value());
  expect_spanning_witness(path, cycle, *into_cycle);
  const std::optional<std::vector<int>> iso =
      spanning_embedding(cycle, relabeled);
  ASSERT_TRUE(iso.has_value());
  expect_spanning_witness(cycle, relabeled, *iso);

  EXPECT_FALSE(spanning_embedding(cycle, path));  // more couplers
  EXPECT_FALSE(spanning_embedding(star, cycle));  // degree 3 has no host
  EXPECT_FALSE(spanning_embedding(path, device::grid(2, 3)));  // 4 vs 6
  // Same degree sequence, still no embedding: two triangles vs C6.
  const device::Device triangles(
      "2k3", 6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  const device::Device hexagon(
      "c6", 6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  EXPECT_FALSE(spanning_embedding(triangles, hexagon));
  EXPECT_FALSE(spanning_embedding(hexagon, triangles));
}

// The classes ladder round k visits, as run_ladder builds them: the cover
// at |Q|+k qubits, or the whole device as its single class.
std::vector<CoverClass> round_classes(const device::Device& dev, int m,
                                      const ExtractOptions& options) {
  if (m < dev.num_qubits()) {
    const auto cover = enumerate_cover(dev, m, options);
    EXPECT_TRUE(cover->complete);
    return cover->classes;
  }
  std::vector<int> all(dev.num_qubits());
  for (int p = 0; p < dev.num_qubits(); ++p) all[p] = p;
  CoverClass cls;
  cls.rep = make_subdevice(dev, all);
  cls.canon = serve::canonicalize_device(cls.rep.device);
  cls.induced_edges = dev.num_edges();
  return {std::move(cls)};
}

// Runs the ladder (fresh library) and replays each of its rounds by
// probing every class directly: a class the ladder skipped must be UNSAT
// on its own and embed into a class refuted before it, and a class it
// probed must embed into no earlier UNSAT class. The library tells which
// classes the ladder probed. Since the replay probes every class, it is
// also the ladder without pruning, and its k must be the certified one.
// Returns the number of classes the ladder skipped.
std::int64_t check_dominance_replay(const circuit::Circuit& circuit,
                                    const device::Device& dev) {
  const layout::Problem problem{&circuit, &dev, 1};
  Library library;
  SubarchOptions subopts;
  subopts.min_device_qubits = 0;
  subopts.library = &library;
  SubarchOutcome outcome;
  const layout::Result lifted =
      tb_synthesize_swap_optimal(problem, {}, {}, subopts, &outcome);
  EXPECT_TRUE(outcome.certified) << outcome.fallback_reason;
  if (!outcome.certified) return 0;
  const layout::Result direct = layout::tb_synthesize_swap_optimal(problem);
  EXPECT_TRUE(direct.solved);
  EXPECT_FALSE(direct.hit_budget);
  EXPECT_EQ(lifted.swap_count, direct.swap_count);
  EXPECT_EQ(outcome.library_hits, 0);

  const std::string circuit_key = serve::canonicalize_circuit(circuit).key;
  std::int64_t visited = 0;
  std::int64_t skipped = 0;
  for (int k = 0; k <= outcome.swap_optimum; ++k) {
    const int m = std::min(circuit.num_qubits() + k, dev.num_qubits());
    const std::vector<CoverClass> classes =
        round_classes(dev, m, subopts.extract);
    std::vector<const CoverClass*> unsat;    // every UNSAT class so far
    std::vector<const CoverClass*> refuted;  // the UNSAT ones it probed
    bool closed = false;
    for (const CoverClass& cls : classes) {
      ++visited;
      const layout::Problem sub{&circuit, &cls.rep.device, 1};
      const layout::Result r = layout::tb_solve_fixed(sub, k + 1, k);
      EXPECT_FALSE(r.hit_budget);
      const bool probed =
          library.lookup(probe_key(cls.canon.key, circuit_key, 1, k))
              .has_value();
      if (!probed) {
        ++skipped;
        EXPECT_FALSE(r.solved) << "skipped a SAT class at k=" << k;
        bool hosted = false;
        for (const CoverClass* host : refuted) {
          if (const std::optional<std::vector<int>> phi =
                  spanning_embedding(cls.rep.device, host->rep.device)) {
            expect_spanning_witness(cls.rep.device, host->rep.device, *phi);
            hosted = true;
            break;
          }
        }
        EXPECT_TRUE(hosted) << "skipped a class no refuted class hosts at k="
                            << k;
        unsat.push_back(&cls);
        continue;
      }
      for (const CoverClass* earlier : unsat) {
        EXPECT_FALSE(spanning_embedding(cls.rep.device, earlier->rep.device))
            << "probed a dominated class at k=" << k;
      }
      if (r.solved) {
        closed = true;
        break;
      }
      unsat.push_back(&cls);
      refuted.push_back(&cls);
    }
    EXPECT_EQ(closed, k == outcome.swap_optimum) << "k=" << k;
  }
  EXPECT_EQ(skipped, outcome.dominated);
  EXPECT_EQ(outcome.probes + outcome.library_hits + outcome.dominated,
            visited);
  EXPECT_EQ(static_cast<std::int64_t>(library.stats().inserts),
            outcome.probes);
  return outcome.dominated;
}

TEST(SubarchDominance, LadderSkipsOnlyRefutedClassesOnSmallDevices) {
  std::int64_t dominated = 0;
  const circuit::Circuit k4 = bengen::qaoa_3regular(4, 1);
  for (const device::Device& dev :
       {device::grid(2, 3), device::grid(3, 3), device::ibm_qx2()}) {
    SCOPED_TRACE(dev.name());
    dominated += check_dominance_replay(k4, dev);
  }
  {
    SCOPED_TRACE("bv4 on grid(3,3)");
    dominated += check_dominance_replay(bengen::bernstein_vazirani(4, 0b1111),
                                        device::grid(3, 3));
  }
  // Grids refute C4 before the paths it contains.
  EXPECT_GT(dominated, 0);
}

TEST(SubarchDominance, LadderSkipsOnlyRefutedClassesOnGrid8x8Region) {
  // A 6-qubit region draw that needs no SWAP but whose densest classes
  // are refuted first, so the closing round skips classes; the direct
  // engine certifies 0 SWAPs on the 64-qubit grid in milliseconds.
  const device::Device grid8 = device::grid(8, 8);
  EXPECT_GT(
      check_dominance_replay(bengen::region_workload(grid8, 6, 8, 1, 14),
                             grid8),
      0);
}

TEST(SubarchDominance, MaximalClassCountsOnGridAndHeavyHex) {
  // Classes that embed into no other class of their cover are the only
  // ones an all-UNSAT round needs to probe.
  const auto maximal = [](const Cover& cover) {
    int count = 0;
    for (const CoverClass& cls : cover.classes) {
      bool embeds = false;
      for (const CoverClass& other : cover.classes) {
        if (&other != &cls &&
            spanning_embedding(cls.rep.device, other.rep.device)) {
          embeds = true;
          break;
        }
      }
      count += embeds ? 0 : 1;
    }
    return count;
  };
  const device::Device grid8 = device::grid(8, 8);
  const std::vector<std::pair<int, int>> grid_counts = {{6, 3}, {7, 4}, {8, 9}};
  for (const auto& [m, want] : grid_counts) {
    const auto cover = enumerate_cover(grid8, m);
    ASSERT_TRUE(cover->complete);
    EXPECT_EQ(maximal(*cover), want) << "grid8x8 m=" << m;
  }
  // Heavy-hex has no cycle shorter than 12: every class up to m = 9 is a
  // tree with m-1 couplers, so none embeds into another.
  const device::Device eagle = device::ibm_eagle127();
  for (int m = 2; m <= 9; ++m) {
    const auto cover = enumerate_cover(eagle, m);
    ASSERT_TRUE(cover->complete);
    EXPECT_EQ(maximal(*cover), static_cast<int>(cover->classes.size()))
        << "eagle127 m=" << m;
  }
}

TEST(SubarchLift, ProjectionRoundTrip) {
  const device::Device full = device::ibm_eagle127();
  // A fixed connected region as the subdevice: the start of the top row.
  const SubDevice sd = make_subdevice(full, {0, 1, 2, 3, 4, 5});
  ASSERT_TRUE(device::connected(sd.device));
  // A sub-space mapping row; lift then project must round-trip.
  std::vector<int> sub_mapping = {2, 0, 5, 1};  // 4 program qubits
  std::vector<int> full_mapping(sub_mapping.size());
  for (std::size_t q = 0; q < sub_mapping.size(); ++q) {
    full_mapping[q] = sd.to_full[sub_mapping[q]];
  }
  EXPECT_EQ(project_mapping(full_mapping, sd, full), sub_mapping);
  // Positions outside the subdevice project to -1.
  std::vector<int> outside(1, -1);
  for (int p = 0; p < full.num_qubits(); ++p) {
    if (std::find(sd.to_full.begin(), sd.to_full.end(), p) ==
        sd.to_full.end()) {
      outside[0] = p;
      break;
    }
  }
  ASSERT_GE(outside[0], 0);
  EXPECT_EQ(project_mapping(outside, sd, full), std::vector<int>{-1});
}

TEST(SubarchLift, LiftedResultUsesWitnessIndices) {
  const device::Device full = device::grid(3, 3);
  const SubDevice sd = make_subdevice(full, {0, 1, 4, 3});
  circuit::Circuit qaoa = bengen::qaoa_3regular(4, 1);
  const layout::Problem sub_problem{&qaoa, &sd.device, 1};
  const layout::Result sub = layout::tb_synthesize_swap_optimal(sub_problem);
  ASSERT_TRUE(sub.solved);
  const layout::Result lifted = lift_result(sub, sd, full);
  EXPECT_EQ(lifted.swap_count, sub.swap_count);
  EXPECT_EQ(lifted.depth, sub.depth);
  const layout::Problem full_problem{&qaoa, &full, 1};
  const auto verdict = layout::verify_transition_based(full_problem, lifted);
  EXPECT_TRUE(verdict.ok) << (verdict.errors.empty() ? std::string()
                                                     : verdict.errors[0]);
}

TEST(SubarchLibrary, RelabeledDeviceHitsSameEntries) {
  // Reverse-relabel the device: isomorphic coupling graph, so the ladder's
  // canonical probe keys must collide and the second run must reuse the
  // first run's library entries.
  const device::Device dev = device::ibm_guadalupe16();
  std::vector<device::Edge> reversed_edges;
  const int n = dev.num_qubits();
  for (const device::Edge& e : dev.edges()) {
    reversed_edges.push_back({n - 1 - e.p0, n - 1 - e.p1});
  }
  const device::Device reversed("guadalupe-rev", n, std::move(reversed_edges));

  circuit::Circuit bv = bengen::bernstein_vazirani(3, 0b111);
  Library library;
  SubarchOptions subopts;
  subopts.min_device_qubits = 0;
  subopts.library = &library;

  const layout::Problem problem{&bv, &dev, 1};
  SubarchOutcome first;
  const layout::Result a =
      tb_synthesize_swap_optimal(problem, {}, {}, subopts, &first);
  ASSERT_TRUE(a.solved);
  ASSERT_TRUE(first.certified) << first.fallback_reason;
  const Library::Stats cold = library.stats();
  EXPECT_GT(cold.inserts, 0u);

  const layout::Problem relabeled{&bv, &reversed, 1};
  SubarchOutcome second;
  const layout::Result b =
      tb_synthesize_swap_optimal(relabeled, {}, {}, subopts, &second);
  ASSERT_TRUE(b.solved);
  ASSERT_TRUE(second.certified) << second.fallback_reason;
  EXPECT_EQ(a.swap_count, b.swap_count);
  const Library::Stats warm = library.stats();
  EXPECT_GT(warm.hits, cold.hits)
      << "isomorphic device did not reuse the probe library";
  EXPECT_GT(second.library_hits, 0);
}

TEST(SubarchBudget, EnumerationBudgetDegradesToDirect) {
  circuit::Circuit qaoa = bengen::qaoa_3regular(4, 1);
  const device::Device dev = device::grid(2, 3);
  const layout::Problem problem{&qaoa, &dev, 1};
  SubarchOptions subopts;
  subopts.min_device_qubits = 0;
  subopts.extract.max_subgraphs = 1;  // guarantees an aborted enumeration
  SubarchOutcome outcome;
  const layout::Result result =
      tb_synthesize_swap_optimal(problem, {}, {}, subopts, &outcome);
  ASSERT_TRUE(result.solved);  // the direct fallback answered
  EXPECT_FALSE(outcome.used);
  EXPECT_FALSE(outcome.certified);
  EXPECT_FALSE(outcome.fallback_reason.empty());
  EXPECT_EQ(result.swap_count,
            layout::tb_synthesize_swap_optimal(problem).swap_count);
}

TEST(SubarchBudget, SizeCapAndDisabledDegradeToDirect) {
  circuit::Circuit ghz = bengen::ghz(4);
  const device::Device dev = device::grid(2, 3);
  const layout::Problem problem{&ghz, &dev, 1};

  SubarchOptions capped;
  capped.min_device_qubits = 0;
  capped.extract.max_sub_qubits = 2;  // |Q| = 4 exceeds the cap
  SubarchOutcome outcome;
  const layout::Result r1 =
      tb_synthesize_swap_optimal(problem, {}, {}, capped, &outcome);
  ASSERT_TRUE(r1.solved);
  EXPECT_FALSE(outcome.used);

  SubarchOptions disabled;
  disabled.enable = false;
  SubarchOutcome off;
  const layout::Result r2 =
      tb_synthesize_swap_optimal(problem, {}, {}, disabled, &off);
  ASSERT_TRUE(r2.solved);
  EXPECT_FALSE(off.used);
  EXPECT_EQ(r1.swap_count, r2.swap_count);
}

TEST(SubarchBudget, CancelWithoutFallbackReportsMiss) {
  circuit::Circuit ghz = bengen::ghz(4);
  const device::Device dev = device::ibm_eagle127();
  const layout::Problem problem{&ghz, &dev, 1};
  std::atomic<bool> cancel{true};
  layout::OptimizerOptions options;
  options.cancel = &cancel;
  SubarchOutcome outcome;
  const layout::Result result =
      tb_synthesize_swap_optimal(problem, {}, options, {}, &outcome);
  EXPECT_FALSE(result.solved);
  EXPECT_TRUE(result.hit_budget);
  EXPECT_FALSE(outcome.certified);
}

TEST(SubarchPlan, WrapperCertifiesOnEagle127) {
  circuit::Circuit qaoa = bengen::qaoa_3regular(4, 1);
  const device::Device dev = device::ibm_eagle127();
  const layout::Problem problem{&qaoa, &dev, 1};
  SubarchOutcome outcome;
  const plan::PlanResult planned = plan_synthesize(problem, {}, {}, &outcome);
  ASSERT_TRUE(planned.solved);
  ASSERT_TRUE(planned.optimal) << outcome.fallback_reason;
  EXPECT_GE(planned.swap_count, 1);
  const auto verdict =
      layout::verify_transition_based(problem, planned.layout);
  EXPECT_TRUE(verdict.ok) << (verdict.errors.empty() ? std::string()
                                                     : verdict.errors[0]);
}

TEST(SubarchServe, PrePassRoutesTbSwapAndPlanTransparently) {
  circuit::Circuit ghz = bengen::ghz(5);
  const device::Device dev = device::ibm_eagle127();
  serve::Server server;
  serve::Request request;
  request.circuit = &ghz;
  request.device = &dev;
  request.swap_duration = 3;
  request.engine = serve::Engine::kTbSwap;
  const serve::Response tb = server.serve(request);
  ASSERT_TRUE(tb.result.solved);
  EXPECT_FALSE(tb.result.hit_budget);
  EXPECT_EQ(tb.result.swap_count, 0);
  EXPECT_GT(server.subarch_library().stats().inserts, 0u)
      << "serve pre-pass never engaged the ladder";

  request.engine = serve::Engine::kPlan;
  const serve::Response plan = server.serve(request);
  ASSERT_TRUE(plan.result.solved);
  EXPECT_FALSE(plan.result.hit_budget);
  EXPECT_EQ(plan.result.swap_count, 0);

  const layout::Problem problem{&ghz, &dev, 3};
  const auto verdict =
      layout::verify_transition_based(problem, tb.result);
  EXPECT_TRUE(verdict.ok);
}

TEST(SubarchServe, DisabledServerSkipsThePrePass) {
  circuit::Circuit ghz = bengen::ghz(4);
  const device::Device dev = device::ibm_guadalupe16();
  serve::ServerOptions opts;
  opts.subarch.enable = false;
  serve::Server server(opts);
  serve::Request request;
  request.circuit = &ghz;
  request.device = &dev;
  request.swap_duration = 1;
  request.engine = serve::Engine::kTbSwap;
  const serve::Response r = server.serve(request);
  ASSERT_TRUE(r.result.solved);
  EXPECT_EQ(server.subarch_library().stats().inserts, 0u);
  EXPECT_EQ(server.subarch_library().stats().misses, 0u);
}

TEST(SubarchShould, EngageGating) {
  circuit::Circuit ghz = bengen::ghz(4);
  const device::Device big = device::ibm_eagle127();
  const device::Device small = device::ibm_qx2();
  SubarchOptions defaults;
  EXPECT_TRUE(should_engage({&ghz, &big, 1}, defaults));
  EXPECT_FALSE(should_engage({&ghz, &small, 1}, defaults));  // below threshold

  SubarchOptions forced;
  forced.min_device_qubits = 0;
  EXPECT_TRUE(should_engage({&ghz, &small, 1}, forced));
  circuit::Circuit five = bengen::ghz(5);
  EXPECT_FALSE(should_engage({&five, &small, 1}, forced));  // |Q| == |P|
  forced.enable = false;
  EXPECT_FALSE(should_engage({&ghz, &small, 1}, forced));
}

}  // namespace
}  // namespace olsq2::subarch
