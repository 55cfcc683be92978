// Tests for the serving layer: instance canonicalization, witness-based
// result transfer, the two-tier result cache, manifests, and batch
// deduplication with shared bound facts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bengen/rng.h"
#include "device/presets.h"
#include "fuzz/generator.h"
#include "fuzz/metamorphic.h"
#include "layout/olsq2.h"
#include "layout/verifier.h"
#include "obs/obs.h"
#include "serve/batch.h"
#include "serve/cache.h"
#include "serve/canonical.h"
#include "serve/manifest.h"
#include "serve/transfer.h"

namespace olsq2::serve {
namespace {

circuit::Circuit triangle() {
  circuit::Circuit c(3, "triangle");
  c.add_gate("zz", 0, 1);
  c.add_gate("zz", 1, 2);
  c.add_gate("zz", 0, 2);
  return c;
}

fuzz::Instance triangle_instance() {
  return fuzz::Instance{triangle(), device::grid(1, 3), 1};
}

// A scratch directory under the system temp dir, removed on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("olsq2_serve_test_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

// ---- canonicalization ---------------------------------------------------

TEST(Canonical, InvariantUnderProgramQubitRelabeling) {
  const auto base = triangle_instance();
  const auto base_canon = canonicalize_circuit(base.circuit);
  bengen::Rng rng(11);
  for (int i = 0; i < 4; ++i) {
    const auto variant = fuzz::relabel_program_qubits(base, rng);
    const auto canon = canonicalize_circuit(variant.circuit);
    ASSERT_TRUE(canon.exact);
    EXPECT_EQ(canon.key, base_canon.key);
  }
}

TEST(Canonical, InvariantUnderPhysicalQubitRelabeling) {
  const auto base = triangle_instance();
  const auto base_canon = canonicalize_device(base.device);
  bengen::Rng rng(12);
  for (int i = 0; i < 4; ++i) {
    const auto variant = fuzz::relabel_physical_qubits(base, rng);
    const auto canon = canonicalize_device(variant.device);
    ASSERT_TRUE(canon.exact);
    EXPECT_EQ(canon.key, base_canon.key);
  }
}

TEST(Canonical, InvariantUnderCommutingReorder) {
  circuit::Circuit pairs(4, "pairs");
  pairs.add_gate("zz", 0, 1);
  pairs.add_gate("zz", 2, 3);  // commutes with the first gate
  pairs.add_gate("zz", 1, 2);
  fuzz::Instance base{std::move(pairs), device::grid(2, 2), 1};
  const auto base_canon = canonicalize_circuit(base.circuit);
  bengen::Rng rng(13);
  for (int i = 0; i < 4; ++i) {
    const auto variant = fuzz::commuting_reorder(base, rng);
    EXPECT_EQ(canonicalize_circuit(variant.circuit).key, base_canon.key);
  }
}

TEST(Canonical, InvariantUnderOperandOrientation) {
  // Layout synthesis only constrains the mapped pair's adjacency, so the
  // canonical form quotients "cx a,b" vs "cx b,a".
  circuit::Circuit flipped(3, "triangle");
  flipped.add_gate("zz", 1, 0);
  flipped.add_gate("zz", 2, 1);
  flipped.add_gate("zz", 2, 0);
  EXPECT_EQ(canonicalize_circuit(flipped).key,
            canonicalize_circuit(triangle()).key);
}

TEST(Canonical, DistinguishesInequivalentInstances) {
  circuit::Circuit line(3, "line");
  line.add_gate("zz", 0, 1);
  line.add_gate("zz", 1, 2);
  EXPECT_NE(canonicalize_circuit(line).key,
            canonicalize_circuit(triangle()).key);

  EXPECT_NE(canonicalize_device(device::grid(1, 4)).key,
            canonicalize_device(device::grid(2, 2)).key);

  // Same circuit and device, different SWAP duration: different key.
  const auto c = triangle();
  const auto dev = device::grid(1, 3);
  EXPECT_NE(canonicalize(c, dev, 1).instance_key(),
            canonicalize(c, dev, 3).instance_key());
}

TEST(Canonical, GateNameAndParamsAreSignificant) {
  circuit::Circuit a(2, "a");
  a.add_gate("rzz", 0, 1, "0.5");
  circuit::Circuit b(2, "b");
  b.add_gate("rzz", 0, 1, "0.25");
  circuit::Circuit c(2, "c");
  c.add_gate("cx", 0, 1);
  EXPECT_NE(canonicalize_circuit(a).key, canonicalize_circuit(b).key);
  EXPECT_NE(canonicalize_circuit(a).key, canonicalize_circuit(c).key);
}

TEST(Canonical, WitnessRebuildsIdenticalCanonicalInstances) {
  // Equal keys must mean equal canonical-space instances; the witness is
  // how the cache maps results between the two originals.
  const auto base = triangle_instance();
  bengen::Rng rng(14);
  auto variant = fuzz::relabel_program_qubits(base, rng);
  variant = fuzz::relabel_physical_qubits(variant, rng);

  const auto canon_a = canonicalize(base.circuit, base.device, 1);
  const auto canon_b =
      canonicalize(variant.circuit, variant.device, 1);
  ASSERT_EQ(canon_a.instance_key(), canon_b.instance_key());

  const auto circ_a = apply_circuit_canon(base.circuit, canon_a.circuit);
  const auto circ_b = apply_circuit_canon(variant.circuit, canon_b.circuit);
  ASSERT_EQ(circ_a.num_gates(), circ_b.num_gates());
  for (int g = 0; g < circ_a.num_gates(); ++g) {
    EXPECT_EQ(circ_a.gate(g), circ_b.gate(g));
  }
  const auto dev_a = apply_device_canon(base.device, canon_a.device);
  const auto dev_b = apply_device_canon(variant.device, canon_b.device);
  ASSERT_EQ(dev_a.num_edges(), dev_b.num_edges());
  for (int e = 0; e < dev_a.num_edges(); ++e) {
    EXPECT_EQ(dev_a.edge(e).p0, dev_b.edge(e).p0);
    EXPECT_EQ(dev_a.edge(e).p1, dev_b.edge(e).p1);
  }
}

TEST(Canonical, InvertPermutationRoundTrips) {
  const std::vector<int> perm{2, 0, 3, 1};
  const auto inv = invert_permutation(perm);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(inv[perm[i]], i);
}

/// The `rounds` argument of the first `name` span in `events`; -1 if none.
int rounds_arg(const std::vector<obs::Event>& events, const char* name) {
  for (const obs::Event& e : events) {
    if (e.kind != obs::Event::Kind::kSpan || e.name != name) continue;
    for (const obs::Arg& arg : e.args) {
      if (arg.key == "rounds") return std::stoi(arg.value);
    }
  }
  return -1;
}

TEST(Canonical, SpansReportRefinementRounds) {
  obs::Trace& trace = obs::Trace::instance();
  trace.begin_capture("");
  // A 9-vertex path: the root refines the degree seed in 3 splitting
  // rounds (one distance class from the ends per round) plus one round
  // that finds the fixpoint. Each of the 2 branches individualizes one
  // end and splits the 3 remaining pairs, one per round, until discrete.
  const DeviceCanon canon = canonicalize_device(device::grid(1, 9));
  canonicalize_circuit(triangle());
  const std::vector<obs::Event> events = trace.snapshot();
  trace.end_capture();
  EXPECT_TRUE(canon.exact);
  EXPECT_EQ(rounds_arg(events, "serve.canonicalize.device"), 4 + 2 * 3);
  EXPECT_GE(rounds_arg(events, "serve.canonicalize.circuit"), 0);
}

// ---- result transfer ----------------------------------------------------

TEST(Transfer, UntransferredResultVerifiesOnTheOriginal) {
  const auto base = triangle_instance();
  bengen::Rng rng(15);
  auto variant = fuzz::relabel_program_qubits(base, rng);
  variant = fuzz::relabel_physical_qubits(variant, rng);

  const auto canon = canonicalize(variant.circuit, variant.device, 1);
  const auto canon_circ = apply_circuit_canon(variant.circuit, canon.circuit);
  const auto canon_dev = apply_device_canon(variant.device, canon.device);
  const layout::Problem canon_problem{&canon_circ, &canon_dev, 1};

  const layout::Result canonical = synthesize_swap_optimal(canon_problem);
  ASSERT_TRUE(canonical.solved);
  ASSERT_TRUE(layout::verify(canon_problem, canonical).ok);

  const layout::Problem original = variant.problem();
  const layout::Result back = untransfer_result(canonical, canon, original);
  const auto verdict = layout::verify(original, back);
  EXPECT_TRUE(verdict.ok) << (verdict.errors.empty() ? std::string()
                                                     : verdict.errors[0]);
  EXPECT_EQ(back.depth, canonical.depth);
  EXPECT_EQ(back.swap_count, canonical.swap_count);
}

// ---- result cache -------------------------------------------------------

layout::Result solved_result() {
  const auto c = triangle();
  const auto dev = device::grid(1, 3);
  const layout::Problem problem{&c, &dev, 1};
  auto result = layout::synthesize_swap_optimal(problem);
  EXPECT_TRUE(result.solved);
  return result;
}

TEST(ResultCache, LruEvictsLeastRecentlyUsed) {
  CacheOptions opts;
  opts.max_entries = 2;
  ResultCache cache(opts);
  CacheEntry entry;
  entry.result = solved_result();

  ASSERT_TRUE(cache.insert("k1", entry));
  ASSERT_TRUE(cache.insert("k2", entry));
  ASSERT_TRUE(cache.lookup("k1").has_value());  // refresh k1's recency
  ASSERT_TRUE(cache.insert("k3", entry));       // evicts k2, not k1

  EXPECT_TRUE(cache.lookup("k1").has_value());
  EXPECT_FALSE(cache.lookup("k2").has_value());
  EXPECT_TRUE(cache.lookup("k3").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, RejectsUnsolvedResults) {
  ResultCache cache;
  CacheEntry entry;  // result.solved defaults to false
  EXPECT_FALSE(cache.insert("k", entry));
  EXPECT_FALSE(cache.lookup("k").has_value());
}

TEST(ResultCache, EntryJsonRoundTripsIncludingCertificates) {
  CacheEntry entry;
  entry.result = solved_result();
  entry.has_swap_cert = true;
  entry.swap_cert.infeasible = true;
  entry.swap_cert.proof_checked = true;
  entry.swap_cert.refutation_complete = true;
  entry.swap_cert.proof_steps = 321;

  const std::string doc = ResultCache::entry_to_json("the-key", entry);
  std::string key;
  const CacheEntry back = ResultCache::entry_from_json(doc, &key);
  EXPECT_EQ(key, "the-key");
  EXPECT_TRUE(back.result.solved);
  EXPECT_EQ(back.result.depth, entry.result.depth);
  EXPECT_EQ(back.result.swap_count, entry.result.swap_count);
  EXPECT_EQ(back.result.mapping, entry.result.mapping);
  ASSERT_EQ(back.result.swaps.size(), entry.result.swaps.size());
  for (std::size_t i = 0; i < back.result.swaps.size(); ++i) {
    EXPECT_EQ(back.result.swaps[i].edge, entry.result.swaps[i].edge);
    EXPECT_EQ(back.result.swaps[i].end_time, entry.result.swaps[i].end_time);
  }
  EXPECT_FALSE(back.has_depth_cert);
  ASSERT_TRUE(back.has_swap_cert);
  EXPECT_TRUE(back.swap_cert.certified());
  EXPECT_EQ(back.swap_cert.proof_steps, 321u);
}

TEST(ResultCache, DiskTierSurvivesLruEvictionAndNewInstances) {
  TempDir dir("disk");
  CacheOptions opts;
  opts.max_entries = 1;
  opts.disk_dir = dir.path.string();

  CacheEntry entry;
  entry.result = solved_result();
  {
    ResultCache cache(opts);
    ASSERT_TRUE(cache.insert("persist-me", entry));
    ASSERT_TRUE(cache.insert("evictor", entry));  // pushes the first out
    const auto hit = cache.lookup("persist-me");  // served by disk
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->result.depth, entry.result.depth);
    EXPECT_GE(cache.stats().disk_hits, 1u);
    EXPECT_GT(cache.stats().bytes_written, 0u);
  }
  // A brand-new cache (fresh process, same directory) still hits.
  ResultCache cache(opts);
  const auto hit = cache.lookup("persist-me");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result.swap_count, entry.result.swap_count);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_FALSE(cache.lookup("never-inserted").has_value());
}

TEST(ResultCache, CommittedCacheFileStillHits) {
  // tests/fixtures/serve_cache holds one disk-tier entry written by an
  // earlier build of the canonical labeling search. Its key embeds the
  // canonical forms of a relabeled 127-qubit device and a relabeled
  // circuit, so a hit shows persisted entries survive changes to the
  // search byte for byte. The heavy-hex lattice has no triangle, so the
  // answer carries a SWAP through the edge translation too.
  const fuzz::Instance base{triangle(), device::ibm_eagle127(), 1};
  bengen::Rng rng(17);
  const fuzz::Instance variant = fuzz::relabel_physical_qubits(
      fuzz::relabel_program_qubits(base, rng), rng);
  Request req;
  req.circuit = &variant.circuit;
  req.device = &variant.device;
  req.engine = Engine::kTbSwap;
  req.options.time_budget_ms = 30000;

  TempDir dir("fixture");
  std::filesystem::copy(OLSQ2_SERVE_FIXTURE_DIR, dir.path);
  ServerOptions opts;
  opts.cache.disk_dir = dir.path.string();
  Server server(opts);
  const Response response = server.serve(req);
  EXPECT_TRUE(response.cache_hit);
  EXPECT_TRUE(response.from_disk);
  ASSERT_TRUE(response.result.solved);
  const auto verdict =
      layout::verify_transition_based(variant.problem(), response.result);
  EXPECT_TRUE(verdict.ok) << (verdict.errors.empty() ? std::string()
                                                     : verdict.errors[0]);
}

// ---- batch serving ------------------------------------------------------

TEST(Server, BatchDeduplicatesRelabeledRequests) {
  const auto base = triangle_instance();
  bengen::Rng rng(16);
  const auto rel_prog = fuzz::relabel_program_qubits(base, rng);
  const auto rel_phys = fuzz::relabel_physical_qubits(base, rng);

  Request req;
  req.engine = Engine::kSwap;
  req.options.time_budget_ms = 30000;

  std::vector<Request> batch;
  for (const auto* inst : {&base, &rel_prog, &rel_phys}) {
    req.circuit = &inst->circuit;
    req.device = &inst->device;
    req.swap_duration = inst->swap_duration;
    batch.push_back(req);
  }

  Server server;
  const auto responses = server.serve_batch(batch);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].cache_hit);  // leader pays the solve
  EXPECT_TRUE(responses[1].cache_hit);
  EXPECT_TRUE(responses[2].cache_hit);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(responses[i].key, responses[0].key);
    EXPECT_TRUE(responses[i].result.solved);
    EXPECT_EQ(responses[i].result.depth, responses[0].result.depth);
    EXPECT_EQ(responses[i].result.swap_count, responses[0].result.swap_count);
  }
  // Each response is in its own request's label space.
  const layout::Problem p1{&rel_prog.circuit, &rel_prog.device, 1};
  EXPECT_TRUE(layout::verify(p1, responses[1].result).ok);
  const layout::Problem p2{&rel_phys.circuit, &rel_phys.device, 1};
  EXPECT_TRUE(layout::verify(p2, responses[2].result).ok);
}

TEST(Server, CacheDisabledSolvesEveryRequest) {
  const auto base = triangle_instance();
  Request req;
  req.circuit = &base.circuit;
  req.device = &base.device;
  req.engine = Engine::kSwap;
  req.options.time_budget_ms = 30000;

  ServerOptions opts;
  opts.use_cache = false;
  Server server(opts);
  const auto responses = server.serve_batch({req, req});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].cache_hit);
  EXPECT_FALSE(responses[1].cache_hit);
  EXPECT_EQ(server.cache().stats().inserts, 0u);
}

TEST(Server, EngineVariantsOfOneInstanceDoNotCollide) {
  const auto base = triangle_instance();
  Request depth_req;
  depth_req.circuit = &base.circuit;
  depth_req.device = &base.device;
  depth_req.engine = Engine::kDepth;
  depth_req.options.time_budget_ms = 30000;
  Request swap_req = depth_req;
  swap_req.engine = Engine::kSwap;

  Server server;
  const auto responses = server.serve_batch({depth_req, swap_req});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0].key, responses[1].key);
  EXPECT_FALSE(responses[0].cache_hit);
  EXPECT_FALSE(responses[1].cache_hit);
  EXPECT_TRUE(responses[0].result.solved);
  EXPECT_TRUE(responses[1].result.solved);
  // The SWAP engine never reports a worse depth bound than... rather: both
  // report the same optimal swap-free structure on this instance family.
  EXPECT_LE(responses[0].result.depth, responses[1].result.depth);
}

TEST(Server, CertifiedResponsesCacheTheirCertificates) {
  const auto base = triangle_instance();
  Request req;
  req.circuit = &base.circuit;
  req.device = &base.device;
  req.engine = Engine::kSwap;
  req.certify = true;
  req.options.time_budget_ms = 30000;

  Server server;
  const auto cold = server.serve(req);
  ASSERT_TRUE(cold.result.solved);
  ASSERT_TRUE(cold.has_swap_cert);
  EXPECT_TRUE(cold.swap_cert.certified());

  const auto warm = server.serve(req);
  EXPECT_TRUE(warm.cache_hit);
  ASSERT_TRUE(warm.has_swap_cert);
  EXPECT_TRUE(warm.swap_cert.certified());
  EXPECT_EQ(warm.swap_cert.proof_steps, cold.swap_cert.proof_steps);

  // A cached entry without a certificate must not satisfy a certifying
  // request: plain first, certify second -> the second still solves.
  Request plain = req;
  plain.certify = false;
  Server server2;
  const auto r1 = server2.serve(plain);
  ASSERT_FALSE(r1.has_swap_cert);
  const auto r2 = server2.serve(req);
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_TRUE(r2.has_swap_cert);
}

TEST(Server, TransitionBasedRequestsServeAndHit) {
  const auto base = triangle_instance();
  Request req;
  req.circuit = &base.circuit;
  req.device = &base.device;
  req.engine = Engine::kTbSwap;
  req.options.time_budget_ms = 30000;

  Server server;
  const auto cold = server.serve(req);
  ASSERT_TRUE(cold.result.solved);
  ASSERT_TRUE(cold.result.transition_based);
  EXPECT_TRUE(layout::verify_transition_based(base.problem(), cold.result).ok);
  const auto warm = server.serve(req);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.result.swap_count, cold.result.swap_count);
}

// A Server may be shared by concurrent callers: the cache locks itself and
// serve.batch.solve serializes each batch's solve phase together with the
// bound facts it owns. With the cache off every request solves, so two
// callers interleaving batches over one instance contend on those facts;
// each must still get the optima one caller gets, verified in its own
// request's label space.
TEST(Server, ConcurrentCallersGetTheSerialOptima) {
  const auto base = triangle_instance();
  bengen::Rng rng(21);
  const auto relabeled = fuzz::relabel_physical_qubits(base, rng);
  std::vector<Request> batch;
  for (const auto* inst : {&base, &relabeled}) {
    for (const Engine engine :
         {Engine::kDepth, Engine::kSwap, Engine::kTbSwap}) {
      Request req;
      req.circuit = &inst->circuit;
      req.device = &inst->device;
      req.engine = engine;
      req.options.time_budget_ms = 30000;
      batch.push_back(req);
    }
  }
  ServerOptions opts;
  opts.use_cache = false;
  const std::vector<Response> serial = Server(opts).serve_batch(batch);

  Server shared(opts);
  std::vector<std::vector<Response>> answers(2);
  std::vector<std::thread> callers;
  for (auto& out : answers) {
    callers.emplace_back([&shared, &batch, &out] {
      out = shared.serve_batch(batch);
    });
  }
  for (std::thread& caller : callers) caller.join();

  for (const std::vector<Response>& responses : answers) {
    ASSERT_EQ(responses.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const layout::Result& got = responses[i].result;
      const layout::Result& want = serial[i].result;
      const layout::Problem problem{batch[i].circuit, batch[i].device, 1};
      ASSERT_TRUE(got.solved && !got.hit_budget);
      EXPECT_EQ(responses[i].key, serial[i].key);
      if (batch[i].engine == Engine::kDepth) {
        EXPECT_EQ(got.depth, want.depth);
      } else {
        EXPECT_EQ(got.swap_count, want.swap_count);
      }
      EXPECT_TRUE(got.transition_based
                      ? layout::verify_transition_based(problem, got).ok
                      : layout::verify(problem, got).ok);
    }
  }
}

// ---- manifests ----------------------------------------------------------

TEST(Manifest, ParsesEntriesAndExpectBlocks) {
  const std::string doc = R"({
    "requests": [
      {"name": "tri", "circuit": "tri.qasm", "device": "grid:1x3",
       "engine": "swap", "budget_ms": 1000,
       "expect": {"depth": 4, "swaps": 1}},
      {"circuit": "other.qasm", "device": "ibm_qx2", "engine": "tb-block",
       "swap_duration": 3, "certify": true}
    ]
  })";
  const Manifest m = parse_manifest(doc);
  ASSERT_EQ(m.entries.size(), 2u);
  EXPECT_EQ(m.entries[0].name, "tri");
  EXPECT_EQ(m.entries[0].device_spec, "grid:1x3");
  EXPECT_TRUE(m.entries[0].has_expect);
  EXPECT_EQ(m.entries[0].expect_depth, 4);
  EXPECT_EQ(m.entries[0].expect_swaps, 1);
  EXPECT_EQ(m.entries[0].budget_ms, 1000.0);
  EXPECT_EQ(m.entries[1].engine, "tb-block");
  EXPECT_EQ(m.entries[1].swap_duration, 3);
  EXPECT_TRUE(m.entries[1].certify);
  EXPECT_FALSE(m.entries[1].has_expect);

  EXPECT_THROW(parse_manifest("{\"requests\": [{}]}"), std::runtime_error);
  EXPECT_THROW(parse_manifest("not json"), std::runtime_error);
}

TEST(Manifest, ResolvesPresetDevices) {
  int sd = 0;
  const auto g = resolve_device("grid:2x3", &sd);
  EXPECT_EQ(g.num_qubits(), 6);
  EXPECT_EQ(sd, 0);  // presets leave swap_duration untouched
  const auto qx2 = resolve_device("ibm_qx2", &sd);
  EXPECT_EQ(qx2.num_qubits(), 5);
  EXPECT_THROW(resolve_device("grid:bogus", &sd), std::runtime_error);
  EXPECT_THROW(resolve_device("no_such_preset", &sd), std::runtime_error);
}

TEST(Manifest, MaterializeLoadsCircuitsAndAppliesDefaults) {
  TempDir dir("manifest");
  const auto qasm_path = dir.path / "tri.qasm";
  {
    FILE* f = fopen(qasm_path.string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
        "cx q[0],q[1];\ncx q[1],q[2];\ncx q[0],q[2];\n",
        f);
    fclose(f);
  }
  Manifest m;
  ManifestEntry e;
  e.name = "tri";
  e.circuit_path = "tri.qasm";  // relative: resolved against base_dir
  e.device_spec = "grid:1x3";
  e.engine = "depth";
  m.entries.push_back(e);

  const LoadedManifest loaded = materialize_manifest(m, dir.path.string());
  ASSERT_EQ(loaded.requests.size(), 1u);
  EXPECT_EQ(loaded.circuits.front().num_qubits(), 3);
  EXPECT_EQ(loaded.requests[0].swap_duration, 1);  // default
  EXPECT_EQ(loaded.requests[0].engine, Engine::kDepth);
  EXPECT_EQ(loaded.requests[0].circuit, &loaded.circuits.front());
}

TEST(EngineTags, RoundTrip) {
  for (const Engine e :
       {Engine::kDepth, Engine::kSwap, Engine::kTbSwap, Engine::kTbBlock}) {
    EXPECT_EQ(engine_from_tag(engine_tag(e)), e);
  }
  EXPECT_THROW(engine_from_tag("warp"), std::runtime_error);
}

}  // namespace
}  // namespace olsq2::serve
