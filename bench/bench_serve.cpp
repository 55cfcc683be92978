// Serving-layer acceptance benchmark: end-to-end wall-clock for a batch
// manifest dominated by relabeled-duplicate requests, with the
// canonicalization cache enabled vs disabled. Each bundled QASM benchmark
// contributes one base request plus `--dups` variants obtained by randomly
// relabeling program qubits, relabeling physical qubits, and commuting-
// reordering the gate list (fuzz/metamorphic.h) - distinct request bytes,
// identical canonical key. The cached server solves each equivalence class
// once and answers the rest by witness transfer; the uncached server pays
// every solve. One class sits on the 127-qubit eagle127 device with every
// duplicate physically relabeled, so the canonicalizer's large-graph path
// is gated too: the bench times canonicalize_device on those relabelings
// (canon.canon_device_ms) and checks they all share one key
// (canon.one_key). Emits BENCH_serve.json (see --out).
//
// Usage: bench_serve [--out=FILE] [--budget-ms=N] [--dups=N] [--min-speedup=X]
//   --out          JSON output path (default BENCH_serve.json)
//   --budget-ms    per-request solve budget (default bench::case_budget_ms())
//   --dups         relabeled duplicates per base instance (default 7, so
//                  87.5% of requests are relabeled duplicates)
//   --min-speedup  exit non-zero below this cached-vs-uncached speedup
//                  (default 5, the acceptance bar; 0 disables)
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bengen/rng.h"
#include "device/presets.h"
#include "fuzz/generator.h"
#include "fuzz/metamorphic.h"
#include "layout/verifier.h"
#include "qasm/parser.h"
#include "serve/batch.h"
#include "serve/canonical.h"

#ifndef OLSQ2_BENCHMARK_DIR
#error "OLSQ2_BENCHMARK_DIR must be defined by the build"
#endif

namespace {

using namespace olsq2;

struct Spec {
  std::string name;
  std::string qasm;
  device::Device device;
  int swap_duration;
  serve::Engine engine;
  /// Every duplicate also gets a physical-qubit relabeling.
  bool relabel_device = false;
};

fuzz::Instance variant_of(const fuzz::Instance& base, int which,
                          bengen::Rng& rng) {
  switch (which % 3) {
    case 0: return fuzz::relabel_program_qubits(base, rng);
    case 1: return fuzz::relabel_physical_qubits(base, rng);
    default: return fuzz::commuting_reorder(base, rng);
  }
}

/// Repetitions of the canonicalization timing loop over the eagle127
/// relabelings: enough that the loop total clears benchdiff's 250 ms noise
/// floor on the baseline machine (10,000 calls at about 0.08 ms each).
constexpr int kCanonReps = 1250;

struct RunStats {
  double wall_ms = 0;
  int solves = 0;
  int hits = 0;
};

RunStats run(const std::vector<serve::Request>& requests, bool use_cache) {
  serve::ServerOptions opts;
  opts.use_cache = use_cache;
  serve::Server server(opts);
  RunStats stats;
  const double start = bench::now_ms();
  const auto responses = server.serve_batch(requests);
  stats.wall_ms = bench::now_ms() - start;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const auto& r = responses[i];
    if (!r.result.solved) {
      std::cerr << "request " << i << " unsolved; raise --budget-ms\n";
      std::exit(2);
    }
    const layout::Problem problem{requests[i].circuit, requests[i].device,
                                  requests[i].swap_duration};
    const auto verdict = r.result.transition_based
                             ? layout::verify_transition_based(problem,
                                                               r.result)
                             : layout::verify(problem, r.result);
    if (!verdict.ok) {
      std::cerr << "request " << i << " failed verification: "
                << verdict.errors[0] << "\n";
      std::exit(2);
    }
    if (r.cache_hit) {
      ++stats.hits;
    } else {
      ++stats.solves;
    }
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_serve.json";
  double budget_ms = bench::case_budget_ms();
  int dups = 7;
  double min_speedup = 5.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--budget-ms=", 0) == 0) {
      budget_ms = std::atof(arg.c_str() + 12);
    } else if (arg.rfind("--dups=", 0) == 0) {
      dups = std::atoi(arg.c_str() + 7);
    } else if (arg.rfind("--min-speedup=", 0) == 0) {
      min_speedup = std::atof(arg.c_str() + 14);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  const std::string dir = OLSQ2_BENCHMARK_DIR;
  std::vector<Spec> specs;
  specs.push_back({"qaoa_triangle", dir + "/qaoa_triangle.qasm",
                   device::grid(1, 3), 1, serve::Engine::kSwap});
  specs.push_back({"ghz5", dir + "/ghz5.qasm", device::grid(1, 5), 3,
                   serve::Engine::kSwap});
  specs.push_back({"bv5", dir + "/bv5.qasm", device::grid(2, 3), 3,
                   serve::Engine::kSwap});
  specs.push_back({"toffoli_qx2", dir + "/toffoli_qx2.qasm",
                   device::ibm_qx2(), 3, serve::Engine::kDepth});
  specs.push_back({"triangle_eagle127", dir + "/qaoa_triangle.qasm",
                   device::ibm_eagle127(), 1, serve::Engine::kTbSwap,
                   /*relabel_device=*/true});

  // Materialize base + relabeled-variant instances (owned here; requests
  // borrow). With the default --dups=7, 7 of every 8 requests are
  // relabeled duplicates of an earlier one.
  std::vector<std::unique_ptr<fuzz::Instance>> pool;
  std::vector<serve::Request> requests;
  std::vector<const device::Device*> eagle_devices;
  bengen::Rng rng(2024);
  for (const Spec& spec : specs) {
    auto base = std::make_unique<fuzz::Instance>(fuzz::Instance{
        qasm::parse_file(spec.qasm), spec.device, spec.swap_duration});
    for (int d = 0; d <= dups; ++d) {
      if (d > 0) {
        fuzz::Instance variant =
            variant_of(*pool[pool.size() - d], d - 1, rng);
        if (spec.relabel_device) {
          variant = fuzz::relabel_physical_qubits(variant, rng);
        }
        pool.push_back(std::make_unique<fuzz::Instance>(std::move(variant)));
      } else {
        pool.push_back(std::move(base));
      }
      if (spec.relabel_device) eagle_devices.push_back(&pool.back()->device);
      serve::Request req;
      req.circuit = &pool.back()->circuit;
      req.device = &pool.back()->device;
      req.swap_duration = pool.back()->swap_duration;
      req.engine = spec.engine;
      req.options.time_budget_ms = budget_ms;
      req.tag = spec.name;
      if (d > 0) {
        req.tag += '#';
        req.tag += std::to_string(d);
      }
      requests.push_back(req);
    }
  }

  bench::Table table({"config", "requests", "solves", "hits", "wall_ms"});
  const RunStats uncached = run(requests, /*use_cache=*/false);
  table.print_row({"no-cache", std::to_string(requests.size()),
                   std::to_string(uncached.solves),
                   std::to_string(uncached.hits),
                   std::to_string(uncached.wall_ms)});
  const RunStats cached = run(requests, /*use_cache=*/true);
  table.print_row({"cache", std::to_string(requests.size()),
                   std::to_string(cached.solves), std::to_string(cached.hits),
                   std::to_string(cached.wall_ms)});

  const double speedup =
      cached.wall_ms > 0 ? uncached.wall_ms / cached.wall_ms : 0;
  std::cout << "speedup: " << speedup << "x (duplicate share "
            << (requests.empty()
                    ? 0
                    : 100.0 * dups / (dups + 1))
            << "%)\n";

  // Large-device canonicalization: best of three timing loops, and the
  // correctness key that every relabeling lands on one canonical key.
  bool one_key = true;
  const std::string eagle_key =
      serve::canonicalize_device(*eagle_devices.front()).key;
  for (const device::Device* dev : eagle_devices) {
    one_key = one_key && serve::canonicalize_device(*dev).key == eagle_key;
  }
  double canon_loop_ms = 0;
  for (int round = 0; round < 3; ++round) {
    const double start = bench::now_ms();
    for (int rep = 0; rep < kCanonReps; ++rep) {
      for (const device::Device* dev : eagle_devices) {
        serve::canonicalize_device(*dev);
      }
    }
    const double ms = bench::now_ms() - start;
    canon_loop_ms = round == 0 ? ms : std::min(canon_loop_ms, ms);
  }
  const double canon_device_ms =
      canon_loop_ms / (kCanonReps * static_cast<double>(eagle_devices.size()));
  std::cout << "eagle127 canonicalize_device: " << canon_device_ms
            << " ms/call over " << eagle_devices.size() << " relabelings ("
            << (one_key ? "one key" : "KEYS DIFFER") << ")\n";

  std::ofstream out(out_path);
  out << "{" << bench::json_stamp("serve") << "\"budget_ms\":" << budget_ms
      << ",\"dups\":" << dups
      << ",\"requests\":" << requests.size()
      << ",\"duplicate_share\":" << (dups > 0 ? 1.0 * dups / (dups + 1) : 0)
      << ",\"uncached\":{\"wall_ms\":" << uncached.wall_ms
      << ",\"solves\":" << uncached.solves << "}"
      << ",\"cached\":{\"wall_ms\":" << cached.wall_ms
      << ",\"solves\":" << cached.solves << ",\"hits\":" << cached.hits
      << "},\"speedup\":" << speedup
      << ",\"canon\":{\"device\":\"eagle127\",\"relabelings\":"
      << eagle_devices.size() << ",\"one_key\":" << (one_key ? 1 : 0)
      << ",\"canon_device_ms\":" << canon_device_ms
      << ",\"canon_loop_ms\":" << canon_loop_ms << "}}\n";
  std::cout << "wrote " << out_path << "\n";

  if (!one_key) {
    std::cerr << "relabeled eagle127 devices got different canonical keys\n";
    return 1;
  }
  if (min_speedup > 0 && speedup < min_speedup) {
    std::cerr << "speedup " << speedup << " below the " << min_speedup
              << "x acceptance bar\n";
    return 1;
  }
  return 0;
}
