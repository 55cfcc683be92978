// Per-layer ledger of the traced run: self time and counts per layer,
// built from the spans recorded around one request at a time.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/obs.h"

namespace e2e {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What the traced run knows about one request besides its spans.
struct TracedRequest {
  /// Every span recorded while the request was in flight, including the
  /// benchmark's own "bench.request" / "bench.parse.*" spans.
  std::vector<obs::Event> events;
  const serve::Response* response = nullptr;
  /// The benchmark checker's full-device verify of the answer.
  double verify_ms = 0;
  /// Replay of serve::untransfer_result on this request's witness.
  double untransfer_ms = 0;
};

/// Layers in report order (this repository's modules).
const std::vector<std::string>& ledger_layers();

class Ledger {
 public:
  void add(const TracedRequest& request);
  /// Cache counters of every Server the traced passes used.
  void set_cache_stats(const serve::CacheStats& stats) { cache_ = stats; }

  /// Per-layer metrics (the BENCHMARK.json per_layer list).
  /// `untraced_ms` is the summed latency of the same requests served
  /// untraced; the traced sum is that of their "bench.request" spans.
  std::vector<Metric> metrics(double untraced_ms) const;

  /// The "where the time goes" report for one workload (markdown).
  std::string report(const std::string& workload, double untraced_ms) const;

  /// The ladder fallback reason of the last added request ("" = none or
  /// not engaged).
  const std::string& last_fallback() const { return last_fallback_; }

 private:
  struct Mean {
    double sum = 0;
    double n = 0;
    void add(double v, double count = 1) {
      sum += v;
      n += count;
    }
    double value() const { return n > 0 ? sum / n : 0; }
  };

  std::map<std::string, double> self_ms_;  // layer -> summed self time
  double traced_ms_ = 0;
  int requests_ = 0;
  int solves_ = 0;  // requests that were not cache hits
  Mean qasm_ms_, device_ms_;
  Mean canon_circuit_ms_, canon_device_ms_;
  double canon_calls_ = 0;
  int canon_exact_ = 0;
  Mean lookup_ms_, insert_ms_;
  serve::CacheStats cache_{};
  Mean untransfer_ms_;
  Mean cover_ms_, cover_sets_, cover_classes_, cover_canons_;
  Mean ladder_ms_, ladder_rounds_, ladder_probes_;
  double ladder_hits_ = 0, ladder_probe_total_ = 0;
  int ladders_ = 0, ladder_certified_ = 0, ladder_fallbacks_ = 0;
  Mean engine_ms_, drive_ms_;
  double sat_calls_ = 0, unsat_calls_ = 0, pruned_calls_ = 0;
  Mean sat_ms_;
  double conflicts_ = 0, propagations_ = 0, sat_total_ms_ = 0;
  Mean certify_ms_, proof_steps_;
  int certs_ = 0, certs_checked_ = 0;
  Mean verify_ms_;
  std::string last_fallback_;
};

}  // namespace e2e
