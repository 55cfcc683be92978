// Shared declarations of the end-to-end serving benchmark (README.md).
//
// The benchmark is one closed-loop client: it sends one request at a time
// into serve::Server::serve, times the request path, and checks every
// answer against a pinned optimum (pins.json) that was confirmed by an
// engine other than the one under test.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "device/device.h"
#include "fuzz/generator.h"
#include "layout/types.h"
#include "serve/batch.h"

namespace e2e {

using namespace olsq2;

/// One pinned workload instance (a row of pins.json). The instance is
/// rebuilt from its generator specs at set-up; the seed of a run only
/// relabels and reorders it, which leaves every optimum unchanged.
struct Pin {
  std::string name;
  std::vector<std::string> workloads;
  /// Circuit generator, e.g. "qaoa:8:3" (see make_circuit).
  std::string circuit;
  /// Device preset spec (device::preset_by_name) or "file:<repo path>".
  std::string device;
  int swap_duration = 1;
  std::string engine;  // serve engine tag
  bool certify = false;
  double budget_ms = 0;
  /// Pinned objectives; -1 = not pinned for this engine.
  int depth = -1;
  int swaps = -1;
  /// How an engine independent of the served path confirmed the pin.
  std::string confirmed_by;
  /// Why the instance is in the workload (seeded draw + filter).
  std::string chosen_because;
};

std::vector<Pin> load_pins(const std::string& path);
void save_pins(const std::string& path, const std::vector<Pin>& pins);

/// Build a circuit from a generator spec. Specs that draw on a device
/// (queko, region) use `dev`.
circuit::Circuit make_circuit(const std::string& spec,
                              const device::Device& dev);
/// Build a device from a preset spec or "file:<path relative to root>".
device::Device make_device(const std::string& spec, const std::string& root);

/// A pin's instance in its generated labels.
fuzz::Instance make_instance(const Pin& pin, const std::string& root);

/// One request of a pass: the pin it instantiates, which of the pin's
/// copies in the pass it is, the request's own relabeled instance, and
/// (text workloads) its wire form. Every pass has the same (pin, copy)
/// requests, each doing the same work.
struct Request {
  int pin;
  int copy;
  fuzz::Instance inst;
  bool text;
  std::string qasm;
  std::string device_json;
};

/// One pass: a fresh Server (and, for the disk tier, an empty cache
/// directory) serves `requests` in order; at `server_switch` the pass
/// moves to a second fresh Server on the same directory.
struct Pass {
  std::vector<Request> requests;
  int server_switch = -1;
};

struct Workload {
  std::string name;
  std::vector<Pin> pins;
  /// Pass variants; pass i of a run uses variants[i % size].
  std::vector<Pass> variants;
  /// Persistent cache tier root (empty = memory only).
  std::string cache_dir;
};

const std::vector<std::string>& workload_names();

/// Everything that happens before the first request: input generation,
/// request serialization, loading the pins.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& root, const std::string& pins_path,
                       const std::string& scratch_dir);

/// Server options for pass `pass` of the process. Each pass gets a
/// distinct cover-enumeration budget, which is part of the key of
/// subarch::enumerate_cover's process-wide cache, so covers are cold at the
/// start of every pass (no workload device comes near the budget).
serve::ServerOptions server_options(const Workload& w, int pass);

serve::Request to_serve_request(const Pin& pin, const circuit::Circuit& circ,
                                const device::Device& dev, int swap_duration);

/// Outcome of checking one answer against its pin.
struct Verdict {
  bool ok = false;      // counts as not failed
  bool proven = false;  // claims optimality and equals the pin
  std::string why;      // first failure reason
  double verify_ms = 0;
};

/// Check `response` to a request on `problem` (the request's own labels
/// and full device): solved, accepted by layout::verify /
/// verify_transition_based, and objective equal to the pin.
Verdict check_answer(const Pin& pin, const layout::Problem& problem,
                     const serve::Response& response);

/// Feed corrupted answers through check_answer; 0 when every corruption
/// is counted as failed and the uncorrupted answer is not.
int run_selftest(const std::string& root, const std::string& pins_path);

/// Regenerate pins.json: draw candidates, solve, confirm each optimum
/// with an independent engine, keep the ones that pass the filters.
int run_pin(const std::string& root, const std::string& out_path);

}  // namespace e2e
