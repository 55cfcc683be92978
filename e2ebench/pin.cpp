// `e2ebench pin`: regenerate pins.json.
//
// Every candidate is solved once through a fresh serve::Server (the path
// the benchmark measures), then its optimum is confirmed by an engine that
// does not share that path:
//   - time-resolved rows (depth, swap): a DRAT-checked certify_* refutation
//     of optimum - 1 (an optimum of 0 SWAPs needs none);
//   - transition-based rows on small devices: the planning engine
//     (plan::synthesize, certified optimal). tb-block pins its block count,
//     which the plan optimum s fixes only when s <= 1 (1 block iff 0 SWAPs,
//     else 2 blocks hold one SWAP), so only such rows are kept;
//   - rows on 54-127 qubit devices: two optimality-claiming engines, the
//     ladder-routed tb-swap and plan solves (as in the golden suite), both
//     certified, both verified on the full device, equal.
// Filters: the served solve must finish within a fifth of its budget, and
// the canonical form must be exact (relabeled duplicates then share a key).
// subarch-127 takes the first 35 draws that pass, round-robin over devices.
#include <chrono>
#include <iostream>
#include <sstream>

#include "bench.h"
#include "circuit/dependency.h"
#include "layout/certify.h"
#include "layout/verifier.h"
#include "plan/plan.h"
#include "serve/canonical.h"
#include "subarch/solve.h"

namespace e2e {

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Candidate {
  std::string circuit;
  std::string device;
  int swap_duration;
  std::string engine;
  bool certify;
  std::string family;
  std::vector<std::string> workloads;
  double budget_ms;
};

const char* const kSolve = "olsq2-solve";
const char* const kSubarch = "subarch-127";
const char* const kMix = "relabel-mix";

/// Paper-family instances on 6-16 qubit devices (paper Tables III/IV).
/// relabel-mix reuses the ones that solve in milliseconds. The count is
/// odd and the middle of the latency range is dense, so the median request
/// is not one instance's latency alone.
std::vector<Candidate> solve_candidates() {
  std::vector<Candidate> c;
  const auto add = [&](std::string circ, std::string dev, int sd,
                       std::string engine, bool cert, std::string family,
                       std::vector<std::string> workloads = {kSolve}) {
    c.push_back({std::move(circ), std::move(dev), sd, std::move(engine), cert,
                 std::move(family), std::move(workloads), 10'000});
  };
  add("qaoa:8:2", "rigetti_aspen4", 1, "depth", false, "QAOA 3-regular");
  add("qaoa:8:3", "rigetti_aspen4", 1, "depth", false, "QAOA 3-regular");
  for (const int seed : {1, 2, 3}) {
    const std::string qaoa = "qaoa:6:" + std::to_string(seed);
    add(qaoa, "grid:2x3", 1, "swap", seed == 1, "QAOA 3-regular");
    add(qaoa, "grid:2x3", 1, "tb-block", false, "QAOA 3-regular");
  }
  for (const int seed : {1, 2}) {
    const std::string s = std::to_string(seed);
    add("queko:5:24:" + s, "rigetti_aspen4", 3, "depth", true, "QUEKO");
    add("queko:4:16:" + s, "grid:3x3", 3, "swap", false, "QUEKO");
  }
  add("queko:4:16:1", "grid:3x3", 3, "tb-swap", false, "QUEKO", {kSolve, kMix});
  add("queko:4:16:1", "grid:3x3", 3, "tb-block", false, "QUEKO");
  add("qft:4", "grid:2x3", 3, "swap", false, "QFT");
  add("qft:4", "grid:2x3", 3, "depth", true, "QFT");
  add("qft:4", "grid:2x3", 3, "tb-block", false, "QFT");
  add("tof:3", "grid:2x3", 3, "depth", false, "Toffoli");
  add("ising:6:2", "grid:2x3", 3, "depth", false, "Ising");
  add("ising:6:2", "grid:2x3", 3, "swap", false, "Ising");
  add("ising:6:2", "grid:2x3", 3, "tb-block", false, "Ising", {kSolve, kMix});
  add("ising:9:1", "grid:3x3", 3, "depth", false, "Ising");
  add("cuccaro:1", "grid:2x3", 3, "swap", false, "Cuccaro");
  add("cuccaro:1", "grid:2x3", 3, "tb-swap", false, "Cuccaro");
  add("qaoa:4:7", "grid:2x3", 1, "tb-block", false, "QAOA 3-regular",
      {kSolve, kMix});
  add("ghz:6", "grid:2x3", 3, "depth", false, "GHZ", {kMix});
  add("queko:5:24:3", "rigetti_aspen4", 3, "depth", false, "QUEKO");
  add("queko:5:24:4", "rigetti_aspen4", 3, "depth", true, "QUEKO");
  add("queko:5:24:5", "rigetti_aspen4", 3, "depth", false, "QUEKO");
  add("qaoa:8:4", "rigetti_aspen4", 1, "depth", false, "QAOA 3-regular");
  add("qaoa:8:5", "rigetti_aspen4", 1, "depth", false, "QAOA 3-regular");
  add("ising:8:1", "grid:3x3", 3, "depth", false, "Ising");
  return c;
}

/// bengen::region_workload draws on the large devices, each sent as
/// tb-swap and as plan. The cheapest ladders also serve relabel-mix.
std::vector<Candidate> subarch_candidates() {
  std::vector<Candidate> c;
  const std::vector<std::string> devices = {
      "eagle127", "file:benchmarks/heavyhex127.device.json", "grid:8x8",
      "sycamore54"};
  for (int draw = 0; draw < 8; ++draw) {
    for (std::size_t d = 0; d < devices.size(); ++d) {
      const int qubits = 5 + draw % 3;
      const int cross = 1 + draw % 2;
      const int gates = 2 * qubits + 2;
      const std::uint64_t seed = 100 * (d + 1) + static_cast<std::uint64_t>(draw);
      std::ostringstream spec;
      spec << "region:" << qubits << ":" << gates << ":" << cross << ":" << seed;
      for (const std::string engine : {"tb-swap", "plan"}) {
        // Cheap certified 127-qubit ladders also serve relabel-mix, where
        // they are two thirds of the classes (the rest are small devices).
        const std::string row = spec.str() + "/" + engine;
        const bool mix = row == "region:5:12:1:100/tb-swap" ||
                         row == "region:5:12:2:103/plan" ||
                         row == "region:5:12:1:200/tb-swap" ||
                         row == "region:5:12:1:200/plan" ||
                         row == "region:5:12:1:206/tb-swap" ||
                         row == "region:5:12:2:203/plan" ||
                         row == "region:6:14:2:207/tb-swap" ||
                         row == "region:6:14:2:207/plan";
        std::vector<std::string> workloads = {kSubarch};
        if (mix) workloads.push_back(kMix);
        c.push_back({spec.str(), devices[d], 1, engine, false, "region draw",
                     workloads, 2'000});
      }
    }
  }
  return c;
}

std::string short_device(const std::string& spec) {
  const std::size_t slash = spec.find_last_of('/');
  std::string s = slash == std::string::npos ? spec : spec.substr(slash + 1);
  if (s.rfind("file:", 0) == 0) s = s.substr(5);
  const std::size_t dot = s.find(".device.json");
  return dot == std::string::npos ? s : s.substr(0, dot);
}

/// Confirm a time-resolved optimum by refuting optimum - 1 with a
/// DRAT-checked certificate. Returns the confirmation text, empty on
/// failure.
std::string confirm_time_resolved(const Pin& pin, const layout::Problem& p,
                                  const layout::Result& r) {
  const double budget = 60'000;
  if (pin.engine == "depth") {
    const circuit::DependencyGraph deps(*p.circuit);
    const layout::Certificate cert = layout::certify_depth_lower_bound(
        p, deps.default_upper_bound(), r.depth - 1, {}, budget);
    if (!cert.certified()) return "";
    return "certify_depth_lower_bound refutes depth " +
           std::to_string(r.depth - 1) + " (DRAT-checked, " +
           std::to_string(cert.proof_steps) + " proof steps)";
  }
  if (r.swap_count == 0) return "0 SWAPs is the floor (verified layout)";
  const layout::Certificate cert = layout::certify_swap_lower_bound(
      p, r.depth, r.swap_count - 1, {}, budget);
  if (!cert.certified()) return "";
  return "certify_swap_lower_bound refutes " +
         std::to_string(r.swap_count - 1) + " SWAPs at depth " +
         std::to_string(r.depth) + " (DRAT-checked, " +
         std::to_string(cert.proof_steps) + " proof steps)";
}

std::string confirm_small_tb(const Pin& pin, const layout::Problem& p,
                             const layout::Result& r) {
  const plan::PlanResult planned = plan::synthesize(p);
  if (!planned.solved || !planned.optimal) return "";
  if (pin.engine == "tb-block") {
    if (planned.swap_count > 1 || r.depth != planned.swap_count + 1) return "";
    return "plan::synthesize certifies " + std::to_string(planned.swap_count) +
           " SWAPs, which fixes the block optimum at " +
           std::to_string(r.depth);
  }
  if (planned.swap_count != r.swap_count) return "";
  return "plan::synthesize certifies the same " +
         std::to_string(planned.swap_count) + " SWAPs";
}

std::string confirm_large(const layout::Problem& p, const layout::Result& r) {
  layout::OptimizerOptions options;
  options.time_budget_ms = 60'000;
  subarch::SubarchOutcome tb_out;
  const layout::Result tb =
      subarch::tb_synthesize_swap_optimal(p, {}, options, {}, &tb_out);
  plan::PlanOptions popt;
  popt.time_budget_ms = 60'000;
  subarch::SubarchOutcome plan_out;
  const plan::PlanResult planned =
      subarch::plan_synthesize(p, popt, {}, &plan_out);
  const bool ok =
      tb.solved && tb_out.certified &&
      layout::verify_transition_based(p, tb).ok && planned.solved &&
      planned.optimal && plan_out.certified &&
      layout::verify_transition_based(p, planned.layout).ok &&
      tb.swap_count == r.swap_count && planned.swap_count == r.swap_count;
  if (!ok) return "";
  return "two engines certify " + std::to_string(r.swap_count) +
         " SWAPs: ladder tb-swap (k=" + std::to_string(tb_out.rounds - 1) +
         ") and ladder plan, both verified on the full device";
}

}  // namespace

int run_pin(const std::string& root, const std::string& out_path) {
  std::vector<Candidate> candidates = solve_candidates();
  for (Candidate& c : subarch_candidates()) candidates.push_back(std::move(c));
  std::vector<Pin> pins;
  int fresh_pass = 1'000'000;  // distinct cold-cover keys per candidate
  constexpr int kSubarchPins = 35;
  int subarch_kept = 0;
  for (const Candidate& c : candidates) {
    Pin pin;
    pin.name = c.circuit + "/" + short_device(c.device) + "/" + c.engine +
               (c.certify ? "+cert" : "");
    pin.workloads = c.workloads;
    pin.circuit = c.circuit;
    pin.device = c.device;
    pin.swap_duration = c.swap_duration;
    pin.engine = c.engine;
    pin.certify = c.certify;
    pin.budget_ms = c.budget_ms;

    const fuzz::Instance inst = make_instance(pin, root);
    const layout::Problem problem = inst.problem();
    const serve::InstanceCanon canon =
        serve::canonicalize(inst.circuit, inst.device, inst.swap_duration);
    Workload w;
    serve::Server server(server_options(w, ++fresh_pass));
    const double t0 = now_ms();
    const serve::Response resp = server.serve(
        to_serve_request(pin, inst.circuit, inst.device, inst.swap_duration));
    const double ms = now_ms() - t0;
    const layout::Result& r = resp.result;
    std::cout << pin.name << " (" << inst.circuit.num_qubits() << "q, "
              << inst.circuit.num_gates() << "g): " << ms << " ms";
    std::string drop;
    if (!r.solved || r.hit_budget) {
      drop = "not proven within budget";
    } else if (ms > c.budget_ms / 5) {
      drop = "slower than a fifth of the budget";
    } else if (!canon.circuit.exact || !canon.device.exact) {
      drop = "canonical form inexact";
    }
    std::string confirmed;
    if (drop.empty()) {
      if (!r.transition_based) {
        confirmed = confirm_time_resolved(pin, problem, r);
      } else if (inst.device.num_qubits() <= 16) {
        confirmed = confirm_small_tb(pin, problem, r);
      } else {
        confirmed = confirm_large(problem, r);
      }
      if (confirmed.empty()) drop = "independent confirmation failed";
    }
    // subarch-127 keeps the first kSubarchPins certified draws, taken
    // round-robin over the devices. An odd count puts the median request
    // inside one instance's repeats instead of between two instances.
    if (drop.empty() && c.family == "region draw" &&
        subarch_kept >= kSubarchPins) {
      pin.workloads.erase(pin.workloads.begin());  // drop subarch-127
      if (pin.workloads.empty()) drop = "subarch-127 already has enough draws";
    }
    if (!drop.empty()) {
      std::cout << "  DROP: " << drop << "\n";
      continue;
    }
    if (pin.engine == "depth" || pin.engine == "tb-block") {
      pin.depth = r.depth;
    } else {
      pin.swaps = r.swap_count;
    }
    std::ostringstream why;
    why.precision(3);
    if (c.family == "region draw") {
      why << "seeded bengen::region_workload draw (spec " << c.circuit
          << "); the ladder certified it in " << ms
          << " ms on this commit, within a fifth of the "
          << c.budget_ms << " ms budget";
    } else {
      why << c.family << " on a " << inst.device.num_qubits()
          << "-qubit device; solved in " << ms
          << " ms on this commit, within a fifth of the " << c.budget_ms
          << " ms budget";
    }
    pin.chosen_because = why.str();
    pin.confirmed_by = confirmed;
    std::cout << "  depth " << r.depth << " swaps " << r.swap_count
              << "  KEEP (" << confirmed << ")\n";
    if (pin.workloads.front() == kSubarch) ++subarch_kept;
    pins.push_back(std::move(pin));
  }
  save_pins(out_path, pins);
  std::cout << "wrote " << pins.size() << " pins to " << out_path << "\n";
  return 0;
}

}  // namespace e2e
