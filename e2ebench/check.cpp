// The benchmark's answer checker and its self-test.
#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench.h"
#include "layout/verifier.h"

namespace e2e {

namespace {

bool transition_based_engine(const std::string& engine) {
  return engine == "tb-swap" || engine == "tb-block" || engine == "plan";
}

}  // namespace

Verdict check_answer(const Pin& pin, const layout::Problem& problem,
                     const serve::Response& response) {
  Verdict v;
  const layout::Result& r = response.result;
  if (!r.solved) {
    v.why = "unsolved";
    return v;
  }
  if (r.transition_based != transition_based_engine(pin.engine)) {
    v.why = "result kind does not match engine " + pin.engine;
    return v;
  }
  const auto start = std::chrono::steady_clock::now();
  const layout::Verdict verdict = r.transition_based
                                      ? layout::verify_transition_based(problem, r)
                                      : layout::verify(problem, r);
  v.verify_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  if (!verdict.ok) {
    v.why = "verifier: " + verdict.errors.front();
    return v;
  }
  if (r.swap_count != static_cast<int>(r.swaps.size())) {
    v.why = "swap_count " + std::to_string(r.swap_count) + " but " +
            std::to_string(r.swaps.size()) + " SWAPs listed";
    return v;
  }
  if (pin.depth >= 0 && r.depth != pin.depth) {
    v.why = "depth " + std::to_string(r.depth) + " != pinned " +
            std::to_string(pin.depth);
    return v;
  }
  if (pin.swaps >= 0 && r.swap_count != pin.swaps) {
    v.why = "swaps " + std::to_string(r.swap_count) + " != pinned " +
            std::to_string(pin.swaps);
    return v;
  }
  // serve certifies a time-resolved answer by refuting objective - 1, so a
  // SWAP optimum of 0 comes without a certificate.
  if (pin.certify && !transition_based_engine(pin.engine) &&
      (pin.engine == "depth" || r.swap_count > 0)) {
    const bool depth_cert = pin.engine == "depth";
    const bool has = depth_cert ? response.has_depth_cert
                                : response.has_swap_cert;
    const layout::Certificate& cert =
        depth_cert ? response.depth_cert : response.swap_cert;
    if (!has || !cert.certified()) {
      v.why = "certificate missing or not checked";
      return v;
    }
  }
  v.ok = true;
  v.proven = !r.hit_budget;
  return v;
}

int run_selftest(const std::string& root, const std::string& pins_path) {
  // One time-resolved and one transition-based pin that need SWAPs, so a
  // dropped SWAP is a real corruption for both verifiers.
  const std::vector<Pin> pins = load_pins(pins_path);
  std::vector<const Pin*> chosen;
  for (const bool tb : {false, true}) {
    for (const Pin& pin : pins) {
      const bool small = make_device(pin.device, root).num_qubits() <= 16;
      if (pin.swaps >= 1 && small &&
          transition_based_engine(pin.engine) == tb) {
        chosen.push_back(&pin);
        break;
      }
    }
  }
  if (chosen.size() != 2) {
    std::cerr << "selftest: pins.json lacks a small SWAP-needing "
                 "time-resolved and transition-based pin\n";
    return 1;
  }

  int attempted = 0;
  int failed = 0;
  bool all_as_expected = true;
  for (const Pin* pin : chosen) {
    const fuzz::Instance inst = make_instance(*pin, root);
    const layout::Problem problem = inst.problem();
    serve::Server server;
    const serve::Response good = server.serve(
        to_serve_request(*pin, inst.circuit, inst.device, inst.swap_duration));

    struct Case {
      const char* name;
      serve::Response answer;
      Pin pin;
      bool should_fail;
    };
    std::vector<Case> cases;
    cases.push_back({"correct answer", good, *pin, false});

    Case dropped{"dropped SWAP", good, *pin, true};
    if (!dropped.answer.result.swaps.empty()) {
      dropped.answer.result.swaps.pop_back();
      --dropped.answer.result.swap_count;
    }
    cases.push_back(dropped);

    Case perturbed{"perturbed mapping", good, *pin, true};
    std::vector<int>& row = perturbed.answer.result.mapping.front();
    // Move program qubit 0 to a physical qubit no program qubit occupies,
    // or swap it with qubit 1 when the device is full.
    for (int p = 0; p < inst.device.num_qubits(); ++p) {
      if (std::find(row.begin(), row.end(), p) == row.end()) {
        row[0] = p;
        break;
      }
    }
    if (row == good.result.mapping.front() && row.size() > 1) {
      std::swap(row[0], row[1]);
    }
    cases.push_back(perturbed);

    // A valid layout one above the optimum: the same answer checked against
    // a pin one lower, so only the pin comparison can catch it.
    Case wrong{"wrong objective", good, *pin, true};
    if (pin->swaps >= 0) {
      --wrong.pin.swaps;
    } else {
      --wrong.pin.depth;
    }
    cases.push_back(wrong);

    for (const Case& c : cases) {
      const Verdict v = check_answer(c.pin, problem, c.answer);
      ++attempted;
      failed += v.ok ? 0 : 1;
      const bool as_expected = v.ok != c.should_fail;
      all_as_expected = all_as_expected && as_expected;
      std::cout << "selftest " << pin->name << ": " << c.name << " -> "
                << (v.ok ? "counted ok" : "counted failed (" + v.why + ")")
                << (as_expected ? "" : "   <-- WRONG") << "\n";
    }
  }
  std::cout << "selftest failed_share " << failed << "/" << attempted
            << (all_as_expected ? " (as expected)" : " (NOT as expected)")
            << "\n";
  return all_as_expected ? 0 : 1;
}

}  // namespace e2e
