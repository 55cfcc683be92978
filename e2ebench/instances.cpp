// Workload inputs: pins.json I/O, instance generators, and the seeded
// request streams of the three workloads.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "bengen/rng.h"
#include "bengen/workloads.h"
#include "device/json.h"
#include "device/presets.h"
#include "fuzz/metamorphic.h"
#include "obs/json_escape.h"
#include "obs/json_scanner.h"
#include "qasm/writer.h"

namespace e2e {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("e2ebench: cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

Pin parse_pin(obs::JsonScanner& js) {
  Pin pin;
  js.expect('{');
  if (js.accept('}')) return pin;
  do {
    const std::string key = js.string_value();
    js.expect(':');
    if (key == "name") {
      pin.name = js.string_value();
    } else if (key == "workloads") {
      js.expect('[');
      if (!js.accept(']')) {
        do {
          pin.workloads.push_back(js.string_value());
        } while (js.accept(','));
        js.expect(']');
      }
    } else if (key == "circuit") {
      pin.circuit = js.string_value();
    } else if (key == "device") {
      pin.device = js.string_value();
    } else if (key == "swap_duration") {
      pin.swap_duration = js.int_value();
    } else if (key == "engine") {
      pin.engine = js.string_value();
    } else if (key == "certify") {
      pin.certify = js.bool_value();
    } else if (key == "budget_ms") {
      pin.budget_ms = js.double_value();
    } else if (key == "depth") {
      pin.depth = js.int_value();
    } else if (key == "swaps") {
      pin.swaps = js.int_value();
    } else if (key == "confirmed_by") {
      pin.confirmed_by = js.string_value();
    } else if (key == "chosen_because") {
      pin.chosen_because = js.string_value();
    } else {
      js.skip_value();
    }
  } while (js.accept(','));
  js.expect('}');
  return pin;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += obs::json_escape(s);
  out += '"';
  return out;
}

/// Apply relabeling relations of fuzz/metamorphic.h; the optimum is
/// invariant. Physical relabeling and commuting reorder leave serve's
/// canonical instance byte-identical. A program-qubit relabeling of a
/// symmetric circuit may land on another automorphic canonical labeling
/// whose two-qubit gates differ in orientation (the key ignores it), which
/// changes the SAT search, so it is applied only where asked.
fuzz::Instance relabeled(const fuzz::Instance& base, bengen::Rng& rng,
                         bool program_qubits) {
  fuzz::Instance out =
      program_qubits ? fuzz::relabel_program_qubits(base, rng) : base;
  out = fuzz::relabel_physical_qubits(out, rng);
  return fuzz::commuting_reorder(out, rng);
}

}  // namespace

std::vector<Pin> load_pins(const std::string& path) {
  const std::string text = read_file(path);
  obs::JsonScanner js(text, "pins " + path);
  std::vector<Pin> pins;
  js.expect('{');
  do {
    const std::string key = js.string_value();
    js.expect(':');
    if (key != "pins") {
      js.skip_value();
      continue;
    }
    js.expect('[');
    if (!js.accept(']')) {
      do {
        pins.push_back(parse_pin(js));
      } while (js.accept(','));
      js.expect(']');
    }
  } while (js.accept(','));
  js.expect('}');
  return pins;
}

void save_pins(const std::string& path, const std::vector<Pin>& pins) {
  std::ostringstream out;
  out << "{\"about\": " << quoted(
      "Expected optima of every e2ebench workload instance. Written by "
      "`e2ebench pin`; each row says how an engine other than the served "
      "path confirmed it, and why the instance was chosen.")
      << ",\n \"pins\": [\n";
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const Pin& p = pins[i];
    out << "  {\"name\": " << quoted(p.name) << ", \"workloads\": [";
    for (std::size_t w = 0; w < p.workloads.size(); ++w) {
      out << (w > 0 ? ", " : "") << quoted(p.workloads[w]);
    }
    out << "], \"circuit\": " << quoted(p.circuit)
        << ", \"device\": " << quoted(p.device)
        << ", \"swap_duration\": " << p.swap_duration
        << ", \"engine\": " << quoted(p.engine)
        << ", \"certify\": " << (p.certify ? "true" : "false")
        << ", \"budget_ms\": " << p.budget_ms << ", \"depth\": " << p.depth
        << ", \"swaps\": " << p.swaps
        << ",\n   \"confirmed_by\": " << quoted(p.confirmed_by)
        << ",\n   \"chosen_because\": " << quoted(p.chosen_because) << "}"
        << (i + 1 < pins.size() ? ",\n" : "\n");
  }
  out << " ]}\n";
  std::ofstream file(path, std::ios::binary);
  if (!(file << out.str())) {
    throw std::runtime_error("e2ebench: cannot write " + path);
  }
}

circuit::Circuit make_circuit(const std::string& spec,
                              const device::Device& dev) {
  const std::vector<std::string> f = split(spec, ':');
  const auto arg = [&](std::size_t i) {
    if (i >= f.size()) {
      throw std::runtime_error("e2ebench: short circuit spec '" + spec + "'");
    }
    return std::stoll(f[i]);
  };
  const std::string& kind = f[0];
  circuit::Circuit c;
  if (kind == "qaoa") {
    c = bengen::qaoa_3regular(static_cast<int>(arg(1)), arg(2));
  } else if (kind == "queko") {
    bengen::QuekoSpec q;
    q.depth = static_cast<int>(arg(1));
    q.gate_count = static_cast<int>(arg(2));
    q.seed = arg(3);
    c = bengen::queko(dev, q);
  } else if (kind == "qft") {
    c = bengen::qft(static_cast<int>(arg(1)));
  } else if (kind == "tof") {
    c = bengen::tof(static_cast<int>(arg(1)));
  } else if (kind == "ising") {
    c = bengen::ising(static_cast<int>(arg(1)), static_cast<int>(arg(2)));
  } else if (kind == "cuccaro") {
    c = bengen::cuccaro_adder(static_cast<int>(arg(1)));
  } else if (kind == "ghz") {
    c = bengen::ghz(static_cast<int>(arg(1)));
  } else if (kind == "region") {
    c = bengen::region_workload(dev, static_cast<int>(arg(1)),
                                static_cast<int>(arg(2)),
                                static_cast<int>(arg(3)), arg(4));
  } else {
    throw std::runtime_error("e2ebench: unknown circuit spec '" + spec + "'");
  }
  c.set_name(spec);
  return c;
}

device::Device make_device(const std::string& spec, const std::string& root) {
  if (spec.rfind("file:", 0) == 0) {
    return device::device_from_json(read_file(root + "/" + spec.substr(5)))
        .device;
  }
  return device::preset_by_name(spec);
}

fuzz::Instance make_instance(const Pin& pin, const std::string& root) {
  device::Device dev = make_device(pin.device, root);
  circuit::Circuit circ = make_circuit(pin.circuit, dev);
  return fuzz::Instance{std::move(circ), std::move(dev), pin.swap_duration, 0};
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"olsq2-solve", "subarch-127",
                                                 "relabel-mix"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& root, const std::string& pins_path,
                       const std::string& scratch_dir) {
  if (std::find(workload_names().begin(), workload_names().end(), name) ==
      workload_names().end()) {
    throw std::runtime_error("e2ebench: unknown workload '" + name + "'");
  }
  Workload w;
  w.name = name;
  for (Pin& pin : load_pins(pins_path)) {
    if (std::find(pin.workloads.begin(), pin.workloads.end(), name) !=
        pin.workloads.end()) {
      w.pins.push_back(std::move(pin));
    }
  }
  if (w.pins.empty()) {
    throw std::runtime_error("e2ebench: no pins for workload " + name);
  }
  std::vector<fuzz::Instance> bases;
  for (const Pin& pin : w.pins) bases.push_back(make_instance(pin, root));

  // relabel-mix sends each base once as generated and seven times as a
  // relabeled/reordered duplicate, as text, through a disk-tier cache, in
  // eight rounds of one copy per class. The second Server starts with
  // round four, so every pass has the same mix of solves (round 0), disk
  // hits (round 4) and memory hits; the seed relabels the copies and
  // shuffles the classes within a round; the solved copy is the base, so
  // the solve work does not depend on the seed. The other workloads keep
  // the pins' order (serve shares bound facts and ladder probes between
  // neighbouring requests, so order moves latency), and the seed relabels
  // physical qubits and reorders commuting gates.
  const bool mix = name == "relabel-mix";
  const int copies = mix ? 8 : 1;
  const int variants = mix ? 2 : 3;
  if (mix) w.cache_dir = scratch_dir + "/cache";

  for (int v = 0; v < variants; ++v) {
    bengen::Rng rng(fuzz::derive_seed(seed, static_cast<std::uint64_t>(v)));
    Pass pass;
    for (int c = 0; c < copies; ++c) {
      std::vector<Request> round;
      for (std::size_t p = 0; p < bases.size(); ++p) {
        Request r{static_cast<int>(p), c,
                  mix && c == 0 ? bases[p] : relabeled(bases[p], rng, mix),
                  mix, {}, {}};
        if (mix) {
          r.qasm = qasm::write(r.inst.circuit);
          r.device_json =
              device::device_to_json(r.inst.device, r.inst.swap_duration);
        }
        round.push_back(std::move(r));
      }
      if (mix) rng.shuffle(round);
      if (c == copies / 2 && mix) {
        pass.server_switch = static_cast<int>(pass.requests.size());
      }
      for (Request& r : round) pass.requests.push_back(std::move(r));
    }
    w.variants.push_back(std::move(pass));
  }
  return w;
}

serve::ServerOptions server_options(const Workload& w, int pass) {
  serve::ServerOptions opts;
  opts.cache.disk_dir = w.cache_dir;
  opts.subarch.extract.max_subgraphs += pass;
  return opts;
}

serve::Request to_serve_request(const Pin& pin, const circuit::Circuit& circ,
                                const device::Device& dev, int swap_duration) {
  serve::Request req;
  req.circuit = &circ;
  req.device = &dev;
  req.swap_duration = swap_duration;
  req.engine = serve::engine_from_tag(pin.engine);
  req.certify = pin.certify;
  req.options.time_budget_ms = pin.budget_ms;
  req.tag = pin.name;
  return req;
}

}  // namespace e2e
