#include "ledger.h"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <sstream>

namespace e2e {

namespace {

bool starts(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_layout_span(const std::string& name) {
  return starts(name, "olsq2.") || starts(name, "tb.") ||
         starts(name, "plan.") || starts(name, "windowed.") ||
         starts(name, "portfolio.");
}

const obs::Arg* find_arg(const obs::Event& e, const char* key) {
  for (const obs::Arg& a : e.args) {
    if (a.key == key) return &a;
  }
  return nullptr;
}

double num_arg(const obs::Event& e, const char* key) {
  const obs::Arg* a = find_arg(e, key);
  return a == nullptr ? 0.0 : std::strtod(a->value.c_str(), nullptr);
}

double ms(const obs::Event& e) { return static_cast<double>(e.dur) / 1e6; }

struct Node {
  const obs::Event* e = nullptr;
  int parent = -1;
  double child_ms = 0;
  bool extract = false;  // inside subarch.extract
  bool ladder = false;   // inside subarch.ladder
  bool certify = false;  // inside serve's certify_* call
};

std::string layer_of(const Node& n) {
  const std::string& name = n.e->name;
  if (name == "bench.request") return "client";
  if (name == "bench.parse.qasm") return "qasm";
  if (name == "bench.parse.device") return "device";
  if (starts(name, "serve.canonicalize")) {
    if (n.extract) return "subarch.extract";
    if (n.ladder) return "subarch.solve";
    return "serve.canonical";
  }
  if (starts(name, "serve.cache.")) return "serve.cache";
  if (name == "subarch.extract") return "subarch.extract";
  if (starts(name, "subarch.")) return "subarch.solve";
  if (n.certify) return "layout.certify";
  if (starts(name, "sat.")) return "sat";
  if (is_layout_span(name)) return "layout";
  return "serve.other";  // serve.batch / serve.solve bookkeeping
}

}  // namespace

const std::vector<std::string>& ledger_layers() {
  static const std::vector<std::string> layers = {
      "client",          "qasm",           "device",
      "serve.canonical", "serve.cache",    "serve.transfer",
      "serve.other",     "subarch.extract", "subarch.solve",
      "layout",          "layout.certify", "layout.verifier",
      "sat"};
  return layers;
}

void Ledger::add(const TracedRequest& tr) {
  const serve::Response& resp = *tr.response;
  ++requests_;
  const bool solved_here = !resp.cache_hit;
  solves_ += solved_here ? 1 : 0;
  canon_exact_ += resp.canonical_exact ? 1 : 0;
  last_fallback_.clear();

  // Rebuild containment (one client thread, no portfolio): order spans by
  // start, longest first, and keep a stack of open ancestors.
  std::vector<const obs::Event*> spans;
  for (const obs::Event& e : tr.events) {
    if (e.kind == obs::Event::Kind::kSpan) spans.push_back(&e);
  }
  std::sort(spans.begin(), spans.end(),
            [](const obs::Event* a, const obs::Event* b) {
              if (a->ts != b->ts) return a->ts < b->ts;
              return a->dur > b->dur;
            });
  std::vector<Node> nodes(spans.size());
  std::vector<int> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::Event& e = *spans[i];
    while (!open.empty()) {
      const obs::Event& top = *spans[open.back()];
      if (e.ts >= top.ts && e.ts + e.dur <= top.ts + top.dur) break;
      open.pop_back();
    }
    Node& n = nodes[i];
    n.e = &e;
    if (!open.empty()) {
      const Node& p = nodes[open.back()];
      n.parent = open.back();
      n.extract = p.extract || p.e->name == "subarch.extract";
      n.ladder = p.ladder || p.e->name == "subarch.ladder";
      // serve's certify_* builds a fresh model and solves it right under
      // serve.solve, after the engine's own top-level span has closed.
      n.certify = p.certify ||
                  (p.e->name == "serve.solve" &&
                   (e.name == "olsq2.encode" || starts(e.name, "sat.")));
    }
    open.push_back(static_cast<int>(i));
  }
  for (const Node& n : nodes) {
    if (n.parent >= 0) nodes[n.parent].child_ms += ms(*n.e);
  }

  std::map<std::string, double> self;
  double certify_span_ms = 0;
  double engine_ms = 0;
  double engine_sat_ms = 0;
  int cold_extracts = 0;
  double extract_canons = 0;
  bool ladder_certified = false;
  for (const Node& n : nodes) {
    const obs::Event& e = *n.e;
    const std::string& name = e.name;
    self[layer_of(n)] += std::max(0.0, ms(e) - n.child_ms);
    if (name == "bench.request") traced_ms_ += ms(e);
    const bool parent_layout =
        n.parent >= 0 && is_layout_span(nodes[n.parent].e->name);
    if (n.certify) {
      if (n.parent >= 0 && nodes[n.parent].e->name == "serve.solve") {
        certify_span_ms += ms(e);
      }
      continue;
    }
    if (name == "bench.parse.qasm") {
      qasm_ms_.add(ms(e));
    } else if (name == "bench.parse.device") {
      device_ms_.add(ms(e));
    } else if (name == "serve.canonicalize.circuit" && !n.extract &&
               !n.ladder) {
      canon_circuit_ms_.add(ms(e));
      canon_calls_ += 1;
    } else if (name == "serve.canonicalize.device") {
      if (n.extract) {
        extract_canons += 1;
      } else if (!n.ladder) {
        canon_device_ms_.add(ms(e));
        canon_calls_ += 1;
      }
    } else if (name == "serve.cache.lookup") {
      lookup_ms_.add(ms(e));
    } else if (name == "serve.cache.insert") {
      insert_ms_.add(ms(e));
    } else if (name == "subarch.extract") {
      const obs::Arg* cached = find_arg(e, "cached");
      if (cached != nullptr && cached->value == "false") {
        ++cold_extracts;
        cover_ms_.add(ms(e));
        cover_sets_.add(num_arg(e, "sets"));
        cover_classes_.add(num_arg(e, "classes"));
      }
    } else if (name == "subarch.ladder") {
      ++ladders_;
      ladder_ms_.add(ms(e));
      if (find_arg(e, "k") != nullptr) {
        ++ladder_certified_;
        ladder_certified = true;
        ladder_rounds_.add(num_arg(e, "k") + 1);
        ladder_probes_.add(num_arg(e, "probes"));
        ladder_probe_total_ += num_arg(e, "probes");
        ladder_hits_ += num_arg(e, "library_hits");
      }
      if (const obs::Arg* why = find_arg(e, "fallback")) {
        ++ladder_fallbacks_;
        last_fallback_ = why->value;
      }
    } else if (name == "olsq2.solve" || name == "tb.solve") {
      sat_calls_ += 1;
      const obs::Arg* result = find_arg(e, "result");
      if (result != nullptr && result->value == "unsat") unsat_calls_ += 1;
      conflicts_ += num_arg(e, "conflicts");
      propagations_ += num_arg(e, "propagations");
    } else if (name == "sat.solve") {
      sat_ms_.add(ms(e));
      sat_total_ms_ += ms(e);
      engine_sat_ms += ms(e);
    }
    if (is_layout_span(name) && !parent_layout) engine_ms += ms(e);
  }
  if (cold_extracts > 0) cover_canons_.add(extract_canons, cold_extracts);
  if (engine_ms > 0) {
    engine_ms_.add(engine_ms);
    drive_ms_.add(std::max(0.0, engine_ms - engine_sat_ms));
  }
  if (solved_here) {
    for (const layout::SolveCall& c : resp.result.calls) {
      pruned_calls_ += c.status == 'P' ? 1 : 0;
    }
  }

  // Layers without spans inside serve: their time sits in serve.other's
  // self time. Move the benchmark's own measurement of each there.
  double certify_rest = 0;
  if (solved_here) {
    for (const auto& [has, cert] :
         {std::pair{resp.has_depth_cert, &resp.depth_cert},
          std::pair{resp.has_swap_cert, &resp.swap_cert}}) {
      if (!has) continue;
      ++certs_;
      certs_checked_ += cert->certified() ? 1 : 0;
      certify_ms_.add(cert->wall_ms);
      proof_steps_.add(static_cast<double>(cert->proof_steps));
      certify_rest += cert->wall_ms;
    }
  }
  certify_rest = std::max(0.0, certify_rest - certify_span_ms);
  // The ladder wrappers re-verify the lifted answer on the full device,
  // the same check the benchmark's own verify times.
  const double internal_verify =
      solved_here && ladder_certified ? tr.verify_ms : 0.0;
  const double moved = tr.untransfer_ms + internal_verify + certify_rest;
  const double scale =
      moved > 0 ? std::min(1.0, self["serve.other"] / moved) : 0.0;
  self["serve.other"] -= moved * scale;
  self["serve.transfer"] += tr.untransfer_ms * scale;
  self["layout.verifier"] += internal_verify * scale;
  self["layout.certify"] += certify_rest * scale;
  for (const auto& [layer, v] : self) self_ms_[layer] += v;

  untransfer_ms_.add(tr.untransfer_ms);
  verify_ms_.add(tr.verify_ms);
}

std::vector<Metric> Ledger::metrics(double untraced_ms) const {
  const auto per = [](double v, double n) { return n > 0 ? v / n : 0.0; };
  const double lookups = static_cast<double>(cache_.hits + cache_.misses);
  std::vector<Metric> m = {
      {"qasm.parse_ms", qasm_ms_.value(), "ms"},
      {"device.json_parse_ms", device_ms_.value(), "ms"},
      {"canonical.circuit_ms", canon_circuit_ms_.value(), "ms"},
      {"canonical.device_ms", canon_device_ms_.value(), "ms"},
      {"canonical.calls", per(canon_calls_, requests_), "1/request"},
      {"canonical.exact_share", per(canon_exact_, requests_), "share"},
      {"cache.lookup_ms", lookup_ms_.value(), "ms"},
      {"cache.insert_ms", insert_ms_.value(), "ms"},
      {"cache.hit_ratio", per(static_cast<double>(cache_.hits), lookups),
       "share"},
      {"cache.disk_hit_ratio",
       per(static_cast<double>(cache_.disk_hits),
           static_cast<double>(cache_.hits)),
       "share"},
      {"cache.bytes_written",
       per(static_cast<double>(cache_.bytes_written), requests_),
       "B/request"},
      {"cache.bytes_read",
       per(static_cast<double>(cache_.bytes_read), requests_), "B/request"},
      {"transfer.untransfer_ms", untransfer_ms_.value(), "ms"},
      {"extract.cover_ms", cover_ms_.value(), "ms"},
      {"extract.sets_enumerated", cover_sets_.value(), "count"},
      {"extract.classes", cover_classes_.value(), "count"},
      {"extract.device_canonicalizations", cover_canons_.value(), "count"},
      {"ladder.ms", ladder_ms_.value(), "ms"},
      {"ladder.rounds", ladder_rounds_.value(), "count"},
      {"ladder.probes", ladder_probes_.value(), "count"},
      {"ladder.library_hit_ratio",
       per(ladder_hits_, ladder_hits_ + ladder_probe_total_), "share"},
      {"ladder.certified_ratio", per(ladder_certified_, ladders_), "share"},
      {"ladder.fallbacks", static_cast<double>(ladder_fallbacks_), "count"},
      {"layout.engine_ms", engine_ms_.value(), "ms"},
      {"layout.drive_ms", drive_ms_.value(), "ms"},
      {"layout.sat_calls", per(sat_calls_, solves_), "1/solve"},
      {"layout.unsat_calls", per(unsat_calls_, solves_), "1/solve"},
      {"layout.pruned_calls", per(pruned_calls_, solves_), "1/solve"},
      {"sat.solve_ms", sat_ms_.value(), "ms"},
      {"sat.conflicts", per(conflicts_, solves_), "1/solve"},
      {"sat.propagations", per(propagations_, solves_), "1/solve"},
      {"sat.props_per_ms", per(propagations_, sat_total_ms_), "1/ms"},
      {"certify.ms", certify_ms_.value(), "ms"},
      {"certify.proof_steps", proof_steps_.value(), "count"},
      {"certify.checked_ratio", per(certs_checked_, certs_), "share"},
      {"verify.ms", verify_ms_.value(), "ms"},
  };
  for (const std::string& layer : ledger_layers()) {
    const auto it = self_ms_.find(layer);
    m.push_back({"self." + layer + "_share",
                 per(it == self_ms_.end() ? 0.0 : it->second, untraced_ms),
                 "share"});
  }
  m.push_back({"tracing.overhead_share",
               per(traced_ms_ - untraced_ms, untraced_ms), "share"});
  return m;
}

std::string Ledger::report(const std::string& workload,
                           double untraced_ms) const {
  const int requests = std::max(1, requests_);
  std::ostringstream out;
  out << std::fixed << std::setprecision(4);
  out << "## " << workload << "\n\n"
      << requests << " requests served twice, untraced then traced: "
      << untraced_ms / requests << " ms/request untraced, "
      << traced_ms_ / requests << " ms/request traced.\n\n"
      << "| layer | self ms/request (traced) | share of untraced e2e |\n"
      << "|---|---:|---:|\n";
  double total = 0;
  for (const std::string& layer : ledger_layers()) {
    const auto it = self_ms_.find(layer);
    const double v = it == self_ms_.end() ? 0.0 : it->second;
    total += v;
    out << "| " << layer << " | " << v / requests << " | "
        << v / untraced_ms << " |\n";
  }
  const double overhead = traced_ms_ - untraced_ms;
  out << "| **sum of layers** | " << total / requests << " | "
      << total / untraced_ms << " |\n"
      << "| tracing overhead (traced - untraced) | " << overhead / requests
      << " | " << overhead / untraced_ms << " |\n"
      << "| **sum of layers - overhead** | "
      << (total - overhead) / requests << " | "
      << (total - overhead) / untraced_ms << " |\n\n";
  return out.str();
}

}  // namespace e2e
