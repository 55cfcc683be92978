// e2ebench: the end-to-end serving benchmark program (README.md).
//
//   e2ebench run --workload W --seed N --seconds S --trace 0|1
//            --root DIR --pins FILE --scratch DIR
//   e2ebench selftest --root DIR --pins FILE
//   e2ebench pin --root DIR --pins FILE
//
// `run` is one closed-loop client: it sends the next request only after
// the previous answer came back and was checked. The last stdout line is
// the result object {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "device/json.h"
#include "ledger.h"
#include "obs/json_escape.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "qasm/parser.h"
#include "serve/canonical.h"
#include "serve/transfer.h"
#include "subarch/solve.h"

namespace e2e {

namespace {

namespace fs = std::filesystem;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string root = ".";
  std::string pins;
  std::string scratch;
};

/// The per-request record written to the records file.
struct Record {
  int pin = 0;
  int copy = 0;
  std::string name;
  std::string engine;
  double latency_ms = 0;
  double budget_ms = 0;
  bool hit_budget = false;
  /// "not engaged", "certified", "fallback: <reason>" or "cache hit".
  std::string ladder;
  std::string tier;  // "solve", "memory" or "disk"
  bool ok = false;
  bool proven = false;
  std::string why;
};

std::uint64_t counter_value(const char* name) {
  return obs::metrics::Registry::instance().counter(name).value();
}

/// Forward witness transfer (the inverse of serve::untransfer_result):
/// maps an answer in the request's labels to the canonical labels, so the
/// traced run can replay untransfer_result on exactly the data serve used.
layout::Result to_canonical(const layout::Result& r,
                            const serve::InstanceCanon& canon,
                            const device::Device& dev,
                            const device::Device& canon_dev) {
  layout::Result out = r;
  const std::vector<int>& qperm = canon.circuit.qubit_perm;
  const std::vector<int>& dperm = canon.device.perm;
  for (std::size_t t = 0; t < r.mapping.size(); ++t) {
    for (std::size_t q = 0; q < r.mapping[t].size(); ++q) {
      out.mapping[t][qperm[q]] = dperm[r.mapping[t][q]];
    }
  }
  for (std::size_t g = 0; g < r.gate_time.size(); ++g) {
    out.gate_time[canon.circuit.gate_perm[g]] = r.gate_time[g];
  }
  for (layout::SwapOp& op : out.swaps) {
    const device::Edge& e = dev.edge(op.edge);
    const int a = dperm[e.p0];
    const int b = dperm[e.p1];
    for (int c = 0; c < canon_dev.num_edges(); ++c) {
      const device::Edge& ce = canon_dev.edge(c);
      if ((ce.p0 == a && ce.p1 == b) || (ce.p0 == b && ce.p1 == a)) {
        op.edge = c;
        break;
      }
    }
  }
  return out;
}

/// Pass-numbering shared by every client of the process, so each pass
/// gets a cover-cache key no earlier pass used.
int g_passes = 0;

class Client {
 public:
  /// Builds the first pass's Server (part of set-up).
  explicit Client(const Workload& w) : w_(w) { new_server(); }
  ~Client() { clear_cache_dir(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Serve the next pass of the stream, one request at a time. Traced
  /// passes feed `ledger`; `check_ms` accumulates the time spent outside
  /// the request paths (checking answers, trace bookkeeping).
  std::vector<Record> serve_pass(Ledger* ledger, double* check_ms);

  serve::CacheStats cache_stats() const {
    serve::CacheStats s = retired_;
    add(s, server_->cache().stats());
    return s;
  }

 private:
  static void add(serve::CacheStats& into, const serve::CacheStats& s) {
    into.hits += s.hits;
    into.disk_hits += s.disk_hits;
    into.misses += s.misses;
    into.bytes_written += s.bytes_written;
    into.bytes_read += s.bytes_read;
  }
  void new_server() {
    if (server_) add(retired_, server_->cache().stats());
    server_ = std::make_unique<serve::Server>(server_options(w_, pass_key_));
  }
  void clear_cache_dir() {
    if (!w_.cache_dir.empty()) {
      std::error_code ec;
      fs::remove_all(w_.cache_dir, ec);
    }
  }
  Record serve_one(const Request& r, Ledger* ledger, double* check_ms);

  const Workload& w_;
  std::unique_ptr<serve::Server> server_;
  serve::CacheStats retired_;
  /// Cover-cache key of the current pass, unique in the process.
  int pass_key_ = g_passes++;
  int passes_done_ = 0;
};

std::vector<Record> Client::serve_pass(Ledger* ledger, double* check_ms) {
  if (passes_done_ > 0) {
    pass_key_ = g_passes++;
    new_server();
  }
  clear_cache_dir();
  const Pass& p =
      w_.variants[static_cast<std::size_t>(passes_done_) % w_.variants.size()];
  std::vector<Record> records;
  for (std::size_t i = 0; i < p.requests.size(); ++i) {
    if (static_cast<int>(i) == p.server_switch) new_server();
    records.push_back(serve_one(p.requests[i], ledger, check_ms));
  }
  clear_cache_dir();
  ++passes_done_;
  return records;
}

Record Client::serve_one(const Request& r, Ledger* ledger, double* check_ms) {
  const Pin& pin = w_.pins[static_cast<std::size_t>(r.pin)];

  Record rec;
  rec.pin = r.pin;
  rec.copy = r.copy;
  rec.name = pin.name;
  rec.engine = pin.engine;
  rec.budget_ms = pin.budget_ms;
  const std::uint64_t fallbacks0 = counter_value("subarch_fallbacks_total");
  const std::uint64_t certified0 = counter_value("subarch_certified_total");

  std::optional<circuit::Circuit> parsed;
  std::optional<device::DeviceSpec> spec;
  const circuit::Circuit* circ = &r.inst.circuit;
  const device::Device* dev = &r.inst.device;
  int swap_duration = r.inst.swap_duration;
  serve::Response resp;
  bool threw = false;
  if (ledger != nullptr) obs::Trace::instance().begin_capture("");
  const double t0 = now_ms();
  try {
    obs::Span span("bench.request");
    if (r.text) {
      {
        obs::Span parse("bench.parse.qasm");
        parsed = qasm::parse(r.qasm, pin.circuit);
      }
      {
        obs::Span parse("bench.parse.device");
        spec = device::device_from_json(r.device_json);
      }
      circ = &*parsed;
      dev = &spec->device;
      swap_duration = spec->swap_duration;
    }
    resp = server_->serve(to_serve_request(pin, *circ, *dev, swap_duration));
  } catch (const std::exception& e) {
    threw = true;
    rec.why = std::string("exception: ") + e.what();
  }
  rec.latency_ms = now_ms() - t0;
  const double c0 = now_ms();
  std::vector<obs::Event> events;
  if (ledger != nullptr) {
    events = obs::Trace::instance().snapshot();
    obs::Trace::instance().end_capture();
  }

  const layout::Problem problem{circ, dev, swap_duration};
  Verdict v;
  if (!threw) {
    v = check_answer(pin, problem, resp);
    rec.why = v.why;
  }
  rec.ok = v.ok;
  rec.proven = v.ok && v.proven;
  rec.hit_budget = resp.result.hit_budget;
  rec.tier = !resp.cache_hit ? "solve" : resp.from_disk ? "disk" : "memory";

  const bool ladder_engine = pin.engine == "tb-swap" || pin.engine == "plan";
  const bool engaged = ladder_engine && !threw &&
                       subarch::should_engage(problem, subarch::SubarchOptions{});
  if (!engaged) {
    rec.ladder = "not engaged";
  } else if (resp.cache_hit) {
    rec.ladder = "cache hit";
  } else {
    const bool fell_back =
        counter_value("subarch_fallbacks_total") != fallbacks0 ||
        counter_value("subarch_certified_total") == certified0;
    rec.ladder = fell_back ? "fallback" : "certified";
  }

  // Replay serve::untransfer_result on this request's witness: the traced
  // run's measure of the transfer layer, and in every run a round-trip
  // check of the answer (done untraced too, so both phases of a traced run
  // do the same work between requests).
  double untransfer_ms = 0;
  if (!threw && resp.result.solved) {
    const serve::InstanceCanon canon =
        serve::canonicalize(*circ, *dev, swap_duration);
    const device::Device canon_dev =
        serve::apply_device_canon(*dev, canon.device);
    const layout::Result canonical =
        to_canonical(resp.result, canon, *dev, canon_dev);
    const double u0 = now_ms();
    const layout::Result back =
        serve::untransfer_result(canonical, canon, problem);
    untransfer_ms = now_ms() - u0;
    if (back.mapping != resp.result.mapping ||
        back.gate_time != resp.result.gate_time) {
      rec.ok = false;
      rec.proven = false;
      rec.why = "untransfer replay does not round-trip";
    }
  }

  if (ledger != nullptr && !threw) {
    TracedRequest tr;
    tr.events = std::move(events);
    tr.response = &resp;
    tr.verify_ms = v.verify_ms;
    tr.untransfer_ms = untransfer_ms;
    ledger->add(tr);
    if (rec.ladder == "fallback") rec.ladder += ": " + ledger->last_fallback();
  } else if (rec.ladder == "fallback") {
    // Untraced: recover the reason by replaying the ladder on the request.
    layout::OptimizerOptions options;
    options.time_budget_ms = pin.budget_ms;
    subarch::SubarchOutcome outcome;
    if (pin.engine == "plan") {
      plan::PlanOptions popt;
      popt.time_budget_ms = pin.budget_ms;
      subarch::plan_synthesize(problem, popt, {}, &outcome);
    } else {
      subarch::tb_synthesize_swap_optimal(problem, {}, options, {}, &outcome);
    }
    rec.ladder += ": " + outcome.fallback_reason;
  }
  *check_ms += now_ms() - c0;
  return rec;
}

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

struct Loop {
  std::vector<Record> records;
  int passes = 0;
  double wall_ms = 0;
  double check_ms = 0;
};

double geomean(const std::vector<double>& v) {
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(std::max(x, 1e-6));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// The latencies of each request slot (pin, copy) over the run's passes,
/// fastest first. A slot does the same work in every pass, so its spread
/// is the machine's: other tenants slow the whole host by up to 1.6x for
/// seconds at a time, and a slot's fastest servings are its cost with the
/// least of that interference.
std::vector<std::vector<double>> slot_latencies(
    const std::vector<Record>& records) {
  std::map<std::pair<int, int>, std::vector<double>> by_slot;
  for (const Record& r : records) {
    by_slot[{r.pin, r.copy}].push_back(r.latency_ms);
  }
  std::vector<std::vector<double>> out;
  for (auto& [slot, lat] : by_slot) {
    std::sort(lat.begin(), lat.end());
    out.push_back(std::move(lat));
  }
  return out;
}

/// Wall time of one pass (including the client's checking) on a 4-core
/// x86-64 VM at this benchmark's introduction. A run serves a fixed number
/// of whole passes, about --seconds worth at these rates: every instance is
/// then equally represented and the sample count (hence the tail
/// percentile and its rank) does not depend on machine noise.
double nominal_pass_ms(const std::string& workload) {
  if (workload == "olsq2-solve") return 5000;
  if (workload == "subarch-127") return 1800;
  return 600;  // relabel-mix
}

int passes_for(const std::string& workload, double seconds) {
  return std::max(1, static_cast<int>(seconds * 1000 /
                                      nominal_pass_ms(workload)));
}

/// Serve `passes` whole passes, or fewer once `cutoff_s` has passed (a
/// guard for a much slower machine; normal runs never reach it).
Loop closed_loop(const Workload& w, int passes, double cutoff_s) {
  Loop loop;
  Client client(w);
  const double start = now_ms();
  for (;;) {
    for (Record& r : client.serve_pass(nullptr, &loop.check_ms)) {
      loop.records.push_back(std::move(r));
    }
    if (++loop.passes == passes || now_ms() - start > cutoff_s * 1000) break;
  }
  loop.wall_ms = now_ms() - start;
  return loop;
}

std::string fmt(double v) {
  std::ostringstream s;
  s << std::setprecision(10) << v;
  return s.str();
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << fmt(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void write_records(const std::string& path, const std::vector<Record>& recs) {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path);
  for (const Record& r : recs) {
    out << "{\"name\": \"" << obs::json_escape(r.name) << "\", \"engine\": \""
        << r.engine << "\", \"latency_ms\": " << fmt(r.latency_ms)
        << ", \"budget_ms\": " << r.budget_ms
        << ", \"hit_budget\": " << (r.hit_budget ? "true" : "false")
        << ", \"ladder\": \"" << obs::json_escape(r.ladder)
        << "\", \"tier\": \"" << r.tier
        << "\", \"ok\": " << (r.ok ? "true" : "false")
        << ", \"proven\": " << (r.proven ? "true" : "false")
        << ", \"why\": \"" << obs::json_escape(r.why) << "\"}\n";
  }
}

/// Per-instance digest of the records, plus every anomaly by name.
void print_records_summary(const std::vector<Record>& recs) {
  std::map<std::string, std::vector<const Record*>> by_name;
  for (const Record& r : recs) by_name[r.name].push_back(&r);
  std::cout << "per instance: name | engine | requests | p50 ms | budget ms"
               " | hit_budget | ladder | tiers\n";
  for (const auto& [name, rs] : by_name) {
    std::vector<double> lat;
    std::map<std::string, int> ladder;
    std::map<std::string, int> tiers;
    int hit_budget = 0;
    for (const Record* r : rs) {
      lat.push_back(r->latency_ms);
      ++ladder[r->ladder];
      ++tiers[r->tier];
      hit_budget += r->hit_budget ? 1 : 0;
    }
    std::cout << "  " << name << " | " << rs.front()->engine << " | "
              << rs.size() << " | " << std::fixed << std::setprecision(3)
              << percentile(lat, 50) << " | " << std::setprecision(0)
              << rs.front()->budget_ms << " | " << hit_budget << " |";
    std::cout.unsetf(std::ios::floatfield);
    for (const auto& [k, n] : ladder) std::cout << " " << k << " x" << n;
    std::cout << " |";
    for (const auto& [k, n] : tiers) std::cout << " " << k << " x" << n;
    std::cout << "\n";
  }
  for (const Record& r : recs) {
    if (!r.ok || r.hit_budget || r.ladder.rfind("fallback", 0) == 0) {
      std::cout << "  ANOMALY " << r.name << " [" << r.engine << "] "
                << r.latency_ms << " ms: "
                << (r.ok ? "" : "FAILED " + r.why + "; ")
                << (r.hit_budget ? "hit_budget; " : "") << r.ladder << "\n";
    }
  }
}

struct Moves {
  const char* prefix;
  const char* moves;
  const char* on;
  const char* not_on;
};

/// Which end-to-end metric each layer metric should move, on which
/// workload, and the workload where it should not move (README.md).
const std::vector<Moves>& moves_table() {
  static const std::vector<Moves> table = {
      {"qasm.", "latency_p50_ms", "relabel-mix", "olsq2-solve"},
      {"device.", "latency_p50_ms", "relabel-mix", "olsq2-solve"},
      {"canonical.", "latency_p50_ms, requests_per_s", "relabel-mix",
       "olsq2-solve"},
      {"cache.", "latency_p50_ms, latency_tail_ms", "relabel-mix",
       "olsq2-solve"},
      {"transfer.", "latency_p50_ms", "relabel-mix", "olsq2-solve"},
      {"extract.", "latency_geomean_ms", "subarch-127", "olsq2-solve"},
      {"ladder.", "latency_tail_ms, proven_share", "subarch-127",
       "relabel-mix"},
      {"layout.", "latency_geomean_ms", "olsq2-solve", "relabel-mix"},
      {"sat.",
       "requests_per_s, latency_geomean_ms (latency_tail_ms on subarch-127)",
       "olsq2-solve", "relabel-mix"},
      {"certify.", "latency_tail_ms", "olsq2-solve", "subarch-127"},
      {"verify.", "latency_geomean_ms (ladder re-verify)", "subarch-127",
       "olsq2-solve"},
      {"self.", "share of untraced end-to-end time", "-", "-"},
      {"tracing.", "traced minus untraced end-to-end time", "-", "-"},
  };
  return table;
}

int run(const Args& a) {
  const double process_start = now_ms();
  obs::metrics::set_enabled(true);
  const std::string scratch = a.scratch + "/" + a.workload;

  // Set-up: input generation, serialization, pins, and the first pass's
  // Server. Timed three times before the loop (the first round also pays
  // process warm-up) and twelve times after it; setup_s is the median.
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  const auto set_up = [&](double s0) {
    w = std::make_unique<Workload>(
        make_workload(a.workload, a.seed, a.root, a.pins, scratch));
    { Client first(*w); }
    setups.push_back((now_ms() - s0) / 1000.0);
  };
  set_up(process_start);
  for (int i = 0; i < 2; ++i) set_up(now_ms());

  std::vector<Record> all;
  std::vector<Metric> metrics;
  std::string records_path = scratch + "-seed" + std::to_string(a.seed) +
                             (a.trace ? "-traced" : "") + ".records.jsonl";
  if (a.trace == 0) {
    const Loop loop =
        closed_loop(*w, passes_for(a.workload, a.seconds), 1.6 * a.seconds);
    for (int i = 0; i < 12; ++i) set_up(now_ms());
    const double setup_s = percentile(setups, 50);
    all = loop.records;
    std::size_t proven = 0;
    std::size_t failed = 0;
    for (const Record& r : all) {
      proven += r.proven ? 1 : 0;
      failed += r.ok ? 0 : 1;
    }
    const double n = static_cast<double>(all.size());
    // Rate, median and geomean take each slot's fastest latency; the tail
    // needs ten samples beyond it, so it pools each slot's fastest third.
    std::vector<double> best;
    std::vector<double> fastest_third;
    double best_ms = 0;
    for (const std::vector<double>& lat : slot_latencies(all)) {
      best.push_back(lat.front());
      best_ms += lat.front();
      fastest_third.insert(fastest_third.end(), lat.begin(),
                           lat.begin() + (lat.size() + 2) / 3);
    }
    const double pooled = static_cast<double>(fastest_third.size());
    double tail_p = 50;
    for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
      if (pooled * (1 - p / 100) >= 10) tail_p = p;
    }
    metrics = {
        {"setup_s", setup_s, "s"},
        {"requests_per_s", static_cast<double>(best.size()) * 1000 / best_ms,
         "1/s"},
        {"latency_p50_ms", percentile(best, 50), "ms"},
        {"latency_tail_ms", percentile(fastest_third, tail_p), "ms"},
        {"latency_geomean_ms", geomean(best), "ms"},
        {"proven_share", static_cast<double>(proven) / n, "share"},
        {"peak_rss_mb",
         static_cast<double>(obs::metrics::peak_rss_bytes()) / (1 << 20),
         "MiB"},
    };
    std::cout << "workload " << a.workload << " seed " << a.seed << ": "
              << all.size() << " requests in " << loop.passes
              << " passes, one closed-loop client, "
              << loop.wall_ms / 1000 << " s loop (" << loop.check_ms / 1000
              << " s of it checking answers, excluded); " << best.size()
              << " request slots\n";
    for (const Metric& m : metrics) {
      std::cout << "  " << std::left << std::setw(20) << m.name << " "
                << fmt(m.value) << " " << m.unit << "\n";
    }
    std::cout << "  latency_tail_ms is p" << tail_p << " of " << pooled
              << " samples, each slot's fastest third ("
              << static_cast<int>(pooled - std::ceil(tail_p / 100 * pooled))
              << " beyond it)\n"
              << "  failed_share         " << fmt(failed / n) << " share ("
              << failed << " of " << all.size() << ")\n";
  } else {
    // Traced run: every pass is served untraced and then traced, from the
    // same cold state, alternating so machine drift hits both alike; the
    // difference is the tracing overhead.
    std::vector<Record> plain;
    std::vector<Record> traced;
    Ledger ledger;
    double check_ms = 0;
    {
      Client warm(*w);  // warm-up pass, so neither phase is first
      warm.serve_pass(nullptr, &check_ms);
      Client untraced_client(*w);
      Client traced_client(*w);
      const int pairs = std::max(1, passes_for(a.workload, a.seconds) / 2);
      for (int i = 0; i < pairs; ++i) {
        for (Record& r : untraced_client.serve_pass(nullptr, &check_ms)) {
          plain.push_back(std::move(r));
        }
        for (Record& r : traced_client.serve_pass(&ledger, &check_ms)) {
          traced.push_back(std::move(r));
        }
      }
      ledger.set_cache_stats(traced_client.cache_stats());
    }
    double untraced_ms = 0;
    for (const Record& r : plain) untraced_ms += r.latency_ms;
    all = std::move(plain);
    all.insert(all.end(), traced.begin(), traced.end());
    metrics = ledger.metrics(untraced_ms);
    const std::string report = ledger.report(a.workload, untraced_ms);
    const std::string report_path = scratch + "-where-time-goes.md";
    std::ofstream(report_path) << report;
    std::cout << report << "(report written to " << report_path << ")\n\n"
              << "per-layer metrics (" << a.workload << "): name value unit"
              << " | should move | on | should not move on\n";
    for (const Metric& m : metrics) {
      const Moves* mv = nullptr;
      for (const Moves& t : moves_table()) {
        if (m.name.rfind(t.prefix, 0) == 0) mv = &t;
      }
      std::cout << "  " << std::left << std::setw(36) << m.name << " "
                << fmt(m.value) << " " << m.unit;
      if (mv != nullptr) {
        std::cout << " | " << mv->moves << " | " << mv->on << " | "
                  << mv->not_on;
      }
      std::cout << "\n";
    }
  }

  write_records(records_path, all);
  print_records_summary(all);
  std::cout << "per-request records: " << records_path << "\n";
  std::size_t failed = 0;
  for (const Record& r : all) failed += r.ok ? 0 : 1;
  std::cout << result_json(failed == 0, all.size(), failed, metrics)
            << std::endl;
  return 0;
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::runtime_error("usage: e2ebench run|selftest|pin ...");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val);
    } else if (key == "--root") {
      a.root = val;
    } else if (key == "--pins") {
      a.pins = val;
    } else if (key == "--scratch") {
      a.scratch = val;
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (a.pins.empty()) a.pins = a.root + "/e2ebench/pins.json";
  if (a.scratch.empty()) a.scratch = a.root + "/.bench_build/e2ebench/runs";
  return a;
}

}  // namespace

}  // namespace e2e

int main(int argc, char** argv) {
  try {
    const e2e::Args a = e2e::parse_args(argc, argv);
    if (a.mode == "run") return e2e::run(a);
    if (a.mode == "selftest") return e2e::run_selftest(a.root, a.pins);
    if (a.mode == "pin") return e2e::run_pin(a.root, a.pins);
    std::cerr << "e2ebench: unknown mode " << a.mode << "\n";
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
  }
  return 2;
}
