#include "obs/obs.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "obs/json_escape.h"

namespace olsq2::obs {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Microseconds with sub-us precision, as Chrome's "ts"/"dur" expect.
void append_us(std::ostringstream& out, TimeNs ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000 < 0 ? -(ns % 1000) : ns % 1000));
  out << buf;
}

void append_args(std::ostringstream& out, const std::vector<Arg>& args) {
  out << "{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) out << ",";
    out << "\"" << json_escape(args[i].key) << "\":";
    if (args[i].quoted) {
      out << "\"" << json_escape(args[i].value) << "\"";
    } else {
      out << args[i].value;
    }
  }
  out << "}";
}

}  // namespace

EnvConfig read_env_config() {
  EnvConfig config;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): called once from the Trace
  // singleton's constructor, before any traced thread starts; no setenv.
  if (const char* file = std::getenv("OLSQ2_TRACE"); file != nullptr && *file) {
    config.trace_file = file;
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe): same single-shot context.
  if (const char* s = std::getenv("OLSQ2_TRACE_SUMMARY");
      s != nullptr && *s && *s != '0') {
    config.summary = true;
  }
  return config;
}

Trace::Trace() {
  const EnvConfig config = read_env_config();
  if (!config.trace_file.empty() || config.summary) {
    begin_capture(config.trace_file, config.summary);
  }
}

Trace::~Trace() {
  if (enabled()) end_capture();
}

Trace& Trace::instance() {
  static Trace trace;
  return trace;
}

std::uint32_t Trace::thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TimeNs Trace::now_ns() const {
  return steady_now_ns() - epoch_ns_.load(std::memory_order_acquire);
}

void Trace::begin_capture(std::string trace_file, bool summary) {
  if (enabled()) end_capture();
  sync::MutexLock lock(mutex_);
  trace_file_ = std::move(trace_file);
  summary_ = summary;
  events_.clear();
  epoch_ns_.store(steady_now_ns(), std::memory_order_release);
  enabled_.store(true, std::memory_order_relaxed);
}

std::string Trace::end_capture() {
  sync::MutexLock lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  const std::string summary_text = build_summary(events_);
  if (!trace_file_.empty()) {
    std::ofstream out(trace_file_);
    if (out) {
      out << to_chrome_trace(events_);
    } else {
      std::cerr << "obs: cannot write trace file " << trace_file_ << "\n";
    }
  }
  if (summary_) std::cerr << summary_text;
  events_.clear();
  trace_file_.clear();
  summary_ = false;
  return summary_text;
}

void Trace::record(Event e) {
  if (!enabled()) return;
  sync::MutexLock lock(mutex_);
  events_.push_back(std::move(e));
}

std::vector<Event> Trace::snapshot() const {
  sync::MutexLock lock(mutex_);
  return events_;
}

Span::Span(const char* name) : live_(Trace::instance().enabled()) {
  if (!live_) return;
  start_ = Trace::instance().now_ns();
  event_.kind = Event::Kind::kSpan;
  event_.name = name;
  event_.tid = Trace::thread_id();
}

Span::~Span() {
  if (!live_) return;
  event_.ts = start_;
  event_.dur = Trace::instance().now_ns() - start_;
  Trace::instance().record(std::move(event_));
}

void Span::arg(const char* key, std::string_view value) {
  if (!live_) return;
  event_.args.push_back({key, std::string(value), /*quoted=*/true});
}

void Span::arg(const char* key, const char* value) {
  arg(key, std::string_view(value));
}

void Span::arg(const char* key, std::int64_t value) {
  if (!live_) return;
  event_.args.push_back({key, std::to_string(value), /*quoted=*/false});
}

void Span::arg(const char* key, std::uint64_t value) {
  if (!live_) return;
  event_.args.push_back({key, std::to_string(value), /*quoted=*/false});
}

void Span::arg(const char* key, int value) {
  arg(key, static_cast<std::int64_t>(value));
}

void Span::arg(const char* key, double value) {
  if (!live_) return;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  event_.args.push_back({key, buf, /*quoted=*/false});
}

void Span::arg(const char* key, bool value) {
  if (!live_) return;
  event_.args.push_back({key, value ? "true" : "false", /*quoted=*/false});
}

void counter(const char* name, double value) {
  Trace& trace = Trace::instance();
  if (!trace.enabled()) return;
  Event e;
  e.kind = Event::Kind::kCounter;
  e.name = name;
  e.tid = Trace::thread_id();
  e.ts = trace.now_ns();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  e.args.push_back({"value", buf, /*quoted=*/false});
  trace.record(std::move(e));
}

void instant(const char* name, std::vector<Arg> args) {
  Trace& trace = Trace::instance();
  if (!trace.enabled()) return;
  Event e;
  e.kind = Event::Kind::kInstant;
  e.name = name;
  e.tid = Trace::thread_id();
  e.ts = trace.now_ns();
  e.args = std::move(args);
  trace.record(std::move(e));
}

std::string to_chrome_trace(const std::vector<Event>& events) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (const Event& e : events) {
    if (&e != events.data()) out << ",";
    out << "\n";
    out << "{\"name\":\"" << json_escape(e.name) << "\",\"ph\":\"";
    switch (e.kind) {
      case Event::Kind::kSpan: out << "X"; break;
      case Event::Kind::kInstant: out << "i"; break;
      case Event::Kind::kCounter: out << "C"; break;
    }
    out << "\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":";
    append_us(out, e.ts);
    if (e.kind == Event::Kind::kSpan) {
      out << ",\"dur\":";
      append_us(out, e.dur);
    }
    if (e.kind == Event::Kind::kInstant) out << ",\"s\":\"t\"";
    // Chrome groups counter tracks by (pid, name) and ignores tid, so
    // streams of the same counter from different threads (say, two
    // callers sharing one serve::Server) would interleave into one garbled
    // track. An explicit "id"
    // keyed by the thread id splits them back apart.
    if (e.kind == Event::Kind::kCounter) out << ",\"id\":\"" << e.tid << "\"";
    if (!e.args.empty()) {
      out << ",\"args\":";
      append_args(out, e.args);
    }
    out << "}";
  }
  out << "\n]}\n";
  return out.str();
}

namespace {

struct SummaryNode {
  std::uint64_t count = 0;
  TimeNs total_ns = 0;
  std::map<std::string, SummaryNode> children;
};

void print_node(std::ostringstream& out, const std::string& name,
                const SummaryNode& node, int depth) {
  out << std::string(static_cast<std::size_t>(depth) * 2, ' ') << name << "  x"
      << node.count;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(node.total_ns) / 1e6);
  out << "  " << buf << " ms\n";
  for (const auto& [child_name, child] : node.children) {
    print_node(out, child_name, child, depth + 1);
  }
}

}  // namespace

std::string build_summary(const std::vector<Event>& events) {
  // Group spans per thread, order by start time (ties: longer first, so a
  // parent precedes children starting at the same instant), and rebuild
  // nesting from interval containment.
  std::map<std::uint32_t, std::vector<const Event*>> spans_by_tid;
  std::map<std::string, double> counters;  // last sample per counter
  std::map<std::pair<std::uint32_t, std::string>, double> counters_by_key;
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kSpan) {
      spans_by_tid[e.tid].push_back(&e);
    } else if (e.kind == Event::Kind::kCounter && !e.args.empty()) {
      counters_by_key[{e.tid, e.name}] = std::atof(e.args[0].value.c_str());
    }
  }
  for (const auto& [key, value] : counters_by_key) {
    counters[key.second] += value;  // sum final values across threads
  }

  SummaryNode root;
  for (auto& [tid, spans] : spans_by_tid) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Event* a, const Event* b) {
                       if (a->ts != b->ts) return a->ts < b->ts;
                       return a->dur > b->dur;
                     });
    std::vector<const Event*> stack;
    for (const Event* e : spans) {
      while (!stack.empty() && e->ts >= stack.back()->ts + stack.back()->dur) {
        stack.pop_back();
      }
      SummaryNode* node = &root;
      for (const Event* ancestor : stack) node = &node->children[ancestor->name];
      SummaryNode& leaf = node->children[e->name];
      leaf.count++;
      leaf.total_ns += e->dur;
      stack.push_back(e);
    }
  }

  std::ostringstream out;
  out << "== trace summary ==\n";
  for (const auto& [name, node] : root.children) print_node(out, name, node, 0);
  if (!counters.empty()) {
    out << "counters (final values):\n";
    for (const auto& [name, value] : counters) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.0f", value);
      out << "  " << name << " = " << buf << "\n";
    }
  }
  return out.str();
}

}  // namespace olsq2::obs
