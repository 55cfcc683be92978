#include "layout/json.h"

#include <sstream>

#include "obs/json_escape.h"
#include "obs/json_scanner.h"

namespace olsq2::layout {

namespace {

void append_int_array(std::ostringstream& out, const std::vector<int>& v) {
  out << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out << ",";
    out << v[i];
  }
  out << "]";
}

}  // namespace

std::string result_to_json(const Problem& problem, const Result& result) {
  std::ostringstream out;
  out << "{";
  out << "\"circuit\":\"" << obs::json_escape(problem.circuit->label()) << "\",";
  out << "\"device\":\"" << obs::json_escape(problem.device->name()) << "\",";
  out << "\"swap_duration\":" << problem.swap_duration << ",";
  out << "\"solved\":" << (result.solved ? "true" : "false") << ",";
  out << "\"transition_based\":" << (result.transition_based ? "true" : "false")
      << ",";
  out << "\"depth\":" << result.depth << ",";
  out << "\"swap_count\":" << result.swap_count << ",";
  out << "\"gate_times\":";
  append_int_array(out, result.gate_time);
  out << ",";
  out << "\"initial_mapping\":";
  append_int_array(out, result.mapping.empty() ? std::vector<int>{}
                                               : result.mapping.front());
  out << ",";
  out << "\"final_mapping\":";
  append_int_array(out, result.mapping.empty() ? std::vector<int>{}
                                               : result.mapping.back());
  out << ",";
  out << "\"swaps\":[";
  for (std::size_t i = 0; i < result.swaps.size(); ++i) {
    if (i) out << ",";
    const device::Edge& e = problem.device->edge(result.swaps[i].edge);
    out << "{\"edge\":[" << e.p0 << "," << e.p1 << "],\"end_time\":"
        << result.swaps[i].end_time << "}";
  }
  out << "],";
  out << "\"pareto\":[";
  for (std::size_t i = 0; i < result.pareto.size(); ++i) {
    if (i) out << ",";
    out << "[" << result.pareto[i].first << "," << result.pareto[i].second
        << "]";
  }
  out << "],";
  out << "\"search\":{\"sat_calls\":" << result.sat_calls
      << ",\"conflicts\":" << result.conflicts
      << ",\"wall_ms\":" << result.wall_ms
      << ",\"hit_budget\":" << (result.hit_budget ? "true" : "false")
      << ",\"calls\":[";
  for (std::size_t i = 0; i < result.calls.size(); ++i) {
    if (i) out << ",";
    const SolveCall& call = result.calls[i];
    out << "{\"depth_bound\":" << call.depth_bound
        << ",\"swap_bound\":" << call.swap_bound << ",\"status\":\""
        << (call.status == 'S'   ? "sat"
            : call.status == 'U' ? "unsat"
            : call.status == 'P' ? "pruned"
                                 : "unknown")
        << "\",\"conflicts\":" << call.conflicts
        << ",\"propagations\":" << call.propagations
        << ",\"decisions\":" << call.decisions
        << ",\"wall_ms\":" << call.wall_ms << "}";
  }
  out << "]}";
  out << "}";
  return out.str();
}

std::string result_to_cache_json(const Result& result) {
  std::ostringstream out;
  out << "{";
  out << "\"solved\":" << (result.solved ? "true" : "false") << ",";
  out << "\"transition_based\":" << (result.transition_based ? "true" : "false")
      << ",";
  out << "\"depth\":" << result.depth << ",";
  out << "\"swap_count\":" << result.swap_count << ",";
  out << "\"gate_times\":";
  append_int_array(out, result.gate_time);
  out << ",\"mapping\":[";
  for (std::size_t t = 0; t < result.mapping.size(); ++t) {
    if (t) out << ",";
    append_int_array(out, result.mapping[t]);
  }
  out << "],\"swaps\":[";
  for (std::size_t i = 0; i < result.swaps.size(); ++i) {
    if (i) out << ",";
    out << "[" << result.swaps[i].edge << "," << result.swaps[i].end_time
        << "]";
  }
  out << "],\"pareto\":[";
  for (std::size_t i = 0; i < result.pareto.size(); ++i) {
    if (i) out << ",";
    out << "[" << result.pareto[i].first << "," << result.pareto[i].second
        << "]";
  }
  out << "],\"wall_ms\":" << result.wall_ms
      << ",\"sat_calls\":" << result.sat_calls
      << ",\"conflicts\":" << result.conflicts
      << ",\"hit_budget\":" << (result.hit_budget ? "true" : "false") << "}";
  return out.str();
}

Result result_from_cache_json(std::string_view json) {
  obs::JsonScanner scan(json, "result cache json");
  Result r;
  const auto int_array = [&](std::vector<int>& out) {
    scan.expect('[');
    if (scan.accept(']')) return;
    do {
      out.push_back(scan.int_value());
    } while (scan.accept(','));
    scan.expect(']');
  };
  scan.expect('{');
  if (!scan.accept('}')) {
    do {
      const std::string key = scan.string_value();
      scan.expect(':');
      if (key == "solved") {
        r.solved = scan.bool_value();
      } else if (key == "transition_based") {
        r.transition_based = scan.bool_value();
      } else if (key == "depth") {
        r.depth = scan.int_value();
      } else if (key == "swap_count") {
        r.swap_count = scan.int_value();
      } else if (key == "gate_times") {
        int_array(r.gate_time);
      } else if (key == "mapping") {
        scan.expect('[');
        if (!scan.accept(']')) {
          do {
            r.mapping.emplace_back();
            int_array(r.mapping.back());
          } while (scan.accept(','));
          scan.expect(']');
        }
      } else if (key == "swaps") {
        scan.expect('[');
        if (!scan.accept(']')) {
          do {
            scan.expect('[');
            SwapOp op;
            op.edge = scan.int_value();
            scan.expect(',');
            op.end_time = scan.int_value();
            scan.expect(']');
            r.swaps.push_back(op);
          } while (scan.accept(','));
          scan.expect(']');
        }
      } else if (key == "pareto") {
        scan.expect('[');
        if (!scan.accept(']')) {
          do {
            scan.expect('[');
            const int d = scan.int_value();
            scan.expect(',');
            const int s = scan.int_value();
            scan.expect(']');
            r.pareto.emplace_back(d, s);
          } while (scan.accept(','));
          scan.expect(']');
        }
      } else if (key == "wall_ms") {
        r.wall_ms = scan.double_value();
      } else if (key == "sat_calls") {
        r.sat_calls = scan.int_value();
      } else if (key == "conflicts") {
        r.conflicts = static_cast<std::uint64_t>(scan.double_value());
      } else if (key == "hit_budget") {
        r.hit_budget = scan.bool_value();
      } else {
        scan.skip_value();  // forward compatibility with newer writers
      }
    } while (scan.accept(','));
    scan.expect('}');
  }
  return r;
}

}  // namespace olsq2::layout
