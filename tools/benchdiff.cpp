#include "tools/benchdiff.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "obs/json_scanner.h"

namespace olsq2::tools {

namespace {

void flatten_value(obs::JsonScanner& scan, const std::string& context,
                   const std::string& path, FlatDoc& doc) {
  const char c = scan.peek();
  if (c == '{') {
    scan.expect('{');
    if (!scan.accept('}')) {
      do {
        const std::string key = scan.string_value();
        scan.expect(':');
        flatten_value(scan, context, path.empty() ? key : path + "." + key,
                      doc);
      } while (scan.accept(','));
      scan.expect('}');
    }
    return;
  }
  if (c == '[') {
    scan.expect('[');
    std::size_t index = 0;
    if (!scan.accept(']')) {
      do {
        // Flatten the element stand-alone, then graft it under a tag: the
        // element's own "name" when it has one (robust to reordering),
        // its position otherwise.
        const std::string_view raw = scan.raw_value();
        FlatDoc sub;
        obs::JsonScanner element(raw, context);
        flatten_value(element, context, "", sub);
        const auto name = sub.strings.find("name");
        const std::string prefix =
            path + "[" +
            (name != sub.strings.end() ? name->second
                                       : std::to_string(index)) +
            "]";
        for (const auto& [k, v] : sub.numbers) {
          doc.numbers[k.empty() ? prefix : prefix + "." + k] = v;
        }
        for (const auto& [k, v] : sub.strings) {
          doc.strings[k.empty() ? prefix : prefix + "." + k] = v;
        }
        index++;
      } while (scan.accept(','));
      scan.expect(']');
    }
    return;
  }
  if (c == '"') {
    doc.strings[path] = scan.string_value();
    return;
  }
  if (c == 't' || c == 'f') {
    doc.numbers[path] = scan.bool_value() ? 1.0 : 0.0;
    return;
  }
  if (c == 'n') {
    scan.skip_value();  // null carries no comparable value
    return;
  }
  doc.numbers[path] = scan.double_value();
}

enum class KeyClass { kConfig, kCorrectness, kTiming, kRatio, kInfo };

KeyClass classify(const std::string& base) {
  static const std::set<std::string> config = {
      "schema_version", "bench",    "budget_ms",      "runs",
      "dups",           "requests", "duplicate_share"};
  static const std::set<std::string> correctness = {"solved", "depth",
                                                    "solves", "hits",
                                                    "one_key"};
  // swap_count is informational (unless certified_swap_count): when depth
  // is the objective, the SWAP count of the returned layout is a
  // by-product, not an optimum, and any search change may land on an
  // equally deep layout with other SWAPs.
  static const std::set<std::string> info = {"runs_ms", "peak_rss_bytes",
                                             "swap_count"};
  if (config.count(base)) return KeyClass::kConfig;
  if (correctness.count(base)) return KeyClass::kCorrectness;
  if (base == "speedup") return KeyClass::kRatio;
  if (info.count(base)) return KeyClass::kInfo;
  if (base.size() > 3 && base.compare(base.size() - 3, 3, "_ms") == 0) {
    return KeyClass::kTiming;
  }
  return KeyClass::kInfo;
}

/// The subarch and plan benches solve for the SWAP optimum, so the
/// swap_count of each of their solved rows is a certified optimum and a
/// changed one is a wrong answer.
bool certified_swap_count(const FlatDoc& doc, const std::string& path) {
  static const std::string kLeaf = "swap_count";
  if (leaf_name(path) != kLeaf) return false;
  const auto bench = doc.strings.find("bench");
  if (bench == doc.strings.end() ||
      (bench->second != "subarch" && bench->second != "plan")) {
    return false;
  }
  const auto solved = doc.numbers.find(
      path.substr(0, path.size() - kLeaf.size()) + "solved");
  return solved != doc.numbers.end() && solved->second == 1.0;
}

std::string fmt(double v) {
  char buf[40];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  }
  return buf;
}

}  // namespace

std::string leaf_name(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  std::string base = dot == std::string::npos ? path : path.substr(dot + 1);
  if (!base.empty() && base.back() == ']') {
    const std::size_t bracket = base.rfind('[');
    if (bracket != std::string::npos) base.resize(bracket);
  }
  return base;
}

FlatDoc flatten_json(std::string_view text, const std::string& context) {
  FlatDoc doc;
  obs::JsonScanner scan(text, context);
  flatten_value(scan, context, "", doc);
  return doc;
}

DiffReport diff_bench_json(std::string_view baseline, std::string_view current,
                           const DiffOptions& options) {
  DiffReport report;
  FlatDoc base, cur;
  try {
    base = flatten_json(baseline, "baseline json");
    cur = flatten_json(current, "current json");
  } catch (const std::exception& e) {
    report.status = DiffStatus::kError;
    report.mismatches.push_back(e.what());
    return report;
  }

  // budget_ms differs when the two runs were invoked with different
  // budgets: a timing comparison between them is meaningless, as are the
  // solved/hit counts that depend on it. Same for every other config key.
  for (const auto& [path, base_value] : base.numbers) {
    const KeyClass cls = certified_swap_count(base, path)
                             ? KeyClass::kCorrectness
                             : classify(leaf_name(path));
    const auto it = cur.numbers.find(path);
    if (it == cur.numbers.end()) {
      switch (cls) {
        case KeyClass::kConfig:
          report.mismatches.push_back(path + ": missing from current run");
          break;
        case KeyClass::kCorrectness:
        case KeyClass::kTiming:
        case KeyClass::kRatio:
          report.regressions.push_back(path +
                                       ": gated key missing from current run");
          break;
        case KeyClass::kInfo:
          report.notes.push_back(path + ": missing from current run");
          break;
      }
      continue;
    }
    const double cur_value = it->second;
    switch (cls) {
      case KeyClass::kConfig:
        if (cur_value != base_value) {
          report.mismatches.push_back(path + ": " + fmt(base_value) + " vs " +
                                      fmt(cur_value) +
                                      " (runs not comparable)");
        }
        break;
      case KeyClass::kCorrectness:
        if (cur_value != base_value) {
          report.regressions.push_back(path + ": " + fmt(base_value) +
                                       " -> " + fmt(cur_value));
        }
        break;
      case KeyClass::kTiming: {
        const bool above_floor =
            cur_value > options.min_ms && base_value > 0;
        if (above_floor &&
            cur_value > base_value * (1.0 + options.max_regress)) {
          report.regressions.push_back(
              path + ": " + fmt(base_value) + "ms -> " + fmt(cur_value) +
              "ms (+" +
              fmt(100.0 * (cur_value - base_value) / base_value) + "%)");
        } else if (base_value > options.min_ms &&
                   cur_value < base_value * (1.0 - options.max_regress)) {
          report.improvements.push_back(path + ": " + fmt(base_value) +
                                        "ms -> " + fmt(cur_value) + "ms");
        }
        break;
      }
      case KeyClass::kRatio:
        if (cur_value < base_value * (1.0 - options.max_ratio_drop)) {
          report.regressions.push_back(
              path + ": " + fmt(base_value) + "x -> " + fmt(cur_value) +
              "x (-" +
              fmt(100.0 * (base_value - cur_value) / base_value) + "%)");
        } else if (cur_value > base_value * (1.0 + options.max_ratio_drop)) {
          report.improvements.push_back(path + ": " + fmt(base_value) +
                                        "x -> " + fmt(cur_value) + "x");
        }
        break;
      case KeyClass::kInfo:
        break;
    }
  }

  // Strings are configuration (bench name, objective, device tags) except
  // the provenance pair that legitimately differs between any two runs.
  for (const auto& [path, base_value] : base.strings) {
    const std::string base_name = leaf_name(path);
    if (base_name == "git_sha" || base_name == "timestamp") continue;
    const auto it = cur.strings.find(path);
    if (it == cur.strings.end()) {
      report.mismatches.push_back(path + ": missing from current run");
    } else if (it->second != base_value) {
      report.mismatches.push_back(path + ": \"" + base_value + "\" vs \"" +
                                  it->second + "\" (runs not comparable)");
    }
  }

  for (const auto& [path, value] : cur.numbers) {
    if (!base.numbers.count(path)) {
      report.notes.push_back(path + ": new key (" + fmt(value) + ")");
    }
  }

  report.status = !report.mismatches.empty() ? DiffStatus::kError
                  : !report.regressions.empty()
                      ? DiffStatus::kRegression
                      : DiffStatus::kOk;
  return report;
}

}  // namespace olsq2::tools
