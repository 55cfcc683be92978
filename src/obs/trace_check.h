// Minimal JSON well-formedness checker + Chrome trace_event validator.
//
// The repo emits JSON in two places (result serialization, trace export)
// without an external JSON library; this is the matching read side, used by
// tests and the `trace_validate` tool to prove the emitters' output parses
// back. Both checks are walks over obs::JsonScanner - no DOM is built.
#pragma once

#include <string>
#include <string_view>

namespace olsq2::obs {

struct CheckResult {
  bool ok = false;
  std::string error;  // empty when ok
  // Chrome-trace specifics (filled by validate_chrome_trace).
  int span_events = 0;     // ph == "X"
  int counter_events = 0;  // ph == "C"
  int total_events = 0;
};

/// Parse `text` as a single JSON value in obs::JsonScanner's RFC 8259
/// grammar. Trailing whitespace allowed; anything else fails.
CheckResult check_json(std::string_view text);

/// check_json + Chrome trace schema: the root must be an object with a
/// "traceEvents" array whose entries are objects carrying string "name" and
/// "ph"; "X" events must also carry numeric "ts" and "dur" >= 0.
CheckResult validate_chrome_trace(std::string_view text);

}  // namespace olsq2::obs
