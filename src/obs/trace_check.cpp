#include "obs/trace_check.h"

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/json_scanner.h"

namespace olsq2::obs {

namespace {

// One member of an event object, typed as far as the schema cares.
struct Field {
  enum class Type { kString, kNumber, kOther };
  Type type = Type::kOther;
  std::string text;
  double number = 0;
};

Field read_field(JsonScanner& in) {
  Field field;
  const char c = in.peek();
  if (c == '"') {
    field.type = Field::Type::kString;
    field.text = in.string_value();
  } else if (c == '-' || (c >= '0' && c <= '9')) {
    field.type = Field::Type::kNumber;
    field.number = in.double_value();
  } else {
    in.skip_value();
  }
  return field;
}

// An event object's members; the first of duplicate keys wins.
using Event = std::map<std::string, Field, std::less<>>;

Event read_event(JsonScanner& in) {
  Event event;
  in.expect('{');
  if (in.accept('}')) return event;
  do {
    std::string key = in.string_value();
    in.expect(':');
    event.emplace(std::move(key), read_field(in));
  } while (in.accept(','));
  in.expect('}');
  return event;
}

const Field* find(const Event& event, std::string_view key,
                  Field::Type type) {
  const auto it = event.find(key);
  return it != event.end() && it->second.type == type ? &it->second : nullptr;
}

// The schema error of one event, or "" when it conforms.
std::string check_event(const Event& e, CheckResult& result) {
  const Field* name = find(e, "name", Field::Type::kString);
  const Field* ph = find(e, "ph", Field::Type::kString);
  if (name == nullptr || ph == nullptr) return "event missing string name/ph";
  result.total_events++;
  if (ph->text == "X") {
    const Field* dur = find(e, "dur", Field::Type::kNumber);
    if (find(e, "ts", Field::Type::kNumber) == nullptr || dur == nullptr) {
      return "span event '" + name->text + "' missing ts/dur";
    }
    if (dur->number < 0) {
      return "span event '" + name->text + "' has negative dur";
    }
    result.span_events++;
  } else if (ph->text == "C") {
    // Counter samples must be attributable to a thread: Chrome keys
    // counter tracks by (pid, name, id), so the exporter sets "id" to
    // the thread id (and "tid" for consistency with other events).
    if (find(e, "tid", Field::Type::kNumber) == nullptr) {
      return "counter event '" + name->text + "' missing numeric tid";
    }
    if (find(e, "id", Field::Type::kString) == nullptr) {
      return "counter event '" + name->text + "' missing string id";
    }
    result.counter_events++;
  }
  return "";
}

// The schema walk over a document already known to be well-formed; returns
// the first schema error, or "".
std::string check_trace_events(std::string_view text, CheckResult& result) {
  JsonScanner in(text, "chrome trace");
  if (in.peek() != '{') return "root is not an object";
  in.expect('{');
  if (in.accept('}')) return "missing traceEvents array";
  do {
    const std::string key = in.string_value();
    in.expect(':');
    if (key != "traceEvents") {
      in.skip_value();
      continue;
    }
    if (in.peek() != '[') return "missing traceEvents array";
    in.expect('[');
    if (in.accept(']')) return "";
    do {
      if (in.peek() != '{') return "traceEvents entry is not an object";
      std::string error = check_event(read_event(in), result);
      if (!error.empty()) return error;
    } while (in.accept(','));
    return "";
  } while (in.accept(','));
  return "missing traceEvents array";
}

}  // namespace

CheckResult check_json(std::string_view text) {
  CheckResult result;
  try {
    JsonScanner in(text, "json");
    in.skip_value();
    if (!in.at_end()) in.fail("trailing characters");
    result.ok = true;
  } catch (const std::runtime_error& e) {
    result.error = e.what();
  }
  return result;
}

CheckResult validate_chrome_trace(std::string_view text) {
  CheckResult result = check_json(text);
  if (!result.ok) return result;
  result.error = check_trace_events(text, result);
  result.ok = result.error.empty();
  return result;
}

}  // namespace olsq2::obs
