#include "device/json.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/json_escape.h"
#include "obs/json_scanner.h"

namespace olsq2::device {

std::string device_to_json(const Device& device, int swap_duration) {
  std::ostringstream out;
  out << "{\"name\": \"" << obs::json_escape(device.name())
      << "\", \"qubits\": " << device.num_qubits()
      << ", \"swap_duration\": " << swap_duration << ", \"edges\": [";
  for (int e = 0; e < device.num_edges(); ++e) {
    if (e > 0) out << ", ";
    out << "[" << device.edge(e).p0 << "," << device.edge(e).p1 << "]";
  }
  out << "]}\n";
  return out.str();
}

DeviceSpec device_from_json(std::string_view json) {
  obs::JsonScanner scan(json, "device json");
  std::string name = "corpusdev";
  int qubits = -1;
  int swap_duration = 1;
  std::vector<Edge> edges;
  bool have_edges = false;

  scan.expect('{');
  if (!scan.accept('}')) {
    do {
      const std::string key = scan.string_value();
      scan.expect(':');
      if (key == "name") {
        name = scan.string_value();
      } else if (key == "qubits") {
        qubits = scan.int_value();
      } else if (key == "swap_duration") {
        swap_duration = scan.int_value();
      } else if (key == "edges") {
        scan.expect('[');
        have_edges = true;
        if (!scan.accept(']')) {
          do {
            scan.expect('[');
            const int p0 = scan.int_value();
            scan.expect(',');
            const int p1 = scan.int_value();
            scan.expect(']');
            edges.push_back({p0, p1});
          } while (scan.accept(','));
          scan.expect(']');
        }
      } else {
        scan.fail("unknown key '" + key + "'");
      }
    } while (scan.accept(','));
    scan.expect('}');
  }

  if (qubits < 1) scan.fail("missing or invalid \"qubits\"");
  if (qubits > kMaxDeviceQubits) {
    scan.fail("\"qubits\" exceeds " + std::to_string(kMaxDeviceQubits));
  }
  if (!have_edges) scan.fail("missing \"edges\"");
  if (swap_duration < 1) scan.fail("invalid \"swap_duration\"");
  for (const Edge& e : edges) {
    if (e.p0 < 0 || e.p0 >= qubits || e.p1 < 0 || e.p1 >= qubits ||
        e.p0 == e.p1) {
      scan.fail("edge endpoint out of range");
    }
  }
  std::vector<std::uint64_t> couplers;
  couplers.reserve(edges.size());
  for (const Edge& e : edges) {
    const auto [lo, hi] = std::minmax(e.p0, e.p1);
    couplers.push_back(static_cast<std::uint64_t>(lo) << 32 |
                       static_cast<std::uint32_t>(hi));
  }
  std::sort(couplers.begin(), couplers.end());
  if (const auto dup = std::adjacent_find(couplers.begin(), couplers.end());
      dup != couplers.end()) {
    scan.fail("duplicate coupler " + std::to_string(*dup >> 32) + "-" +
              std::to_string(*dup & 0xffffffffU));
  }
  return DeviceSpec{Device(name, qubits, std::move(edges)), swap_duration};
}

}  // namespace olsq2::device
