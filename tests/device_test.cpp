// Tests for coupling graphs: structural invariants of every preset device,
// the CSR/bit-row representation against the raw edge list, the distance
// table against an independent Floyd-Warshall oracle, plus schema checks for
// the device JSONs committed under benchmarks/.
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "device/distance.h"
#include "device/json.h"
#include "device/presets.h"

namespace olsq2::device {
namespace {

// Structural sanity shared by all devices.
void check_device(const Device& dev) {
  std::set<std::pair<int, int>> seen;
  for (const Edge& e : dev.edges()) {
    EXPECT_GE(e.p0, 0);
    EXPECT_LT(e.p0, dev.num_qubits());
    EXPECT_GE(e.p1, 0);
    EXPECT_LT(e.p1, dev.num_qubits());
    EXPECT_NE(e.p0, e.p1);
    auto key = std::minmax(e.p0, e.p1);
    EXPECT_TRUE(seen.insert({key.first, key.second}).second)
        << dev.name() << ": duplicate edge " << e.p0 << "-" << e.p1;
  }
  // Connectivity: every preset is one connected component.
  EXPECT_TRUE(connected(dev)) << dev.name();
  const DistanceTable dist(dev);
  for (int p = 0; p < dev.num_qubits(); ++p) {
    EXPECT_LT(dist.distance(0, p), dev.num_qubits())
        << dev.name() << ": qubit " << p << " unreachable";
  }
  // Distance symmetry and adjacency consistency.
  for (int i = 0; i < dev.num_qubits(); ++i) {
    for (int j = 0; j < dev.num_qubits(); ++j) {
      EXPECT_EQ(dist.distance(i, j), dist.distance(j, i));
      EXPECT_EQ(dist.distance(i, j) == 1, dev.adjacent(i, j));
    }
    EXPECT_EQ(dist.distance(i, i), 0);
  }
}

// CSR neighbours / incident edges and the adjacency bit rows, rebuilt from
// the raw edge list: per qubit, the edges touching it in edge order.
void check_csr(const Device& dev) {
  const int n = dev.num_qubits();
  std::vector<std::vector<int>> incident(n);
  std::vector<std::vector<int>> neighbors(n);
  std::set<std::pair<int, int>> pairs;
  for (int e = 0; e < dev.num_edges(); ++e) {
    const Edge& edge = dev.edge(e);
    incident[edge.p0].push_back(e);
    incident[edge.p1].push_back(e);
    neighbors[edge.p0].push_back(edge.p1);
    neighbors[edge.p1].push_back(edge.p0);
    pairs.insert({edge.p0, edge.p1});
    pairs.insert({edge.p1, edge.p0});
  }
  for (int p = 0; p < n; ++p) {
    const auto at = dev.edges_at(p);
    const auto nb = dev.neighbors(p);
    EXPECT_EQ(std::vector<int>(at.begin(), at.end()), incident[p])
        << dev.name() << " qubit " << p;
    EXPECT_EQ(std::vector<int>(nb.begin(), nb.end()), neighbors[p])
        << dev.name() << " qubit " << p;
    for (int q = 0; q < n; ++q) {
      EXPECT_EQ(dev.adjacent(p, q), pairs.count({p, q}) > 0)
          << dev.name() << " " << p << "-" << q;
    }
  }
}

// Independent all-pairs oracle: Floyd-Warshall on the raw edge list, with
// the table's sentinel (num_qubits) for unreachable pairs.
std::vector<std::vector<int>> floyd_warshall(const Device& dev) {
  const int n = dev.num_qubits();
  std::vector<std::vector<int>> d(n, std::vector<int>(n, n));
  for (int i = 0; i < n; ++i) d[i][i] = 0;
  for (const Edge& e : dev.edges()) {
    d[e.p0][e.p1] = std::min(d[e.p0][e.p1], 1);
    d[e.p1][e.p0] = std::min(d[e.p1][e.p0], 1);
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  for (auto& row : d) {
    for (int& x : row) x = std::min(x, n);
  }
  return d;
}

void check_distances(const Device& dev) {
  const std::vector<std::vector<int>> want = floyd_warshall(dev);
  const DistanceTable dist(dev);
  const int n = dev.num_qubits();
  ASSERT_EQ(dist.num_qubits(), n);
  int diameter = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(dist.distance(i, j), want[i][j])
          << dev.name() << " " << i << "->" << j;
      if (want[i][j] < n) diameter = std::max(diameter, want[i][j]);
    }
  }
  EXPECT_EQ(dist.diameter(), diameter) << dev.name();
}

TEST(Grid, TwoByThree) {
  const Device dev = grid(2, 3);
  EXPECT_EQ(dev.num_qubits(), 6);
  EXPECT_EQ(dev.num_edges(), 7);  // 2*2 horizontal + 3 vertical
  check_device(dev);
  EXPECT_TRUE(dev.adjacent(0, 1));
  EXPECT_TRUE(dev.adjacent(0, 3));
  EXPECT_FALSE(dev.adjacent(0, 4));
  const DistanceTable dist(dev);
  EXPECT_EQ(dist.distance(0, 5), 3);
  EXPECT_EQ(dist.diameter(), 3);
}

TEST(Grid, EdgeCountFormula) {
  for (int r = 1; r <= 5; ++r) {
    for (int c = 1; c <= 5; ++c) {
      const Device dev = grid(r, c);
      EXPECT_EQ(dev.num_edges(), r * (c - 1) + c * (r - 1));
      check_device(dev);
    }
  }
}

TEST(Qx2, MatchesPaperFigure3) {
  const Device dev = ibm_qx2();
  EXPECT_EQ(dev.num_qubits(), 5);
  EXPECT_EQ(dev.num_edges(), 6);
  check_device(dev);
  // The triangle p0-p1-p2 and the triangle p2-p3-p4.
  EXPECT_TRUE(dev.adjacent(0, 1));
  EXPECT_TRUE(dev.adjacent(1, 2));
  EXPECT_TRUE(dev.adjacent(0, 2));
  EXPECT_TRUE(dev.adjacent(2, 3));
  EXPECT_TRUE(dev.adjacent(2, 4));
  EXPECT_TRUE(dev.adjacent(3, 4));
  EXPECT_FALSE(dev.adjacent(0, 3));
}

TEST(Aspen4, TwoOctagonsWithBridges) {
  const Device dev = rigetti_aspen4();
  EXPECT_EQ(dev.num_qubits(), 16);
  EXPECT_EQ(dev.num_edges(), 18);  // 2 rings of 8 + 2 bridges
  check_device(dev);
  for (int p = 0; p < 16; ++p) {
    EXPECT_LE(dev.neighbors(p).size(), 3u);
    EXPECT_GE(dev.neighbors(p).size(), 2u);
  }
}

TEST(Sycamore54, DiagonalGridShape) {
  const Device dev = google_sycamore54();
  EXPECT_EQ(dev.num_qubits(), 54);
  check_device(dev);
  int max_degree = 0;
  for (int p = 0; p < dev.num_qubits(); ++p) {
    max_degree = std::max(max_degree, static_cast<int>(dev.neighbors(p).size()));
  }
  EXPECT_LE(max_degree, 4);  // Sycamore couples each qubit to at most 4
}

TEST(Eagle127, HeavyHexShape) {
  const Device dev = ibm_eagle127();
  EXPECT_EQ(dev.num_qubits(), 127);
  check_device(dev);
  // Heavy-hex: degree <= 3 everywhere; bridge qubits have degree exactly 2.
  for (int p = 0; p < dev.num_qubits(); ++p) {
    EXPECT_LE(dev.neighbors(p).size(), 3u) << "qubit " << p;
    EXPECT_GE(dev.neighbors(p).size(), 1u) << "qubit " << p;
  }
  // 127-qubit heavy-hex has 144 couplers (ibm_washington).
  EXPECT_EQ(dev.num_edges(), 144);
}

TEST(HeavyHex, GenericGeneratorShape) {
  for (const auto& [rows, cols] : {std::pair{3, 5}, {4, 9}, {7, 15}}) {
    const Device dev = heavy_hex(rows, cols);
    check_device(dev);
    for (int p = 0; p < dev.num_qubits(); ++p) {
      EXPECT_LE(dev.neighbors(p).size(), 3u)
          << dev.name() << " qubit " << p;
    }
  }
}

TEST(Guadalupe, PublishedShape) {
  const Device dev = ibm_guadalupe16();
  EXPECT_EQ(dev.num_qubits(), 16);
  EXPECT_EQ(dev.num_edges(), 16);
  check_device(dev);
  for (int p = 0; p < 16; ++p) {
    EXPECT_LE(dev.neighbors(p).size(), 3u);
  }
}

TEST(Tokyo, PublishedShape) {
  const Device dev = ibm_tokyo20();
  EXPECT_EQ(dev.num_qubits(), 20);
  EXPECT_EQ(dev.num_edges(), 43);
  check_device(dev);
  // Denser than a plain 4x5 grid (31 edges).
  EXPECT_GT(dev.num_edges(), 31);
  EXPECT_LE(DistanceTable(dev).diameter(), 5);
}

TEST(Device, EdgesAtIsConsistent) {
  const Device dev = ibm_qx2();
  for (int p = 0; p < dev.num_qubits(); ++p) {
    for (const int e : dev.edges_at(p)) {
      EXPECT_TRUE(dev.edge(e).touches(p));
    }
    EXPECT_EQ(dev.edges_at(p).size(), dev.neighbors(p).size());
  }
}

// --- Committed device JSONs (benchmarks/*.device.json) -------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The two large-device JSONs feeding the subarchitecture benchmarks must
// parse under the strict schema, match their preset generators edge-for-edge
// (same canonical edge set, same qubit count), and survive a serialization
// round-trip.
void check_json_matches_preset(const std::string& file, const Device& preset) {
  const std::string path = std::string(OLSQ2_BENCHMARK_DIR) + "/" + file;
  const DeviceSpec spec = device_from_json(slurp(path));
  check_device(spec.device);
  EXPECT_GT(spec.swap_duration, 0) << file;
  EXPECT_EQ(spec.device.num_qubits(), preset.num_qubits()) << file;
  std::set<std::pair<int, int>> want;
  for (const Edge& e : preset.edges()) {
    want.insert(std::minmax(e.p0, e.p1));
  }
  std::set<std::pair<int, int>> got;
  for (const Edge& e : spec.device.edges()) {
    got.insert(std::minmax(e.p0, e.p1));
  }
  EXPECT_EQ(got, want) << file << ": edge set diverged from the preset";
  const DeviceSpec again =
      device_from_json(device_to_json(spec.device, spec.swap_duration));
  EXPECT_EQ(again.device.num_qubits(), spec.device.num_qubits());
  EXPECT_EQ(again.device.num_edges(), spec.device.num_edges());
  EXPECT_EQ(again.swap_duration, spec.swap_duration);
}

TEST(DeviceJson, HeavyHex127MatchesEagle) {
  check_json_matches_preset("heavyhex127.device.json", ibm_eagle127());
}

TEST(DeviceJson, Grid8x8MatchesPreset) {
  check_json_matches_preset("grid8x8.device.json", grid(8, 8));
}

TEST(DeviceJson, RoundTripKeepsControlCharactersInTheName) {
  // json_escape writes these as \u00XX escapes; the reader must decode them.
  const std::string name = "a\x01" "b\x1f";
  const Device dev(name, 3, {{0, 1}, {1, 2}});
  const DeviceSpec again = device_from_json(device_to_json(dev, 2));
  EXPECT_EQ(again.device.name(), name);
  EXPECT_EQ(again.device.num_edges(), 2);
  EXPECT_EQ(again.swap_duration, 2);
}

// Every preset family, the two committed device JSONs and a device with
// a repeated coupler (the constructor keeps repeats; the JSON reader
// rejects them).
std::vector<Device> representation_cases() {
  std::vector<Device> devices = {
      grid(1, 1),          grid(2, 3),         grid(8, 8),
      ibm_qx2(),           rigetti_aspen4(),   google_sycamore54(),
      ibm_eagle127(),      heavy_hex(3, 5),    heavy_hex(7, 15),
      ibm_guadalupe16(),   ibm_tokyo20(),
      Device("repeated", 3, {{0, 1}, {1, 2}, {1, 0}}),
  };
  for (const char* file : {"heavyhex127.device.json", "grid8x8.device.json"}) {
    devices.push_back(
        device_from_json(slurp(std::string(OLSQ2_BENCHMARK_DIR) + "/" + file))
            .device);
  }
  return devices;
}

TEST(Device, CsrAndBitRowsMatchTheEdgeList) {
  for (const Device& dev : representation_cases()) check_csr(dev);
}

TEST(DistanceTable, MatchesFloydWarshall) {
  for (const Device& dev : representation_cases()) check_distances(dev);
}

TEST(DistanceTable, DisconnectedDeviceUsesTheSentinel) {
  // Path 0-1-2-3, edge 4-5, isolated qubit 6.
  const Device dev("split", 7, {{0, 1}, {1, 2}, {2, 3}, {4, 5}});
  check_csr(dev);
  check_distances(dev);
  const DistanceTable dist(dev);
  EXPECT_EQ(dist.distance(0, 3), 3);
  EXPECT_EQ(dist.distance(0, 4), 7);
  EXPECT_EQ(dist.distance(5, 6), 7);
  EXPECT_EQ(dist.distance(6, 6), 0);
  EXPECT_EQ(dist.diameter(), 3);  // the connected part only
  EXPECT_FALSE(connected(dev));
  EXPECT_TRUE(connected(Device("lone", 1, {})));
  EXPECT_EQ(DistanceTable(Device("edgeless", 4, {})).diameter(), 0);
}

TEST(DeviceJson, RejectsQubitCountAboveTheCap) {
  const auto doc = [](int qubits) {
    return "{\"qubits\": " + std::to_string(qubits) +
           ", \"edges\": [[0,1]]}";
  };
  EXPECT_EQ(device_from_json(doc(kMaxDeviceQubits)).device.num_qubits(),
            kMaxDeviceQubits);
  EXPECT_THROW(device_from_json(doc(kMaxDeviceQubits + 1)),
               std::runtime_error);
  EXPECT_THROW(device_from_json(doc(20000)), std::runtime_error);
  EXPECT_THROW(device_from_json(doc(100000)), std::runtime_error);
}

TEST(DeviceJson, RejectsDuplicateCouplers) {
  const auto doc = [](const std::string& edges) {
    return "{\"qubits\": 3, \"edges\": " + edges + "}";
  };
  EXPECT_EQ(device_from_json(doc("[[0,1],[1,2],[2,0]]")).device.num_edges(),
            3);
  EXPECT_THROW(device_from_json(doc("[[0,1],[0,1],[1,0]]")),
               std::runtime_error);
  EXPECT_THROW(device_from_json(doc("[[0,1],[1,2],[1,0]]")),
               std::runtime_error);
  EXPECT_THROW(device_from_json(doc("[[2,1],[0,2],[1,2]]")),
               std::runtime_error);
}

TEST(PresetByName, ResolvesAllSpecs) {
  EXPECT_EQ(preset_by_name("grid:2x3").num_qubits(), 6);
  EXPECT_EQ(preset_by_name("heavyhex:3x5").num_qubits(),
            heavy_hex(3, 5).num_qubits());
  EXPECT_EQ(preset_by_name("eagle127").num_qubits(), 127);
  EXPECT_EQ(preset_by_name("sycamore54").num_qubits(), 54);
  EXPECT_EQ(preset_by_name("guadalupe16").num_qubits(), 16);
  EXPECT_EQ(preset_by_name("tokyo20").num_qubits(), 20);
  EXPECT_EQ(preset_by_name("ibm_qx2").num_qubits(), 5);
  EXPECT_EQ(preset_by_name("rigetti_aspen4").num_qubits(), 16);
  EXPECT_THROW(preset_by_name("nonsuch"), std::runtime_error);
  EXPECT_THROW(preset_by_name("grid:banana"), std::runtime_error);
}

TEST(Edge, OtherEndpoint) {
  const Edge e{3, 7};
  EXPECT_EQ(e.other(3), 7);
  EXPECT_EQ(e.other(7), 3);
  EXPECT_TRUE(e.touches(3));
  EXPECT_FALSE(e.touches(5));
}

}  // namespace
}  // namespace olsq2::device
