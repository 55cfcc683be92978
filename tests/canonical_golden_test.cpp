// Golden canonical forms: pins the exact output of serve::canonicalize_device
// and serve::canonicalize_circuit - the key, the permutation witnesses and
// the `exact` flag - on a fixed set of inputs. Cache files on disk, subarch
// library keys and cover class order all embed these bytes, so any change to
// the labeling search (tree order, rank order, leaf budget, serialization)
// must show up here, even when it keeps the form relabeling-invariant.
//
// Each row is an FNV-1a digest of "key|perm...|exact". On a mismatch the
// test prints the whole actual table in the kPins format below; only paste
// it back after deciding that the canonical form is meant to change (which
// also invalidates every persisted cache entry).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bengen/graphgen.h"
#include "bengen/rng.h"
#include "bengen/workloads.h"
#include "device/json.h"
#include "device/presets.h"
#include "fuzz/generator.h"
#include "fuzz/metamorphic.h"
#include "qasm/parser.h"
#include "serve/cache.h"
#include "serve/canonical.h"
#include "subarch/extract.h"

#ifndef OLSQ2_BENCHMARK_DIR
#error "OLSQ2_BENCHMARK_DIR must be defined by the build"
#endif

namespace olsq2::serve {
namespace {

struct Pin {
  const char* name;
  const char* digest;
};

// clang-format off
constexpr Pin kPins[] = {
    {"device/eagle127", "b2851e71a191529f"},
    {"device/eagle127/relabel0", "0bf069fa662b9771"},
    {"device/eagle127/relabel1", "bd6afbebdcf774f5"},
    {"device/eagle127/relabel2", "e00e9e1a6295c58d"},
    {"device/eagle127/relabel3", "cab2debb0afd0ad9"},
    {"device/eagle127/relabel4", "b25356e6d1c934ff"},
    {"device/heavyhex127.json", "b2851e71a191529f"},
    {"device/heavyhex127.json/relabel0", "de777050938ab5e7"},
    {"device/heavyhex127.json/relabel1", "96ee05af950a5f25"},
    {"device/heavyhex127.json/relabel2", "f6879a2fc36b3bf7"},
    {"device/heavyhex127.json/relabel3", "569c74afb10d20fd"},
    {"device/heavyhex127.json/relabel4", "a4362bca7a2acce5"},
    {"device/sycamore54", "ecdb18d6ec4c9866"},
    {"device/sycamore54/relabel0", "b266bc6de51cda10"},
    {"device/sycamore54/relabel1", "21e7b9784c01a96e"},
    {"device/sycamore54/relabel2", "9677651c7c24fc02"},
    {"device/sycamore54/relabel3", "db7eb468004dbd82"},
    {"device/sycamore54/relabel4", "bdb4099a2e9d72b4"},
    {"device/grid:8x8", "cf7233903b43f6c4"},
    {"device/grid:8x8/relabel0", "734c2f1ac76f8e1e"},
    {"device/grid:8x8/relabel1", "2b1f55a6b2fd6b34"},
    {"device/grid:8x8/relabel2", "665791e028240b0a"},
    {"device/grid:8x8/relabel3", "150e1a44d8582504"},
    {"device/grid:8x8/relabel4", "60a517fde9b88402"},
    {"device/rigetti_aspen4", "501b73f2b9b3becf"},
    {"device/rigetti_aspen4/relabel0", "d678cf4fd809ba4b"},
    {"device/rigetti_aspen4/relabel1", "2ac8207678dbbe29"},
    {"device/rigetti_aspen4/relabel2", "529fe28cc91ed64f"},
    {"device/rigetti_aspen4/relabel3", "34f31719b3fd6127"},
    {"device/rigetti_aspen4/relabel4", "47d1de362c7369ff"},
    {"device/grid:3x3", "1c98275c68ed000b"},
    {"device/grid:3x3/relabel0", "7cd0e010c67e936b"},
    {"device/grid:3x3/relabel1", "5d9e1912b6496923"},
    {"device/grid:3x3/relabel2", "f4a922d66c123123"},
    {"device/grid:3x3/relabel3", "f895c9d812654a3b"},
    {"device/grid:3x3/relabel4", "40d38821a4732393"},
    {"device/path127", "18964cead8d926f9"},
    {"device/path127/relabel0", "788a922e8b9ad3bb"},
    {"device/path127/relabel1", "e58094fe8543db35"},
    {"device/path127/relabel2", "ce68aa312736b82d"},
    {"device/path127/relabel3", "bc73a28cae79425d"},
    {"device/path127/relabel4", "68f78fba0aeb6899"},
    {"device/cycle127", "083ca6b833695c45"},
    {"device/cycle127/relabel0", "d86b632092fe4689"},
    {"device/cycle127/relabel1", "aa8c019faa5000ed"},
    {"device/cycle127/relabel2", "7f37851ca160b947"},
    {"device/cycle127/relabel3", "6aba242694220f39"},
    {"device/cycle127/relabel4", "44c09df8fd35756d"},
    {"device/tree12", "2375d7158356cf7d"},
    {"device/tree12/relabel0", "41b157d459781f3f"},
    {"device/tree12/relabel1", "cf8716ad05db6397"},
    {"device/tree12/relabel2", "4df0f41f5058df27"},
    {"device/sparse12", "912076af1188cb2b"},
    {"device/sparse12/relabel0", "da71ff0df8dfc0bd"},
    {"device/sparse12/relabel1", "e3d448c740ee93bb"},
    {"device/sparse12/relabel2", "b45ca7c5391a649d"},
    {"device/tree24", "ce2e1b19b0f16336"},
    {"device/tree24/relabel0", "2717f07fb9829636"},
    {"device/tree24/relabel1", "a37c378c280e8dde"},
    {"device/tree24/relabel2", "9f3a0052243f02b6"},
    {"device/sparse24", "0ab97d2d2edf285e"},
    {"device/sparse24/relabel0", "7e108b711ba7ecf4"},
    {"device/sparse24/relabel1", "1596f04db0d02fe6"},
    {"device/sparse24/relabel2", "68a827fdc487574a"},
    {"device/tree40", "d8cafa18e3417a4c"},
    {"device/tree40/relabel0", "2b7c491e152f81ac"},
    {"device/tree40/relabel1", "666fb5b7f0011ba2"},
    {"device/tree40/relabel2", "4d7b2b7dc4fe10ec"},
    {"device/sparse40", "9cb5e9b803ebf711"},
    {"device/sparse40/relabel0", "6b9c4a3a92aeeb55"},
    {"device/sparse40/relabel1", "b4c000dec9447a27"},
    {"device/sparse40/relabel2", "611a4d0ee0d4d3dd"},
    {"device/tree64", "4529e27a8b15a753"},
    {"device/tree64/relabel0", "0606644a1c2927c1"},
    {"device/tree64/relabel1", "f3f9ec5a87fa9879"},
    {"device/tree64/relabel2", "63ddc53981523ac7"},
    {"device/sparse64", "a531440a17428bd7"},
    {"device/sparse64/relabel0", "9430218905725d91"},
    {"device/sparse64/relabel1", "bb4800b3a6676541"},
    {"device/sparse64/relabel2", "46c7f2cc7389907d"},
    {"cover/eagle127/m5", "8f3899b911c5951b"},
    {"cover/eagle127/m6", "7c5356bbdeef7240"},
    {"cover/eagle127/m7", "d06a7f17c7e17af7"},
    {"cover/eagle127/m8", "a1a9db297756fea4"},
    {"cover/eagle127/m9", "f3a560e28aa049b8"},
    {"cover/grid:8x8/m8", "509e70c26a3a07c4"},
    {"cover/sycamore54/m8", "44d7d8522406cac7"},
    {"budget/device/edgeless7", "a6384ec696ce5f05"},
    {"budget/circuit/h8", "65f418bbff8cad05"},
    {"circuit/bv5", "450d8e91346d4dd2"},
    {"circuit/bv5/variant0", "3a124adef5d7e39a"},
    {"circuit/bv5/variant1", "91a907de3f459f80"},
    {"circuit/bv5/variant2", "9ad0bf26ba4a8572"},
    {"circuit/bv5/variant3", "a65d974150a41c6c"},
    {"circuit/bv5/variant4", "6522db27a07026ca"},
    {"circuit/ghz5", "fbcb3ca6de9f3738"},
    {"circuit/ghz5/variant0", "d333dad915b63e10"},
    {"circuit/ghz5/variant1", "5cdb9807a096adc0"},
    {"circuit/ghz5/variant2", "518c1078c9e52010"},
    {"circuit/ghz5/variant3", "010aafe31a363f68"},
    {"circuit/ghz5/variant4", "b6d4afa8dda45df8"},
    {"circuit/qaoa_triangle", "2a366059ec7213cb"},
    {"circuit/qaoa_triangle/variant0", "2a366059ec7213cb"},
    {"circuit/qaoa_triangle/variant1", "bae3a4aeecd8d763"},
    {"circuit/qaoa_triangle/variant2", "3692dc2f5dbde7c3"},
    {"circuit/qaoa_triangle/variant3", "6f46898b83de265b"},
    {"circuit/qaoa_triangle/variant4", "6f46898b83de265b"},
    {"circuit/toffoli_qx2", "5bc48f7987f065d4"},
    {"circuit/toffoli_qx2/variant0", "5bc48f7987f065d4"},
    {"circuit/toffoli_qx2/variant1", "6747eebc4c1d8c7c"},
    {"circuit/toffoli_qx2/variant2", "b75207e898e54284"},
    {"circuit/toffoli_qx2/variant3", "abc297d4e5b8164a"},
    {"circuit/toffoli_qx2/variant4", "2b6abf5d2a2793a4"},
    {"circuit/qft:8", "5d9e91181551eb67"},
    {"circuit/qft:8/variant0", "9b0fa096e90846af"},
    {"circuit/qft:8/variant1", "bd3818f9f25456e5"},
    {"circuit/qft:8/variant2", "de48bcddb28242df"},
    {"circuit/qft:8/variant3", "b29474607f29921d"},
    {"circuit/qft:8/variant4", "bfaa566d6ad3cfcf"},
    {"circuit/cuccaro:2", "dbec2d31caff2815"},
    {"circuit/cuccaro:2/variant0", "03c7bd9085ac1a6d"},
    {"circuit/cuccaro:2/variant1", "254515ae59e86b27"},
    {"circuit/cuccaro:2/variant2", "329a8111f2a4fa9d"},
    {"circuit/cuccaro:2/variant3", "6701e3f28194d235"},
    {"circuit/cuccaro:2/variant4", "060ec636dbf70375"},
    {"circuit/qaoa:16", "e9412523e8eab7ab"},
    {"circuit/qaoa:16/variant0", "c8121917499655db"},
    {"circuit/qaoa:16/variant1", "d5a5fab288f5a275"},
    {"circuit/qaoa:16/variant2", "231b268aaf077467"},
    {"circuit/qaoa:16/variant3", "3d62660f742bd5dd"},
    {"circuit/qaoa:16/variant4", "bf89ba09426b11d7"},
    {"circuit/brickwork:16", "378c74560c27661b"},
    {"circuit/brickwork:16/variant0", "cbb83cf96b4bb405"},
    {"circuit/brickwork:16/variant1", "b4ef7899ae80693d"},
    {"circuit/brickwork:16/variant2", "47bc54f70ed78965"},
    {"circuit/brickwork:16/variant3", "3d36697c0a471dc7"},
    {"circuit/brickwork:16/variant4", "420570434bb0961f"},
};
// clang-format on

constexpr int kRelabelings = 5;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void append_ints(std::string& out, const std::vector<int>& values) {
  out += '|';
  for (const int v : values) {
    out += std::to_string(v);
    out += ',';
  }
}

std::string hex_digest(const std::string& record) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(record)));
  return buf;
}

std::string device_record(const DeviceCanon& canon) {
  std::string record = canon.key;
  append_ints(record, canon.perm);
  record += canon.exact ? "|1" : "|0";
  return record;
}

std::string circuit_record(const CircuitCanon& canon) {
  std::string record = canon.key;
  append_ints(record, canon.qubit_perm);
  append_ints(record, canon.gate_perm);
  record += canon.exact ? "|1" : "|0";
  return record;
}

/// (name, digest) rows in computation order.
using Table = std::vector<std::pair<std::string, std::string>>;

void add_row(Table& table, const std::string& name,
             const std::string& record) {
  table.emplace_back(name, hex_digest(record));
}

/// The base device plus `relabelings` seeded relabelings. Exact forms must
/// agree on the key across relabelings (the invariance half of the
/// contract); the rows pin the bytes.
void pin_device(Table& table, const std::string& name, device::Device dev,
                int relabelings = kRelabelings) {
  const fuzz::Instance base{circuit::Circuit(1, "empty"), std::move(dev), 1};
  const DeviceCanon base_canon = canonicalize_device(base.device);
  EXPECT_TRUE(base_canon.exact) << name;
  add_row(table, "device/" + name, device_record(base_canon));
  bengen::Rng rng(fnv1a64(name));
  for (int i = 0; i < relabelings; ++i) {
    const fuzz::Instance variant = fuzz::relabel_physical_qubits(base, rng);
    const DeviceCanon canon = canonicalize_device(variant.device);
    EXPECT_EQ(canon.key, base_canon.key) << name << " relabeling " << i;
    add_row(table, "device/" + name + "/relabel" + std::to_string(i),
            device_record(canon));
  }
}

/// One row per cover: all its classes in cover order, each with its
/// canonical form, its representative's embedding and its member count.
void pin_cover(Table& table, const std::string& name,
               const device::Device& dev, int m) {
  const auto cover = subarch::enumerate_cover(dev, m);
  EXPECT_TRUE(cover->complete) << name << " m=" << m;
  std::string record = std::to_string(cover->classes.size());
  for (const subarch::CoverClass& cls : cover->classes) {
    record += '#';
    record += device_record(cls.canon);
    append_ints(record, cls.rep.to_full);
    record += '|' + std::to_string(cls.members);
    // The class form is the representative's own canonical form.
    EXPECT_EQ(device_record(canonicalize_device(cls.rep.device)),
              device_record(cls.canon))
        << name << " m=" << m;
  }
  add_row(table, "cover/" + name + "/m" + std::to_string(m), record);
}

/// The base circuit plus kRelabelings seeded program-qubit relabelings,
/// every other one followed by a commuting reorder.
void pin_circuit(Table& table, const std::string& name,
                 circuit::Circuit circ) {
  const int nq = circ.num_qubits();
  const fuzz::Instance base{std::move(circ), device::grid(1, nq), 1};
  const CircuitCanon base_canon = canonicalize_circuit(base.circuit);
  EXPECT_TRUE(base_canon.exact) << name;
  add_row(table, "circuit/" + name, circuit_record(base_canon));
  bengen::Rng rng(fnv1a64(name));
  for (int i = 0; i < kRelabelings; ++i) {
    fuzz::Instance variant = fuzz::relabel_program_qubits(base, rng);
    if (i % 2 == 1) variant = fuzz::commuting_reorder(variant, rng);
    const CircuitCanon canon = canonicalize_circuit(variant.circuit);
    EXPECT_EQ(canon.key, base_canon.key) << name << " variant " << i;
    add_row(table, "circuit/" + name + "/variant" + std::to_string(i),
            circuit_record(canon));
  }
}

device::Device device_from_pairs(
    const std::string& name, int n,
    const std::vector<std::pair<int, int>>& pairs) {
  std::vector<device::Edge> edges;
  for (const auto& [a, b] : pairs) edges.push_back({a, b});
  return device::Device(name, n, std::move(edges));
}

Table compute_table() {
  Table table;
  const std::string dir = OLSQ2_BENCHMARK_DIR;

  pin_device(table, "eagle127", device::ibm_eagle127());
  pin_device(table, "heavyhex127.json",
             device::device_from_json(
                 read_file(dir + "/heavyhex127.device.json"))
                 .device);
  pin_device(table, "sycamore54", device::google_sycamore54());
  pin_device(table, "grid:8x8", device::grid(8, 8));
  pin_device(table, "rigetti_aspen4", device::rigetti_aspen4());
  pin_device(table, "grid:3x3", device::grid(3, 3));

  // Long refinement chains: on a path or a cycle, color information
  // travels one edge per Weisfeiler-Leman round, so refinement takes
  // O(n) rounds; the cycle also needs one individualization per branch.
  {
    std::vector<std::pair<int, int>> path;
    for (int v = 0; v + 1 < 127; ++v) path.emplace_back(v, v + 1);
    pin_device(table, "path127", device_from_pairs("path127", 127, path));
    path.emplace_back(126, 0);
    pin_device(table, "cycle127", device_from_pairs("cycle127", 127, path));
  }
  // Seeded random trees and sparse connected graphs (a spanning tree plus
  // n/4 extra edges). Their leaves and twins exercise many small splits.
  for (const int n : {12, 24, 40, 64}) {
    const std::string tree = "tree" + std::to_string(n);
    bengen::Rng rng(fnv1a64(tree));
    pin_device(table, tree,
               device_from_pairs(tree, n,
                                 bengen::random_connected_graph(n, 0, rng)),
               3);
    const std::string sparse = "sparse" + std::to_string(n);
    bengen::Rng sparse_rng(fnv1a64(sparse));
    pin_device(table, sparse,
               device_from_pairs(
                   sparse, n,
                   bengen::random_connected_graph(n, n / 4, sparse_rng)),
               3);
  }

  // Every class representative of the eagle127 covers (the subarch
  // ladder's library keys), plus the m=8 covers of the two lattices whose
  // translated copies stress the signature dedupe.
  const device::Device eagle = device::ibm_eagle127();
  for (int m = 5; m <= 9; ++m) pin_cover(table, "eagle127", eagle, m);
  pin_cover(table, "grid:8x8", device::grid(8, 8), 8);
  pin_cover(table, "sycamore54", device::google_sycamore54(), 8);

  // Leaf-budget fallbacks: an edgeless device and a layer of one
  // single-qubit gate per qubit are fully symmetric (7! and 8! leaves).
  {
    const DeviceCanon canon =
        canonicalize_device(device::Device("edgeless7", 7, {}));
    EXPECT_FALSE(canon.exact);
    add_row(table, "budget/device/edgeless7", device_record(canon));
    circuit::Circuit layer(8, "layer");
    for (int q = 0; q < 8; ++q) layer.add_gate("h", q);
    const CircuitCanon ccanon = canonicalize_circuit(layer);
    EXPECT_FALSE(ccanon.exact);
    add_row(table, "budget/circuit/h8", circuit_record(ccanon));
  }

  // Bundled circuits under seeded program relabeling, alternately
  // followed by a commuting reorder.
  for (const char* file : {"bv5", "ghz5", "qaoa_triangle", "toffoli_qx2"}) {
    pin_circuit(table, file,
                qasm::parse_file(dir + "/" + file + ".qasm"));
  }
  // Generated circuits with long dependency chains. Their (level, gate)
  // seeds already tell every qubit apart, so they pin the seed path.
  pin_circuit(table, "qft:8", bengen::qft(8));
  pin_circuit(table, "cuccaro:2", bengen::cuccaro_adder(2));
  // Circuits whose seeds do not: a QAOA layer on a 3-regular graph, and a
  // two-layer brickwork of zz gates on a line, where every inner qubit has
  // the same (level, gate) list and refinement takes O(n) rounds from the
  // two ends inward, as on a path.
  pin_circuit(table, "qaoa:16", bengen::qaoa_3regular(16, 9));
  {
    circuit::Circuit brick(16, "brickwork");
    for (int layer = 0; layer < 2; ++layer) {
      for (int q = layer; q + 1 < 16; q += 2) brick.add_gate("zz", q, q + 1);
    }
    pin_circuit(table, "brickwork:16", std::move(brick));
  }
  return table;
}

TEST(CanonicalGolden, FormsMatchThePinnedDigests) {
  const Table table = compute_table();
  std::map<std::string, std::string> pinned;
  for (const Pin& pin : kPins) pinned.emplace(pin.name, pin.digest);

  bool all_match = table.size() == pinned.size();
  for (const auto& [name, digest] : table) {
    const auto it = pinned.find(name);
    if (it == pinned.end()) {
      ADD_FAILURE() << name << ": no pinned digest";
      all_match = false;
    } else if (it->second != digest) {
      ADD_FAILURE() << name << ": digest " << digest << ", pinned "
                    << it->second;
      all_match = false;
    }
  }
  EXPECT_EQ(table.size(), pinned.size());
  if (!all_match) {
    std::string dump = "actual table:\n";
    for (const auto& [name, digest] : table) {
      dump += "    {\"" + name + "\", \"" + digest + "\"},\n";
    }
    std::fputs(dump.c_str(), stderr);
  }
}

TEST(CanonicalGolden, ConcurrentCallsMatchSerialForms) {
  // The search keeps its buffers per thread: concurrent callers on
  // different graph sizes must each get exactly the serial forms.
  const fuzz::Instance eagle{circuit::Circuit(1, "empty"),
                             device::ibm_eagle127(), 1};
  const fuzz::Instance grid{circuit::Circuit(1, "empty"), device::grid(3, 3),
                            1};
  const circuit::Circuit ghz = qasm::parse_file(
      std::string(OLSQ2_BENCHMARK_DIR) + "/ghz5.qasm");
  bengen::Rng rng(7);
  std::vector<device::Device> devices;
  for (int i = 0; i < 4; ++i) {
    devices.push_back(fuzz::relabel_physical_qubits(eagle, rng).device);
    devices.push_back(fuzz::relabel_physical_qubits(grid, rng).device);
  }
  std::vector<std::string> serial;
  for (const device::Device& dev : devices) {
    serial.push_back(device_record(canonicalize_device(dev)));
  }
  const std::string serial_circuit = circuit_record(canonicalize_circuit(ghz));

  std::vector<std::vector<std::string>> seen(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < devices.size(); ++i) {
          const std::size_t d = (i + t) % devices.size();
          seen[t].push_back(device_record(canonicalize_device(devices[d])));
          seen[t].push_back(circuit_record(canonicalize_circuit(ghz)));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(seen[t].size(), 6 * devices.size());
    for (std::size_t k = 0; k < seen[t].size(); k += 2) {
      const std::size_t d = (k / 2 % devices.size() + t) % devices.size();
      EXPECT_EQ(seen[t][k], serial[d]) << "thread " << t << " call " << k;
      EXPECT_EQ(seen[t][k + 1], serial_circuit) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace olsq2::serve
