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

#include "bengen/rng.h"
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

/// The base device plus kRelabelings seeded relabelings. Exact forms must
/// agree on the key across relabelings (the invariance half of the
/// contract); the rows pin the bytes.
void pin_device(Table& table, const std::string& name, device::Device dev) {
  const fuzz::Instance base{circuit::Circuit(1, "empty"), std::move(dev), 1};
  const DeviceCanon base_canon = canonicalize_device(base.device);
  EXPECT_TRUE(base_canon.exact) << name;
  add_row(table, "device/" + name, device_record(base_canon));
  bengen::Rng rng(fnv1a64(name));
  for (int i = 0; i < kRelabelings; ++i) {
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
  const subarch::Cover cover = subarch::enumerate_cover(dev, m);
  EXPECT_TRUE(cover.complete) << name << " m=" << m;
  std::string record = std::to_string(cover.classes.size());
  for (const subarch::CoverClass& cls : cover.classes) {
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
    const std::string name = file;
    circuit::Circuit circ = qasm::parse_file(dir + "/" + name + ".qasm");
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
