// Golden search traces: pins the exact SAT-call sequence of every bound
// search - OLSQ2 depth and SWAP optimization, TB block and SWAP
// optimization, and the subarchitecture ladder - on a handful of small
// instances. Each row is an FNV-1a digest of the (depth_bound, swap_bound,
// status) sequence of Result::calls plus the objective and the Pareto
// points, so a refactor of the search drivers that issues one call more,
// one call fewer, or the same calls in another order shows up here even
// when the optimum is unchanged.
//
// On a mismatch the test prints the whole actual table in the kPins format
// below; only paste it back after deciding that the search is meant to
// change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bengen/workloads.h"
#include "device/presets.h"
#include "layout/olsq2.h"
#include "layout/tb.h"
#include "sat/exchange.h"
#include "subarch/library.h"
#include "subarch/solve.h"

namespace olsq2::layout {
namespace {

struct Pin {
  const char* name;
  const char* digest;
};

// clang-format off
constexpr Pin kPins[] = {
    {"toffoli/qx2/depth", "66d674641c68e841"},
    {"toffoli/qx2/depth/exchange", "66d674641c68e841"},
    {"toffoli/qx2/depth/non-incremental", "66d674641c68e841"},
    {"toffoli/qx2/depth/non-incremental/exchange", "66d674641c68e841"},
    {"toffoli/qx2/swap", "a7557146fcb35717"},
    {"toffoli/qx2/swap/exchange", "a7557146fcb35717"},
    {"toffoli/qx2/swap/non-incremental", "a7557146fcb35717"},
    {"toffoli/qx2/swap/non-incremental/exchange", "a7557146fcb35717"},
    {"toffoli/qx2/tb-block", "ff5216c968a98711"},
    {"toffoli/qx2/tb-block/exchange", "ff5216c968a98711"},
    {"toffoli/qx2/tb-swap", "143cc26e6342a162"},
    {"toffoli/qx2/tb-swap/exchange", "143cc26e6342a162"},
    {"toffoli/qx2/ladder", "fb285c23ce53617e"},
    {"toffoli/grid1x3/depth", "ea99d7fba7ce5a4a"},
    {"toffoli/grid1x3/depth/exchange", "ea99d7fba7ce5a4a"},
    {"toffoli/grid1x3/depth/non-incremental", "ea99d7fba7ce5a4a"},
    {"toffoli/grid1x3/depth/non-incremental/exchange", "ea99d7fba7ce5a4a"},
    {"toffoli/grid1x3/swap", "39dfcf637211933d"},
    {"toffoli/grid1x3/swap/exchange", "8a131ac0500075bf"},
    {"toffoli/grid1x3/swap/non-incremental", "39dfcf637211933d"},
    {"toffoli/grid1x3/swap/non-incremental/exchange", "8a131ac0500075bf"},
    {"toffoli/grid1x3/tb-block", "5f595f5d4cf3861f"},
    {"toffoli/grid1x3/tb-block/exchange", "5f595f5d4cf3861f"},
    {"toffoli/grid1x3/tb-swap", "39a5817d34441833"},
    {"toffoli/grid1x3/tb-swap/exchange", "39a5817d34441833"},
    {"toffoli/grid1x3/ladder", "1ee0f99639a5c4d7"},
    {"qaoa6/grid2x3/depth", "cf42d2e85cdd7269"},
    {"qaoa6/grid2x3/depth/exchange", "fe51267084a3520d"},
    {"qaoa6/grid2x3/depth/non-incremental", "ebc672f313366a2b"},
    {"qaoa6/grid2x3/depth/non-incremental/exchange", "37daf68238fa5b76"},
    {"qaoa6/grid2x3/swap", "1b18706b9f980706"},
    {"qaoa6/grid2x3/swap/exchange", "b7d894d34710bdd3"},
    {"qaoa6/grid2x3/swap/non-incremental", "e86ca84308db103e"},
    {"qaoa6/grid2x3/swap/non-incremental/exchange", "6df7b35b4af6f6fc"},
    {"qaoa6/grid2x3/tb-block", "27c2aa0e8ae007fc"},
    {"qaoa6/grid2x3/tb-block/exchange", "27c2aa0e8ae007fc"},
    {"qaoa6/grid2x3/tb-swap", "1f35cb4b6c408644"},
    {"qaoa6/grid2x3/tb-swap/exchange", "1f35cb4b6c408644"},
    {"qaoa6/grid2x3/ladder", "d16b657160fa9e50"},
    {"qft4/grid1x4/depth", "973a1b1738994253"},
    {"qft4/grid1x4/depth/exchange", "319d09431d959e55"},
    {"qft4/grid1x4/depth/non-incremental", "d2e5b73544415599"},
    {"qft4/grid1x4/depth/non-incremental/exchange", "319d09431d959e55"},
    {"qft4/grid1x4/swap", "d459ad9d95937caa"},
    {"qft4/grid1x4/swap/exchange", "1986601184963f34"},
    {"qft4/grid1x4/swap/non-incremental", "9521ac7c360964ea"},
    {"qft4/grid1x4/swap/non-incremental/exchange", "bbc3065c8795bcc0"},
    {"qft4/grid1x4/tb-block", "008afe9ce3d587a4"},
    {"qft4/grid1x4/tb-block/exchange", "008afe9ce3d587a4"},
    {"qft4/grid1x4/tb-swap", "97896149d79c7e50"},
    {"qft4/grid1x4/tb-swap/exchange", "97896149d79c7e50"},
    {"qft4/grid1x4/ladder", "5a1c56d9e5d26a99"},
    {"queko4/grid2x3/depth", "3512a7785dd84ca9"},
    {"queko4/grid2x3/depth/exchange", "737ee4806d37b8f2"},
    {"queko4/grid2x3/depth/non-incremental", "3512a7785dd84ca9"},
    {"queko4/grid2x3/depth/non-incremental/exchange", "737ee4806d37b8f2"},
    {"queko4/grid2x3/swap", "464ab7fb8d895354"},
    {"queko4/grid2x3/swap/exchange", "5af91108bf4dbcb5"},
    {"queko4/grid2x3/swap/non-incremental", "464ab7fb8d895354"},
    {"queko4/grid2x3/swap/non-incremental/exchange", "5af91108bf4dbcb5"},
    {"queko4/grid2x3/tb-block", "ff5216c968a98711"},
    {"queko4/grid2x3/tb-block/exchange", "ff5216c968a98711"},
    {"queko4/grid2x3/tb-swap", "143cc26e6342a162"},
    {"queko4/grid2x3/tb-swap/exchange", "143cc26e6342a162"},
    {"queko4/grid2x3/ladder", "1f64842344c41c3a"},
};
// clang-format on

std::uint64_t fnv1a64(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex_digest(const std::string& record) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(record)));
  return buf;
}

/// "d,s,status;..." for every call, then the objective and Pareto points.
std::string trace_record(const Result& r) {
  std::string record;
  for (const SolveCall& c : r.calls) {
    record += std::to_string(c.depth_bound) + ',' +
              std::to_string(c.swap_bound) + ',' + c.status + ';';
  }
  record += "|solved=" + std::to_string(r.solved) +
            "|depth=" + std::to_string(r.depth) +
            "|swaps=" + std::to_string(r.swap_count) +
            "|budget=" + std::to_string(r.hit_budget) + "|pareto=";
  for (const auto& [d, s] : r.pareto) {
    record += std::to_string(d) + ':' + std::to_string(s) + ',';
  }
  return record;
}

/// The paper's running example (Fig. 2): Toffoli via the 15-gate
/// Clifford+T network.
circuit::Circuit toffoli() {
  circuit::Circuit c(3, "toffoli");
  c.add_gate("h", 2);
  c.add_gate("cx", 1, 2);
  c.add_gate("tdg", 2);
  c.add_gate("cx", 0, 2);
  c.add_gate("t", 2);
  c.add_gate("cx", 1, 2);
  c.add_gate("tdg", 2);
  c.add_gate("cx", 0, 2);
  c.add_gate("t", 1);
  c.add_gate("t", 2);
  c.add_gate("h", 2);
  c.add_gate("cx", 0, 1);
  c.add_gate("t", 0);
  c.add_gate("tdg", 1);
  c.add_gate("cx", 0, 1);
  return c;
}

struct Instance {
  std::string name;
  circuit::Circuit circuit;
  device::Device device;
  int swap_duration;
};

std::vector<Instance> instances() {
  std::vector<Instance> out;
  out.push_back({"toffoli/qx2", toffoli(), device::ibm_qx2(), 3});
  out.push_back({"toffoli/grid1x3", toffoli(), device::grid(1, 3), 1});
  out.push_back(
      {"qaoa6/grid2x3", bengen::qaoa_3regular(6, 2), device::grid(2, 3), 1});
  out.push_back({"qft4/grid1x4", bengen::qft(4), device::grid(1, 4), 1});
  device::Device queko_dev = device::grid(2, 3);
  bengen::QuekoSpec spec;
  spec.depth = 4;
  spec.gate_count = 12;
  spec.seed = 3;
  circuit::Circuit queko = bengen::queko(queko_dev, spec);
  out.push_back({"queko4/grid2x3", std::move(queko), std::move(queko_dev), 1});
  return out;
}

using Engine = std::function<Result(const Problem&, const OptimizerOptions&)>;

/// (name, digest) rows in computation order.
using Table = std::vector<std::pair<std::string, std::string>>;

/// Runs `engine` once without sharing and once attached to a fresh
/// exchange, appending one row each.
void pin_engine(Table& table, const std::string& name, const Problem& problem,
                const OptimizerOptions& options, const Engine& engine) {
  table.emplace_back(name, hex_digest(trace_record(engine(problem, options))));
  sat::ClauseExchange exchange;
  OptimizerOptions shared = options;
  shared.exchange = &exchange;
  table.emplace_back(name + "/exchange",
                     hex_digest(trace_record(engine(problem, shared))));
}

Table compute_table() {
  const Engine depth = [](const Problem& p, const OptimizerOptions& o) {
    return synthesize_depth_optimal(p, {}, o);
  };
  const Engine swap = [](const Problem& p, const OptimizerOptions& o) {
    return synthesize_swap_optimal(p, {}, o);
  };
  const Engine tb_block = [](const Problem& p, const OptimizerOptions& o) {
    return tb_synthesize_block_optimal(p, {}, o);
  };
  const Engine tb_swap = [](const Problem& p, const OptimizerOptions& o) {
    return tb_synthesize_swap_optimal(p, {}, o);
  };

  Table table;
  for (const Instance& inst : instances()) {
    const Problem problem{&inst.circuit, &inst.device, inst.swap_duration};
    const std::string& n = inst.name;
    const OptimizerOptions defaults;
    OptimizerOptions one_shot;
    one_shot.incremental = false;

    pin_engine(table, n + "/depth", problem, defaults, depth);
    pin_engine(table, n + "/depth/non-incremental", problem, one_shot, depth);
    pin_engine(table, n + "/swap", problem, defaults, swap);
    pin_engine(table, n + "/swap/non-incremental", problem, one_shot, swap);
    pin_engine(table, n + "/tb-block", problem, defaults, tb_block);
    pin_engine(table, n + "/tb-swap", problem, defaults, tb_swap);

    // The ladder probes one fixed-bound TB solve per class and round.
    subarch::Library library;
    subarch::SubarchOptions subopts;
    subopts.min_device_qubits = 0;
    subopts.library = &library;
    subarch::SubarchOutcome outcome;
    const Result laddered =
        subarch::tb_synthesize_swap_optimal(problem, {}, {}, subopts, &outcome);
    table.emplace_back(
        n + "/ladder",
        hex_digest(trace_record(laddered) +
                   "|used=" + std::to_string(outcome.used) +
                   "|rounds=" + std::to_string(outcome.rounds) +
                   "|probes=" + std::to_string(outcome.probes) +
                   "|why=" + outcome.fallback_reason));
  }
  return table;
}

TEST(SearchTraceGolden, TracesMatchThePinnedDigests) {
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

}  // namespace
}  // namespace olsq2::layout
