// Golden search traces: pins the exact SAT-call sequence of every bound
// search - OLSQ2 depth and SWAP optimization, TB block and SWAP
// optimization, and the subarchitecture ladder - on a handful of small
// instances. Each row holds two FNV-1a digests. The calls digest covers the
// (depth_bound, swap_bound, status) sequence of Result::calls plus the
// objective and the Pareto points, so a refactor of the search drivers that
// issues one call more, one call fewer, or the same calls in another order
// shows up here even when the optimum is unchanged. The result digest
// covers the objective and the Pareto points alone, so a change meant to
// prune calls can show that every answer stayed the same.
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
#include "layout/search.h"
#include "layout/tb.h"
#include "subarch/library.h"
#include "subarch/solve.h"

namespace olsq2::layout {
namespace {

/// `calls` digests the whole record; `result` digests only its
/// `|solved|depth|swaps|budget|pareto` suffix, so a change that only
/// prunes or adds calls keeps every `result` digest.
struct Pin {
  const char* name;
  const char* calls;
  const char* result;
};

// clang-format off
constexpr Pin kPins[] = {
    {"toffoli/qx2/depth", "cac9a172a993519f", "d5fcd73f6fa65ae5"},
    {"toffoli/qx2/depth/facts", "cac9a172a993519f", "d5fcd73f6fa65ae5"},
    {"toffoli/qx2/depth/non-incremental", "cac9a172a993519f", "d5fcd73f6fa65ae5"},
    {"toffoli/qx2/depth/non-incremental/facts", "cac9a172a993519f", "d5fcd73f6fa65ae5"},
    {"toffoli/qx2/swap", "a7557146fcb35717", "7750be79a88c0571"},
    {"toffoli/qx2/swap/facts", "a7557146fcb35717", "7750be79a88c0571"},
    {"toffoli/qx2/swap/non-incremental", "a7557146fcb35717", "7750be79a88c0571"},
    {"toffoli/qx2/swap/non-incremental/facts", "a7557146fcb35717", "7750be79a88c0571"},
    {"toffoli/qx2/tb-block", "ff5216c968a98711", "884fcc8a9a38a694"},
    {"toffoli/qx2/tb-block/facts", "ff5216c968a98711", "884fcc8a9a38a694"},
    {"toffoli/qx2/tb-swap", "143cc26e6342a162", "05f700a1003edc03"},
    {"toffoli/qx2/tb-swap/facts", "143cc26e6342a162", "05f700a1003edc03"},
    {"toffoli/qx2/ladder", "fb285c23ce53617e", "884fcc8a9a38a694"},
    {"toffoli/grid1x3/depth", "ea99d7fba7ce5a4a", "d75cfa120dac84e0"},
    {"toffoli/grid1x3/depth/facts", "ea99d7fba7ce5a4a", "d75cfa120dac84e0"},
    {"toffoli/grid1x3/depth/non-incremental", "ea99d7fba7ce5a4a", "d75cfa120dac84e0"},
    {"toffoli/grid1x3/depth/non-incremental/facts", "ea99d7fba7ce5a4a", "d75cfa120dac84e0"},
    {"toffoli/grid1x3/swap", "04c4f8769935bd54", "92f3f109233ac5a1"},
    {"toffoli/grid1x3/swap/facts", "04c4f8769935bd54", "92f3f109233ac5a1"},
    {"toffoli/grid1x3/swap/non-incremental", "04c4f8769935bd54", "92f3f109233ac5a1"},
    {"toffoli/grid1x3/swap/non-incremental/facts", "04c4f8769935bd54", "92f3f109233ac5a1"},
    {"toffoli/grid1x3/tb-block", "5f595f5d4cf3861f", "07a7f9053f29f186"},
    {"toffoli/grid1x3/tb-block/facts", "5f595f5d4cf3861f", "07a7f9053f29f186"},
    {"toffoli/grid1x3/tb-swap", "ec29ee64796d3cb6", "c42ad90e6ce30dd7"},
    {"toffoli/grid1x3/tb-swap/facts", "ec29ee64796d3cb6", "c42ad90e6ce30dd7"},
    {"toffoli/grid1x3/ladder", "1ee0f99639a5c4d7", "07a7f9053f29f186"},
    {"qaoa6/grid2x3/depth", "e8f71477f37ffca9", "6620c9278475d983"},
    {"qaoa6/grid2x3/depth/facts", "e8f71477f37ffca9", "6620c9278475d983"},
    {"qaoa6/grid2x3/depth/non-incremental", "e8f71477f37ffca9", "6620c9278475d983"},
    {"qaoa6/grid2x3/depth/non-incremental/facts", "e8f71477f37ffca9", "6620c9278475d983"},
    {"qaoa6/grid2x3/swap", "6295742c023c6a39", "98159c90624a6d84"},
    {"qaoa6/grid2x3/swap/facts", "6295742c023c6a39", "98159c90624a6d84"},
    {"qaoa6/grid2x3/swap/non-incremental", "4bf00c80e0f8aef1", "98159c90624a6d84"},
    {"qaoa6/grid2x3/swap/non-incremental/facts", "4bf00c80e0f8aef1", "98159c90624a6d84"},
    {"qaoa6/grid2x3/tb-block", "27c2aa0e8ae007fc", "4a93a09a2dcfb7dd"},
    {"qaoa6/grid2x3/tb-block/facts", "27c2aa0e8ae007fc", "4a93a09a2dcfb7dd"},
    {"qaoa6/grid2x3/tb-swap", "42559b1482bf8bf9", "d49fe4abfcc271d0"},
    {"qaoa6/grid2x3/tb-swap/facts", "42559b1482bf8bf9", "d49fe4abfcc271d0"},
    {"qaoa6/grid2x3/ladder", "d16b657160fa9e50", "77865603cc49b0f4"},
    {"qft4/grid1x4/depth", "9ba2f7b10ee2e1ac", "dbd2957bc89783c5"},
    {"qft4/grid1x4/depth/facts", "9ba2f7b10ee2e1ac", "dbd2957bc89783c5"},
    {"qft4/grid1x4/depth/non-incremental", "9ba2f7b10ee2e1ac", "dbd2957bc89783c5"},
    {"qft4/grid1x4/depth/non-incremental/facts", "9ba2f7b10ee2e1ac", "dbd2957bc89783c5"},
    {"qft4/grid1x4/swap", "f66a5cc20504971f", "52568ac59dacc4a8"},
    {"qft4/grid1x4/swap/facts", "f66a5cc20504971f", "52568ac59dacc4a8"},
    {"qft4/grid1x4/swap/non-incremental", "f66a5cc20504971f", "52568ac59dacc4a8"},
    {"qft4/grid1x4/swap/non-incremental/facts", "f66a5cc20504971f", "52568ac59dacc4a8"},
    {"qft4/grid1x4/tb-block", "008afe9ce3d587a4", "18476a79b99b2efa"},
    {"qft4/grid1x4/tb-block/facts", "008afe9ce3d587a4", "18476a79b99b2efa"},
    {"qft4/grid1x4/tb-swap", "3030bef6e81865dd", "cf5327f123981323"},
    {"qft4/grid1x4/tb-swap/facts", "3030bef6e81865dd", "cf5327f123981323"},
    {"qft4/grid1x4/ladder", "5a1c56d9e5d26a99", "18476a79b99b2efa"},
    {"queko4/grid2x3/depth", "831e2044543a7347", "3003bb76d41161b1"},
    {"queko4/grid2x3/depth/facts", "831e2044543a7347", "3003bb76d41161b1"},
    {"queko4/grid2x3/depth/non-incremental", "831e2044543a7347", "3003bb76d41161b1"},
    {"queko4/grid2x3/depth/non-incremental/facts", "831e2044543a7347", "3003bb76d41161b1"},
    {"queko4/grid2x3/swap", "5af91108bf4dbcb5", "d8896e8da2e45323"},
    {"queko4/grid2x3/swap/facts", "5af91108bf4dbcb5", "d8896e8da2e45323"},
    {"queko4/grid2x3/swap/non-incremental", "5af91108bf4dbcb5", "d8896e8da2e45323"},
    {"queko4/grid2x3/swap/non-incremental/facts", "5af91108bf4dbcb5", "d8896e8da2e45323"},
    {"queko4/grid2x3/tb-block", "ff5216c968a98711", "884fcc8a9a38a694"},
    {"queko4/grid2x3/tb-block/facts", "ff5216c968a98711", "884fcc8a9a38a694"},
    {"queko4/grid2x3/tb-swap", "143cc26e6342a162", "05f700a1003edc03"},
    {"queko4/grid2x3/tb-swap/facts", "143cc26e6342a162", "05f700a1003edc03"},
    {"queko4/grid2x3/ladder", "1f64842344c41c3a", "05f700a1003edc03"},
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

/// "d,s,status;..." for every call.
std::string calls_record(const Result& r) {
  std::string record;
  for (const SolveCall& c : r.calls) {
    record += std::to_string(c.depth_bound) + ',' +
              std::to_string(c.swap_bound) + ',' + c.status + ';';
  }
  return record;
}

/// The objective and the Pareto points.
std::string result_record(const Result& r) {
  std::string record = "|solved=" + std::to_string(r.solved) +
                       "|depth=" + std::to_string(r.depth) +
                       "|swaps=" + std::to_string(r.swap_count) +
                       "|budget=" + std::to_string(r.hit_budget) +
                       "|pareto=";
  for (const auto& [d, s] : r.pareto) {
    record += std::to_string(d) + ':' + std::to_string(s) + ',';
  }
  return record;
}

struct Row {
  std::string name;
  std::string calls;   // digest of calls + result (+ ladder outcome)
  std::string result;  // digest of the result suffix alone
};

/// `extra` is appended to the calls record only.
Row make_row(std::string name, const Result& r, const std::string& extra = "") {
  return {std::move(name), hex_digest(calls_record(r) + result_record(r) + extra),
          hex_digest(result_record(r))};
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

/// Rows in computation order.
using Table = std::vector<Row>;

/// Runs `engine` once on its own and once attached to fresh bound facts,
/// appending one row each.
void pin_engine(Table& table, const std::string& name, const Problem& problem,
                const OptimizerOptions& options, const Engine& engine) {
  table.push_back(make_row(name, engine(problem, options)));
  BoundFacts facts;
  OptimizerOptions shared = options;
  shared.facts = &facts;
  table.push_back(make_row(name + "/facts", engine(problem, shared)));
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
    table.push_back(make_row(n + "/ladder", laddered,
                             "|used=" + std::to_string(outcome.used) +
                                 "|rounds=" + std::to_string(outcome.rounds) +
                                 "|probes=" + std::to_string(outcome.probes) +
                                 "|why=" + outcome.fallback_reason));
  }
  return table;
}

TEST(SearchTraceGolden, TracesMatchThePinnedDigests) {
  const Table table = compute_table();
  std::map<std::string, const Pin*> pinned;
  for (const Pin& pin : kPins) pinned.emplace(pin.name, &pin);

  bool all_match = table.size() == pinned.size();
  for (const Row& row : table) {
    const auto it = pinned.find(row.name);
    if (it == pinned.end()) {
      ADD_FAILURE() << row.name << ": no pinned digest";
      all_match = false;
      continue;
    }
    if (it->second->calls != row.calls) {
      ADD_FAILURE() << row.name << ": calls digest " << row.calls
                    << ", pinned " << it->second->calls;
      all_match = false;
    }
    if (it->second->result != row.result) {
      ADD_FAILURE() << row.name << ": result digest " << row.result
                    << ", pinned " << it->second->result;
      all_match = false;
    }
  }
  EXPECT_EQ(table.size(), pinned.size());
  if (!all_match) {
    std::string dump = "actual table:\n";
    for (const Row& row : table) {
      dump += "    {\"" + row.name + "\", \"" + row.calls + "\", \"" +
              row.result + "\"},\n";
    }
    std::fputs(dump.c_str(), stderr);
  }
}

}  // namespace
}  // namespace olsq2::layout
