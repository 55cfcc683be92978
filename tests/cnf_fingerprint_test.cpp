// CNF fingerprints: pins an FNV-1a digest of the exact CNF layout::Model
// emits in both formulations - time-resolved (OLSQ2, OLSQ) and
// transition-based (TB-OLSQ2, TB-OLSQ) - on three small instances and
// every encoding axis. The record is the variable count plus every clause
// of the solver's clause log in emission order, taken after the model has
// also built one horizon bound and one SWAP bound, so the bound encodings
// are covered too.
//
// Variable numbering and clause order steer the CDCL search: an encoder
// refactor that emits the same constraints in another order keeps every
// optimum and every test green, yet can make single solves much harder or
// easier. This table catches it.
//
// On a mismatch the test prints the whole actual table in the kPins format
// below; only paste it back after deciding that the CNF is meant to change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bengen/workloads.h"
#include "circuit/dependency.h"
#include "device/presets.h"
#include "layout/model.h"
#include "qasm/parser.h"

#ifndef OLSQ2_BENCHMARK_DIR
#error "OLSQ2_BENCHMARK_DIR must be defined by the build"
#endif

namespace olsq2::layout {
namespace {

struct Pin {
  const char* name;
  const char* digest;
};

// clang-format off
constexpr Pin kPins[] = {
    {"toffoli/qx2/pairwise-bv/time-resolved", "64ece1b6aca0961f"},
    {"toffoli/qx2/pairwise-bv/transition-based", "5b247ec03a9e6872"},
    {"toffoli/qx2/channeling/time-resolved", "17598182476428c6"},
    {"toffoli/qx2/channeling/transition-based", "27fcb09b824bc519"},
    {"toffoli/qx2/amo/time-resolved", "a4ac56d8de85a5c1"},
    {"toffoli/qx2/amo/transition-based", "c5f495ce84ac87ae"},
    {"toffoli/qx2/onehot/time-resolved", "ad9c3f13832a7bb6"},
    {"toffoli/qx2/onehot/transition-based", "7ee7c1d14b0a6e88"},
    {"toffoli/qx2/olsq-baseline/time-resolved", "daabf0b024927219"},
    {"toffoli/qx2/olsq-baseline/transition-based", "798ad11828128b1a"},
    {"qaoa_triangle/grid1x4/pairwise-bv/time-resolved", "b9be4d5cd6b49c3d"},
    {"qaoa_triangle/grid1x4/pairwise-bv/transition-based", "ce6abe03c26d1bec"},
    {"qaoa_triangle/grid1x4/channeling/time-resolved", "3313892cf3b27fc1"},
    {"qaoa_triangle/grid1x4/channeling/transition-based", "e74c80262725de76"},
    {"qaoa_triangle/grid1x4/amo/time-resolved", "a3da2e5ecb29dc8a"},
    {"qaoa_triangle/grid1x4/amo/transition-based", "6e55c346bc3478a3"},
    {"qaoa_triangle/grid1x4/onehot/time-resolved", "1cd449eb0b3e4061"},
    {"qaoa_triangle/grid1x4/onehot/transition-based", "4023c7c0039c088d"},
    {"qaoa_triangle/grid1x4/olsq-baseline/time-resolved", "6daab231dfdd3132"},
    {"qaoa_triangle/grid1x4/olsq-baseline/transition-based", "02117eae23bc1ba1"},
    {"queko4/grid2x3/pairwise-bv/time-resolved", "004f2bfef163ecb7"},
    {"queko4/grid2x3/pairwise-bv/transition-based", "3312942888966e6b"},
    {"queko4/grid2x3/channeling/time-resolved", "9528868c85f11498"},
    {"queko4/grid2x3/channeling/transition-based", "17ab6868e5a2fb6b"},
    {"queko4/grid2x3/amo/time-resolved", "ef02997983552992"},
    {"queko4/grid2x3/amo/transition-based", "9492da8db340552b"},
    {"queko4/grid2x3/onehot/time-resolved", "1cc1eeb9c7ac1e0f"},
    {"queko4/grid2x3/onehot/transition-based", "da51da978cd73d0f"},
    {"queko4/grid2x3/olsq-baseline/time-resolved", "f55c6932d3bdae50"},
    {"queko4/grid2x3/olsq-baseline/transition-based", "b36358759cb5a7bf"},
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

/// Builds one horizon bound and one SWAP bound, then digests
/// "vars=N;" plus each clause as its literal codes.
std::string cnf_digest(Model& model, int horizon) {
  model.depth_bound(horizon - 1);
  model.swap_bound(1);
  const sat::Solver& solver = model.solver();
  std::string record = "vars=" + std::to_string(solver.num_vars()) + ';';
  for (const sat::Clause& clause : solver.clause_log()) {
    for (const Lit l : clause) record += std::to_string(l.code()) + ',';
    record += ';';
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(record)));
  return buf;
}

struct Instance {
  std::string name;
  circuit::Circuit circuit;
  device::Device device;
  int swap_duration;
};

std::vector<Instance> instances() {
  const std::string dir = OLSQ2_BENCHMARK_DIR;
  std::vector<Instance> out;
  out.push_back({"toffoli/qx2", qasm::parse_file(dir + "/toffoli_qx2.qasm"),
                 device::ibm_qx2(), 3});
  out.push_back({"qaoa_triangle/grid1x4",
                 qasm::parse_file(dir + "/qaoa_triangle.qasm"),
                 device::grid(1, 4), 1});
  device::Device queko_dev = device::grid(2, 3);
  bengen::QuekoSpec spec;
  spec.depth = 4;
  spec.gate_count = 12;
  spec.seed = 7;
  circuit::Circuit queko = bengen::queko(queko_dev, spec);
  out.push_back({"queko4/grid2x3", std::move(queko), std::move(queko_dev), 1});
  return out;
}

struct NamedConfig {
  const char* name;
  EncodingConfig config;
};

std::vector<NamedConfig> configs() {
  std::vector<NamedConfig> out;
  out.push_back({"pairwise-bv", {}});
  EncodingConfig channeling;
  channeling.injectivity = InjectivityEncoding::kChanneling;
  out.push_back({"channeling", channeling});
  EncodingConfig amo;
  amo.injectivity = InjectivityEncoding::kAmoPerQubit;
  out.push_back({"amo", amo});
  EncodingConfig onehot;
  onehot.vars = VarEncoding::kOneHot;
  out.push_back({"onehot", onehot});
  EncodingConfig baseline;
  baseline.formulation = Formulation::kOlsqBaseline;
  out.push_back({"olsq-baseline", baseline});
  return out;
}

/// Time-resolved models span T_LB + 1 steps, transition-based ones 3
/// blocks.
constexpr int kBlocks = 3;

std::vector<std::pair<std::string, std::string>> compute_table() {
  std::vector<std::pair<std::string, std::string>> table;
  for (const Instance& inst : instances()) {
    const Problem problem{&inst.circuit, &inst.device, inst.swap_duration};
    const int t_ub =
        circuit::DependencyGraph(inst.circuit).longest_chain() + 1;
    for (const NamedConfig& nc : configs()) {
      const std::string prefix = inst.name + "/" + nc.name;
      Model tr(problem, t_ub, nc.config, nullptr, /*log_clauses=*/true);
      table.emplace_back(prefix + "/time-resolved", cnf_digest(tr, t_ub));
      Model tb(SearchEngine::kTransitionBased, problem, kBlocks, nc.config,
               nullptr, /*log_clauses=*/true);
      table.emplace_back(prefix + "/transition-based",
                         cnf_digest(tb, kBlocks));
    }
  }
  return table;
}

TEST(CnfFingerprint, BothFormulationsMatchThePinnedCnf) {
  const auto table = compute_table();
  std::map<std::string, std::string> pinned;
  for (const Pin& p : kPins) pinned.emplace(p.name, p.digest);

  bool all_match = table.size() == pinned.size();
  for (const auto& [name, digest] : table) {
    const auto it = pinned.find(name);
    if (it == pinned.end()) {
      ADD_FAILURE() << "no pin for " << name;
      all_match = false;
    } else if (it->second != digest) {
      ADD_FAILURE() << name << ": CNF digest " << digest << ", pinned "
                    << it->second;
      all_match = false;
    }
  }
  if (!all_match) {
    std::string dump = "actual table:\n";
    for (const auto& [name, digest] : table) {
      dump += "    {\"" + name + "\", \"" + digest + "\"},\n";
    }
    ADD_FAILURE() << dump;
  }
}

}  // namespace
}  // namespace olsq2::layout
