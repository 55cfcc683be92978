// Bound-sized horizons: the OLSQ2 optimizers encode each model at the depth
// bound it answers instead of at T_UB. That rests on one equivalence: a
// schedule of depth <= t fits in horizon t, and SWAPs finishing at or after
// the depth are inert, so the horizon-t model is SAT exactly when the
// horizon-T_UB model is SAT under depth_bound(t), with or without a SWAP
// bound. These tests pin that equivalence and that the depth search really
// builds every model at the bound of its next call.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bengen/workloads.h"
#include "circuit/dependency.h"
#include "device/presets.h"
#include "layout/model.h"
#include "layout/olsq2.h"
#include "obs/obs.h"
#include "qasm/parser.h"

#ifndef OLSQ2_BENCHMARK_DIR
#error "OLSQ2_BENCHMARK_DIR must be defined by the build"
#endif

namespace olsq2::layout {
namespace {

struct Instance {
  std::string name;
  circuit::Circuit circuit;
  device::Device device;
  int swap_duration;
};

circuit::Circuit corpus(const std::string& file) {
  return qasm::parse_file(std::string(OLSQ2_BENCHMARK_DIR) + "/" + file);
}

std::vector<Instance> instances() {
  std::vector<Instance> out;
  out.push_back({"toffoli_qx2", corpus("toffoli_qx2.qasm"), device::ibm_qx2(),
                 3});
  out.push_back({"qaoa_triangle", corpus("qaoa_triangle.qasm"),
                 device::grid(1, 4), 2});
  device::Device queko_dev = device::grid(2, 3);
  bengen::QuekoSpec spec;
  spec.depth = 4;
  spec.gate_count = 12;
  spec.seed = 7;
  circuit::Circuit queko = bengen::queko(queko_dev, spec);
  out.push_back({"queko4", std::move(queko), std::move(queko_dev), 3});
  return out;
}

sat::LBool solve(Model& model, const std::vector<Lit>& assumptions) {
  return model.solver().solve(assumptions);
}

TEST(BoundSizedHorizon, HorizonTMatchesTubUnderDepthBound) {
  int refuted_horizons = 0;
  for (const Instance& inst : instances()) {
    SCOPED_TRACE(inst.name);
    const Problem problem{&inst.circuit, &inst.device, inst.swap_duration};
    const circuit::DependencyGraph deps(inst.circuit);
    const int t_lb = deps.longest_chain();
    const int t_ub = deps.default_upper_bound();
    Model full(problem, t_ub, {});

    int swap_pairs = 0;
    for (int t = t_lb; t <= t_ub; ++t) {
      SCOPED_TRACE("t=" + std::to_string(t));
      Model sized(problem, t, {});
      const sat::LBool status = solve(sized, {});
      ASSERT_NE(status, sat::LBool::kUndef);
      EXPECT_EQ(status, solve(full, {full.depth_bound(t)}));
      if (status == sat::LBool::kFalse) {
        ++refuted_horizons;
        continue;
      }
      // The SWAP bounds at and just below this horizon's solution.
      const int swaps = sized.extract().swap_count;
      for (int k = swaps; k >= std::max(0, swaps - 1); --k) {
        SCOPED_TRACE("k=" + std::to_string(k));
        EXPECT_EQ(solve(sized, {sized.swap_bound(k)}),
                  solve(full, {full.depth_bound(t), full.swap_bound(k)}));
        ++swap_pairs;
      }
    }
    EXPECT_GE(swap_pairs, 2);
  }
  // Both answers are compared: some horizon in some instance is refuted.
  EXPECT_GT(refuted_horizons, 0);
}

std::string arg_of(const obs::Event& e, const std::string& key) {
  for (const obs::Arg& a : e.args) {
    if (a.key == key) return a.value;
  }
  return {};
}

TEST(BoundSizedHorizon, DepthSearchEncodesAtTheBoundItSolves) {
  for (const bool incremental : {true, false}) {
    for (const Instance& inst : instances()) {
      SCOPED_TRACE(inst.name + (incremental ? "" : "/non-incremental"));
      const Problem problem{&inst.circuit, &inst.device, inst.swap_duration};
      OptimizerOptions options;
      options.incremental = incremental;
      obs::Trace::instance().begin_capture("");
      const Result r = synthesize_depth_optimal(problem, {}, options);
      std::vector<obs::Event> events = obs::Trace::instance().snapshot();
      obs::Trace::instance().end_capture();
      ASSERT_TRUE(r.solved);

      std::stable_sort(events.begin(), events.end(),
                       [](const obs::Event& a, const obs::Event& b) {
                         return a.ts < b.ts;
                       });
      int encodes = 0;
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i].name != "olsq2.encode") continue;
        ++encodes;
        const auto next = std::find_if(
            events.begin() + static_cast<std::ptrdiff_t>(i) + 1, events.end(),
            [](const obs::Event& e) { return e.name == "olsq2.solve"; });
        ASSERT_NE(next, events.end()) << "an encode with no solve after it";
        EXPECT_EQ(arg_of(events[i], "t_ub"), arg_of(*next, "depth_bound"));
      }
      EXPECT_GE(encodes, 1);
    }
  }
}

}  // namespace
}  // namespace olsq2::layout
