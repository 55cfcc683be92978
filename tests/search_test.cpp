// The shared bound search (layout/search.h): the deadline, the
// depth search's refuted/incumbent interval (no bound asked twice, shared
// facts seed it), the SWAP sweep's budget contract, its SWAP floor (probes
// honour the deadline and every pruned call says why) and the fixed-bound
// probes run under a deadline.
#include "layout/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "bengen/workloads.h"
#include "circuit/dependency.h"
#include "device/presets.h"
#include "layout/model.h"
#include "layout/olsq2.h"
#include "layout/tb.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace olsq2::layout {
namespace {

/// Two-qubit gates between all pairs of 3 qubits: on a 1x3 line some pair
/// is non-adjacent under any mapping, so every solution has a SWAP.
circuit::Circuit triangle() {
  circuit::Circuit c(3, "triangle");
  c.add_gate("zz", 0, 1);
  c.add_gate("zz", 1, 2);
  c.add_gate("zz", 0, 2);
  return c;
}

/// A deadline whose 1 ms budget is already spent.
Deadline expired_deadline() {
  const Deadline deadline(1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  return deadline;
}

TEST(Deadline, UnlimitedNeverExpires) {
  const Deadline deadline;
  EXPECT_FALSE(deadline.expired());
  EXPECT_FALSE(deadline.cancelled());
  EXPECT_TRUE(std::isinf(deadline.remaining_ms()));
}

TEST(Deadline, SpentBudgetHasNothingLeft) {
  const Deadline deadline = expired_deadline();
  EXPECT_TRUE(deadline.expired());
  EXPECT_EQ(deadline.remaining_ms(), 0.0);
}

TEST(Deadline, CarriesTheCancelToken) {
  std::atomic<bool> cancel{false};
  const Deadline deadline(0.0, &cancel);
  EXPECT_FALSE(deadline.cancelled());
  cancel.store(true);
  EXPECT_TRUE(deadline.cancelled());
  EXPECT_FALSE(deadline.expired());  // a cancel is not a spent budget
}

/// Depth searches whose optimum lies above T_LB, so the interval has to be
/// narrowed from both ends.
struct DepthInstance {
  const char* name;
  circuit::Circuit circ;
  device::Device dev;
};

std::vector<DepthInstance> depth_instances() {
  std::vector<DepthInstance> out;
  out.push_back({"qaoa6/grid2x3", bengen::qaoa_3regular(6, 2),
                 device::grid(2, 3)});
  out.push_back({"qft4/grid1x4", bengen::qft(4), device::grid(1, 4)});
  return out;
}

std::string span_arg(const std::vector<obs::Event>& events,
                     const std::string& span, const std::string& key) {
  for (const obs::Event& e : events) {
    if (e.name != span) continue;
    for (const obs::Arg& a : e.args) {
      if (a.key == key) return a.value;
    }
  }
  return "";
}

TEST(DepthSearch, FactsFreeRunAsksNoBoundTwiceAndPrunesNothing) {
  for (const DepthInstance& inst : depth_instances()) {
    SCOPED_TRACE(inst.name);
    const Problem problem{&inst.circ, &inst.dev, 1};
    const int t_lb = circuit::DependencyGraph(inst.circ).longest_chain();
    obs::Trace::instance().begin_capture("");
    const Result r = synthesize_depth_optimal(problem);
    const std::vector<obs::Event> events = obs::Trace::instance().snapshot();
    obs::Trace::instance().end_capture();
    ASSERT_TRUE(r.solved);
    ASSERT_FALSE(r.hit_budget);

    std::vector<int> asked;
    bool refuted_below = false;
    for (const SolveCall& call : r.calls) {
      EXPECT_NE(call.status, 'P');
      EXPECT_EQ(std::count(asked.begin(), asked.end(), call.depth_bound), 0)
          << "bound " << call.depth_bound << " asked twice";
      asked.push_back(call.depth_bound);
      // Every answer agrees with the optimum.
      EXPECT_EQ(call.status, call.depth_bound >= r.depth ? 'S' : 'U');
      refuted_below |= call.depth_bound == r.depth - 1;
    }
    EXPECT_TRUE(refuted_below || r.depth == t_lb);

    // The phase span tells how the interval closed.
    const std::string span = "olsq2.depth_phase";
    EXPECT_EQ(span_arg(events, span, "t_lb"), std::to_string(t_lb));
    EXPECT_EQ(span_arg(events, span, "refuted"), std::to_string(r.depth - 1));
    EXPECT_EQ(span_arg(events, span, "incumbent"), std::to_string(r.depth));
    EXPECT_EQ(std::stoi(span_arg(events, span, "relax_calls")) +
                  std::stoi(span_arg(events, span, "bisect_calls")),
              r.sat_calls);
  }
}

TEST(DepthSearch, SecondRunOnSharedFactsMakesOneSatCall) {
  for (const DepthInstance& inst : depth_instances()) {
    SCOPED_TRACE(inst.name);
    const Problem problem{&inst.circ, &inst.dev, 1};
    BoundFacts facts;
    OptimizerOptions options;
    options.facts = &facts;
    const Result first = synthesize_depth_optimal(problem, {}, options);
    ASSERT_TRUE(first.solved);
    const Result second = synthesize_depth_optimal(problem, {}, options);
    ASSERT_TRUE(second.solved);
    EXPECT_EQ(second.depth, first.depth);
    EXPECT_EQ(second.sat_calls, 1);
    // The first run's refutation narrows the second's interval: that bound
    // is the one peer prune, then the optimum is asked once.
    ASSERT_EQ(second.calls.size(), 2u);
    EXPECT_EQ(second.calls[0].status, 'P');
    EXPECT_EQ(second.calls[0].depth_bound, first.depth - 1);
    EXPECT_EQ(second.calls[1].status, 'S');
    EXPECT_EQ(second.calls[1].depth_bound, first.depth);
  }
}

/// A sweep handed an expired deadline with a SWAP-bearing incumbent in
/// hand issues no call and must not claim the descent finished.
void expect_expired_sweep_reports_budget(SearchEngine engine) {
  const circuit::Circuit circ = triangle();
  const device::Device dev = device::grid(1, 3);
  const Problem problem{&circ, &dev, 1};
  Model model(engine, problem, 6, {});
  Result diag;
  ASSERT_EQ(solve_call(engine, model.solver(), {}, -1, -1, Deadline(), diag),
            sat::LBool::kTrue);
  const Result incumbent = model.extract();
  ASSERT_GT(incumbent.swap_count, 0);

  const Deadline deadline = expired_deadline();
  Result sweep_diag;
  const ModelAt model_at = [&](int) -> Model& { return model; };
  int probes = 0;
  const FloorProbe probe = [&](int swaps) {
    ++probes;
    return tb_floor_probe(problem, swaps, {}, deadline, sweep_diag);
  };
  Result best = sweep_swaps(model, model_at, incumbent, incumbent.depth,
                            FactHub{}, probe, deadline, sweep_diag);
  EXPECT_EQ(probes, 0);
  EXPECT_TRUE(sweep_diag.calls.empty());
  EXPECT_FALSE(sweep_diag.hit_budget);  // no call ran out of budget...
  finish(best, sweep_diag, deadline);
  EXPECT_TRUE(best.hit_budget);  // ...but the proof is unfinished
  EXPECT_EQ(best.swap_count, incumbent.swap_count);
  ASSERT_EQ(best.pareto.size(), 1u);
}

TEST(SweepSwaps, ExpiredDeadlineReportsHitBudgetTimeResolved) {
  expect_expired_sweep_reports_budget(SearchEngine::kTimeResolved);
}

TEST(SweepSwaps, ExpiredDeadlineReportsHitBudgetTransitionBased) {
  expect_expired_sweep_reports_budget(SearchEngine::kTransitionBased);
}

/// The time-resolved sweep from `incumbent` at `bound` on `model`, with
/// TB floor probes, all under `deadline`; diagnostics merged by finish.
Result sweep_with_probes(const Problem& problem, Model& model,
                         const Result& incumbent, int bound,
                         const Deadline& deadline) {
  Result diag;
  const ModelAt model_at = [&](int) -> Model& { return model; };
  const FloorProbe probe = [&](int swaps) {
    return tb_floor_probe(problem, swaps, {}, deadline, diag);
  };
  Result best = sweep_swaps(model, model_at, incumbent, bound, FactHub{},
                            probe, deadline, diag);
  finish(best, diag, deadline);
  return best;
}

TEST(SwapFloor, CancelledProbeStopsProbingAndPrunesNothing) {
  const circuit::Circuit circ = triangle();
  const device::Device dev = device::grid(1, 3);
  const Problem problem{&circ, &dev, 1};
  Model model(problem, 6, {});
  Result diag;
  ASSERT_EQ(solve_call(SearchEngine::kTimeResolved, model.solver(), {}, -1,
                       -1, Deadline(), diag),
            sat::LBool::kTrue);
  const Result incumbent = model.extract();
  ASSERT_GT(incumbent.swap_count, 0);

  std::atomic<bool> cancel{true};
  const Result best = sweep_with_probes(problem, model, incumbent,
                                        incumbent.depth,
                                        Deadline(0.0, &cancel));
  // One probe at the initial floor, cut by the token; no time-resolved
  // call and nothing pruned.
  ASSERT_EQ(best.calls.size(), 1u);
  EXPECT_EQ(best.calls[0].depth_bound, -1);
  EXPECT_EQ(best.calls[0].swap_bound, 0);
  EXPECT_EQ(best.calls[0].status, '?');
  EXPECT_TRUE(best.hit_budget);
  EXPECT_EQ(best.swap_count, incumbent.swap_count);
}

/// How far a budgeted SWAP sweep may overrun its budget. The SAT call that
/// is running stops at its solver's next time check, but encoding a probe's
/// TB model or a regrown time-resolved model is not interruptible.
constexpr double kOvershootMs = 250.0;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// QAOA on 10 qubits of a 2x5 grid: the time-resolved incumbent at the
/// optimal depth has 10+ SWAPs, and the TB floor probe at 2 SWAPs takes
/// seconds to refute, so a short budget always ends inside the probes.
struct ProbingInstance {
  circuit::Circuit circ = bengen::qaoa_3regular(10, 1);
  device::Device dev = device::grid(2, 5);
  Problem problem{&circ, &dev, 1};
};

TEST(SwapFloor, ShortBudgetEndsInsideTheProbesWithinTheOvershootBound) {
  const ProbingInstance inst;
  Model model(inst.problem, 9, {});
  Result diag;
  ASSERT_EQ(solve_call(SearchEngine::kTimeResolved, model.solver(),
                       {model.depth_bound(8)}, 8, -1, Deadline(), diag),
            sat::LBool::kTrue);
  const Result incumbent = model.extract();
  ASSERT_GT(incumbent.swap_count, 3);

  const double budget_ms = 150.0;
  const auto start = std::chrono::steady_clock::now();
  const Result best = sweep_with_probes(inst.problem, model, incumbent, 8,
                                        Deadline(budget_ms));
  const double wall_ms = ms_since(start);

  EXPECT_LT(wall_ms, budget_ms + kOvershootMs);
  EXPECT_TRUE(best.hit_budget);
  ASSERT_FALSE(best.calls.empty());
  for (const SolveCall& call : best.calls) {
    EXPECT_EQ(call.depth_bound, -1);  // probes only...
    EXPECT_NE(call.status, 'P');      // ...and nothing pruned
  }
  EXPECT_EQ(best.calls.back().status, '?');
  EXPECT_EQ(best.swap_count, incumbent.swap_count);
}

TEST(SwapFloor, ShortTimeBudgetReturnsWithinTheOvershootBound) {
  const ProbingInstance inst;
  for (const double budget_ms : {100.0, 600.0}) {
    OptimizerOptions options;
    options.time_budget_ms = budget_ms;
    const auto start = std::chrono::steady_clock::now();
    const Result r = synthesize_swap_optimal(inst.problem, {}, options);
    const double wall_ms = ms_since(start);
    EXPECT_TRUE(r.hit_budget) << "budget " << budget_ms;
    EXPECT_LT(wall_ms, budget_ms + kOvershootMs) << "budget " << budget_ms;
  }
}

TEST(SwapFloor, PrunedCallsSayWhy) {
  // TB on the triangle: 2 blocks and 1 SWAP, so the UNSAT at (2 blocks,
  // <= 0) saturates the blocks and the relaxed step at 3 blocks is pruned
  // by the floor.
  const circuit::Circuit circ = triangle();
  const device::Device dev = device::grid(1, 3);
  const Problem problem{&circ, &dev, 1};
  obs::metrics::set_enabled(true);
  obs::metrics::Registry::instance().reset_all();
  obs::Trace::instance().begin_capture("");
  const Result r = tb_synthesize_swap_optimal(problem);
  const std::vector<obs::Event> events = obs::Trace::instance().snapshot();
  obs::Trace::instance().end_capture();
  ASSERT_FALSE(r.calls.empty());
  EXPECT_EQ(r.calls.back().depth_bound, 3);
  EXPECT_EQ(r.calls.back().swap_bound, 0);
  EXPECT_EQ(r.calls.back().status, 'P');

  const auto arg_of = [](const obs::Event& e, const std::string& key) {
    for (const obs::Arg& a : e.args) {
      if (a.key == key) return a.value;
    }
    return std::string();
  };
  int pruned_instants = 0;
  std::string last_floor;
  for (const obs::Event& e : events) {
    if (e.name == "olsq2.bound_pruned") {
      ++pruned_instants;
      EXPECT_EQ(arg_of(e, "reason"), "swap_floor");
    }
    if (e.name == "tb.swap_sweep") last_floor = arg_of(e, "swap_floor");
  }
  EXPECT_EQ(pruned_instants, 1);
  EXPECT_EQ(last_floor, "1");

  double floor_pruned = 0;
  for (const auto& family : obs::metrics::Registry::instance().snapshot()) {
    if (family.name != "layout_pruned_probes_total") continue;
    for (const auto& series : family.series) {
      if (series.labels ==
          obs::metrics::Labels{{"reason", "swap_floor"}}) {
        floor_pruned = series.value;
      }
    }
  }
  obs::metrics::set_enabled(false);
  EXPECT_EQ(floor_pruned, 1.0);
}

TEST(SwapFloor, PrunedRelaxationBuildsNoModel) {
  // TB on the 1-bit Cuccaro adder: the relaxation to 5 blocks has one
  // descent step, pruned by the floor, so it must not encode a 5-block model.
  const circuit::Circuit circ = bengen::cuccaro_adder(1);
  const device::Device dev = device::grid(2, 3);
  const Problem problem{&circ, &dev, 3};
  obs::Trace::instance().begin_capture("");
  const Result r = tb_synthesize_swap_optimal(problem);
  const std::vector<obs::Event> events = obs::Trace::instance().snapshot();
  obs::Trace::instance().end_capture();
  ASSERT_TRUE(r.solved);
  ASSERT_FALSE(r.calls.empty());
  EXPECT_EQ(r.calls.back().depth_bound, 5);
  EXPECT_EQ(r.calls.back().swap_bound, 2);
  EXPECT_EQ(r.calls.back().status, 'P');

  obs::TimeNs last_solve = -1;
  for (const obs::Event& e : events) {
    if (e.name == "tb.solve") last_solve = std::max(last_solve, e.ts);
  }
  ASSERT_GE(last_solve, 0);
  for (const obs::Event& e : events) {
    if (e.name == "tb.encode") {
      EXPECT_LT(e.ts, last_solve);
    }
  }
}

TEST(FixedProbe, ExpiredDeadlineReturnsHitBudgetWithoutSolving) {
  const circuit::Circuit circ = triangle();
  const device::Device dev = device::grid(1, 3);
  const Problem problem{&circ, &dev, 1};
  const Deadline deadline = expired_deadline();
  for (const Result& r : {tb_solve_fixed(problem, 2, 1, {}, deadline),
                          solve_fixed(problem, 6, 1, {}, deadline)}) {
    EXPECT_TRUE(r.hit_budget);
    EXPECT_FALSE(r.solved);
    EXPECT_EQ(r.sat_calls, 0);
    EXPECT_TRUE(r.calls.empty());
  }
}

TEST(FixedProbe, CancelTokenStopsTheProbe) {
  const circuit::Circuit circ = triangle();
  const device::Device dev = device::grid(1, 3);
  const Problem problem{&circ, &dev, 1};
  std::atomic<bool> cancel{true};
  const Result r = tb_solve_fixed(problem, 2, 1, {}, Deadline(0.0, &cancel));
  EXPECT_TRUE(r.hit_budget);
  EXPECT_FALSE(r.solved);
  ASSERT_EQ(r.calls.size(), 1u);
  EXPECT_EQ(r.calls[0].status, '?');
}

}  // namespace
}  // namespace olsq2::layout
