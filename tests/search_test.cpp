// The shared bound-search driver (layout/search.h): the deadline, the SWAP
// sweep's budget contract and the fixed-bound probes run under a deadline.
#include "layout/search.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "device/presets.h"
#include "layout/model.h"
#include "layout/olsq2.h"
#include "layout/tb.h"

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

/// A sweep handed an expired deadline with a SWAP-bearing incumbent in
/// hand issues no call and must not claim the descent finished.
template <class M>
void expect_expired_sweep_reports_budget(SearchEngine engine) {
  const circuit::Circuit circ = triangle();
  const device::Device dev = device::grid(1, 3);
  const Problem problem{&circ, &dev, 1};
  M model(problem, 6, {});
  Result diag;
  ASSERT_EQ(solve_call(engine, model.solver(), {}, -1, -1, Deadline(), diag),
            sat::LBool::kTrue);
  const Result incumbent = model.extract();
  ASSERT_GT(incumbent.swap_count, 0);

  const Deadline deadline = expired_deadline();
  Result sweep_diag;
  const ModelAt model_at = [&](int) -> SweepModel& { return model; };
  Result best = sweep_swaps(engine, model, model_at, incumbent,
                            incumbent.depth, FactHub{}, deadline, sweep_diag);
  EXPECT_TRUE(sweep_diag.calls.empty());
  EXPECT_FALSE(sweep_diag.hit_budget);  // no call ran out of budget...
  finish(best, sweep_diag, deadline);
  EXPECT_TRUE(best.hit_budget);  // ...but the proof is unfinished
  EXPECT_EQ(best.swap_count, incumbent.swap_count);
  ASSERT_EQ(best.pareto.size(), 1u);
}

TEST(SweepSwaps, ExpiredDeadlineReportsHitBudgetTimeResolved) {
  expect_expired_sweep_reports_budget<Model>(SearchEngine::kTimeResolved);
}

TEST(SweepSwaps, ExpiredDeadlineReportsHitBudgetTransitionBased) {
  expect_expired_sweep_reports_budget<TbModel>(
      SearchEngine::kTransitionBased);
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
