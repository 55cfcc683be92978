// Benchdiff semantics: key classification, thresholds, noise floor, config
// fencing, and robustness to array reordering. Documents mimic the
// BENCH_serve.json / BENCH_plan.json schemas (bench/common.h json_stamp +
// emitter bodies).
#include <string>

#include <gtest/gtest.h>

#include "tools/benchdiff.h"

namespace olsq2::tools {
namespace {

std::string serve_doc(const std::string& sha, double wall_ms, double speedup,
                      int hits, double budget_ms = 2000) {
  return "{\"schema_version\":1,\"bench\":\"serve\",\"git_sha\":\"" + sha +
         "\",\"timestamp\":\"2026-01-01T00:00:00Z\",\"peak_rss_bytes\":1000," +
         "\"budget_ms\":" + std::to_string(budget_ms) +
         ",\"dups\":7,\"requests\":32,\"duplicate_share\":0.875," +
         "\"uncached\":{\"wall_ms\":" + std::to_string(wall_ms * speedup) +
         ",\"solves\":32},\"cached\":{\"wall_ms\":" + std::to_string(wall_ms) +
         ",\"solves\":4,\"hits\":" + std::to_string(hits) +
         "},\"speedup\":" + std::to_string(speedup) + "}";
}

TEST(BenchDiff, IdenticalDocumentsPass) {
  const std::string doc = serve_doc("abc1234", 100, 8, 28);
  const DiffReport r = diff_bench_json(doc, doc);
  EXPECT_EQ(r.status, DiffStatus::kOk);
  EXPECT_TRUE(r.regressions.empty());
  EXPECT_TRUE(r.mismatches.empty());
}

TEST(BenchDiff, ShaAndTimestampDifferencesAreIgnored) {
  const DiffReport r = diff_bench_json(serve_doc("abc1234", 100, 8, 28),
                                       serve_doc("def5678", 100, 8, 28));
  EXPECT_EQ(r.status, DiffStatus::kOk);
}

TEST(BenchDiff, TimingRegressionBeyondThresholdFails) {
  // 100ms -> 130ms = +30% against a 15% gate.
  const DiffReport r = diff_bench_json(serve_doc("a", 100, 8, 28),
                                       serve_doc("a", 130, 8, 28));
  EXPECT_EQ(r.status, DiffStatus::kRegression);
  ASSERT_FALSE(r.regressions.empty());
}

TEST(BenchDiff, TimingWithinThresholdPasses) {
  const DiffReport r = diff_bench_json(serve_doc("a", 100, 8, 28),
                                       serve_doc("a", 110, 8, 28));
  EXPECT_EQ(r.status, DiffStatus::kOk);
}

TEST(BenchDiff, NoiseFloorSuppressesTinyTimings) {
  // 2ms -> 10ms is a 5x "regression" but below the 20ms floor.
  DiffOptions options;
  options.min_ms = 20.0;
  const std::string base = "{\"schema_version\":1,\"wall_ms\":2}";
  const std::string cur = "{\"schema_version\":1,\"wall_ms\":10}";
  EXPECT_EQ(diff_bench_json(base, cur, options).status, DiffStatus::kOk);
  // Crossing the floor gates again.
  const std::string slow = "{\"schema_version\":1,\"wall_ms\":25}";
  EXPECT_EQ(diff_bench_json(base, slow, options).status,
            DiffStatus::kRegression);
}

TEST(BenchDiff, SpeedupCollapseFailsButModerateDropPasses) {
  // Ratio keys use the wider max_ratio_drop tolerance (default 50%):
  // speedup compounds the noise of two wall-time measurements.
  const std::string base = "{\"schema_version\":1,\"speedup\":8.0}";
  const std::string collapsed = "{\"schema_version\":1,\"speedup\":2.0}";
  const std::string noisy = "{\"schema_version\":1,\"speedup\":5.5}";
  EXPECT_EQ(diff_bench_json(base, collapsed).status, DiffStatus::kRegression);
  EXPECT_EQ(diff_bench_json(base, noisy).status, DiffStatus::kOk);
}

TEST(BenchDiff, CacheHitCountChangeFails) {
  const DiffReport r = diff_bench_json(serve_doc("a", 100, 8, 28),
                                       serve_doc("a", 100, 8, 20));
  EXPECT_EQ(r.status, DiffStatus::kRegression);
}

TEST(BenchDiff, BudgetMismatchIsNotComparable) {
  const DiffReport r =
      diff_bench_json(serve_doc("a", 100, 8, 28, 2000),
                      serve_doc("a", 100, 8, 28, 30000));
  EXPECT_EQ(r.status, DiffStatus::kError);
  ASSERT_FALSE(r.mismatches.empty());
}

TEST(BenchDiff, SchemaVersionMismatchIsNotComparable) {
  const std::string v2 =
      "{\"schema_version\":2,\"bench\":\"serve\",\"speedup\":8}";
  const std::string v1 =
      "{\"schema_version\":1,\"bench\":\"serve\",\"speedup\":8}";
  EXPECT_EQ(diff_bench_json(v1, v2).status, DiffStatus::kError);
}

TEST(BenchDiff, MissingGatedKeyFails) {
  const std::string base = "{\"schema_version\":1,\"wall_ms\":100}";
  const std::string cur = "{\"schema_version\":1}";
  const DiffReport r = diff_bench_json(base, cur);
  EXPECT_EQ(r.status, DiffStatus::kRegression);
}

TEST(BenchDiff, ExtraKeysInCurrentAreNotes) {
  const std::string base = "{\"schema_version\":1,\"wall_ms\":100}";
  const std::string cur =
      "{\"schema_version\":1,\"wall_ms\":100,\"new_counter\":5}";
  const DiffReport r = diff_bench_json(base, cur);
  EXPECT_EQ(r.status, DiffStatus::kOk);
  ASSERT_EQ(r.notes.size(), 1u);
}

TEST(BenchDiff, MalformedInputIsError) {
  EXPECT_EQ(diff_bench_json("{not json", "{}").status, DiffStatus::kError);
  EXPECT_EQ(diff_bench_json("{}", "{\"a\":").status, DiffStatus::kError);
}

TEST(BenchDiff, ArrayElementsMatchByNameAcrossReordering) {
  const std::string base =
      "{\"schema_version\":1,\"benchmarks\":["
      "{\"name\":\"ghz5\",\"median_ms\":100},"
      "{\"name\":\"bv5\",\"median_ms\":200}]}";
  const std::string reordered =
      "{\"schema_version\":1,\"benchmarks\":["
      "{\"name\":\"bv5\",\"median_ms\":200},"
      "{\"name\":\"ghz5\",\"median_ms\":100}]}";
  EXPECT_EQ(diff_bench_json(base, reordered).status, DiffStatus::kOk);

  const std::string regressed =
      "{\"schema_version\":1,\"benchmarks\":["
      "{\"name\":\"bv5\",\"median_ms\":200},"
      "{\"name\":\"ghz5\",\"median_ms\":400}]}";
  const DiffReport r = diff_bench_json(base, regressed);
  EXPECT_EQ(r.status, DiffStatus::kRegression);
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_NE(r.regressions[0].find("ghz5"), std::string::npos);
}

TEST(BenchDiff, InfoKeysNeverGate) {
  // swap_count is info: in a depth run the SWAP count is a by-product,
  // not an optimum, and any search change may move it.
  const std::string base =
      "{\"schema_version\":1,\"peak_rss_bytes\":1000,\"swap_count\":1,"
      "\"clauses_published\":50,\"runs_ms\":[10,20,30]}";
  const std::string cur =
      "{\"schema_version\":1,\"peak_rss_bytes\":900000,\"swap_count\":0,"
      "\"clauses_published\":2,\"runs_ms\":[99,99,99]}";
  EXPECT_EQ(diff_bench_json(base, cur).status, DiffStatus::kOk);
}

TEST(BenchDiff, CertifiedSwapCountChangeFails) {
  // The subarch and plan benches solve for the SWAP optimum: a solved
  // row's swap_count is certified, so a changed one is a wrong answer. An
  // unsolved row's count certifies nothing and stays info.
  const auto doc = [](const std::string& bench, int solved_swaps,
                      int unsolved_swaps) {
    return "{\"schema_version\":1,\"bench\":\"" + bench +
           "\",\"budget_ms\":2000,\"cases\":[{\"name\":\"qaoaK4/grid8x8\","
           "\"solved\":true,\"swap_count\":" +
           std::to_string(solved_swaps) +
           ",\"probes\":4},{\"name\":\"bvstar5/eagle127\",\"solved\":false,"
           "\"swap_count\":" +
           std::to_string(unsolved_swaps) + "}]}";
  };
  for (const std::string bench : {"subarch", "plan"}) {
    SCOPED_TRACE(bench);
    const DiffReport wrong = diff_bench_json(doc(bench, 2, 3), doc(bench, 1, 3));
    EXPECT_EQ(wrong.status, DiffStatus::kRegression);
    ASSERT_EQ(wrong.regressions.size(), 1u);
    EXPECT_NE(wrong.regressions[0].find("qaoaK4/grid8x8"), std::string::npos);
    EXPECT_EQ(diff_bench_json(doc(bench, 2, 3), doc(bench, 2, 5)).status,
              DiffStatus::kOk);
  }
  // A depth-objective bench keeps swap_count as a by-product.
  EXPECT_EQ(diff_bench_json(doc("table3", 2, 3), doc("table3", 1, 3)).status,
            DiffStatus::kOk);
}

TEST(BenchDiff, FlattenAndLeafName) {
  const FlatDoc doc = flatten_json(
      "{\"a\":{\"b_ms\":1.5},\"list\":[true,false],\"s\":\"x\"}", "test");
  EXPECT_EQ(doc.numbers.at("a.b_ms"), 1.5);
  EXPECT_EQ(doc.numbers.at("list[0]"), 1.0);
  EXPECT_EQ(doc.numbers.at("list[1]"), 0.0);
  EXPECT_EQ(doc.strings.at("s"), "x");

  EXPECT_EQ(leaf_name("benchmarks[ghz5].threads[0].median_ms"), "median_ms");
  EXPECT_EQ(leaf_name("runs_ms[2]"), "runs_ms");
  EXPECT_EQ(leaf_name("speedup"), "speedup");
}

}  // namespace
}  // namespace olsq2::tools
