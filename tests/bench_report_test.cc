// Tests for the perf-telemetry pipeline: the slim-bench-v1 serializer
// (bench/bench_json.h, the writer side used by SLIM_BENCH_MAIN) and the
// bench_report diff tool (tools/bench_report/report.h, the reader side CI
// gates on). The round-trip test pins the schema contract between them.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "tools/bench_report/report.h"

namespace slim {
namespace {

bench::BenchReportData MakeReport() {
  bench::BenchReportData report;
  report.bench_name = "query";
  report.git_sha = "abc1234";
  report.build_flags = "RelWithDebInfo -O2";
  report.obs_enabled = true;
  bench::BenchEntry e;
  e.name = "BM_QueryExecute/1024";
  e.time_unit = "us";
  e.iterations = 4096;
  e.repetitions = 3;
  e.real_p50 = 12.5;
  e.real_p95 = 13.25;
  e.cpu_p50 = 12.0;
  e.cpu_p95 = 13.0;
  e.counters = {{"selects_per_iter", 5.0}};
  report.entries.push_back(e);
  bench::BenchEntry e2;
  e2.name = "BM_QueryParse";
  e2.time_unit = "ns";
  e2.iterations = 100000;
  e2.repetitions = 1;
  e2.real_p50 = 800;
  e2.real_p95 = 800;
  e2.cpu_p50 = 799;
  e2.cpu_p95 = 799;
  report.entries.push_back(e2);
  return report;
}

TEST(BenchJsonTest, PercentileIsNearestRank) {
  EXPECT_EQ(bench::Percentile({}, 50), 0.0);
  EXPECT_EQ(bench::Percentile({7.0}, 50), 7.0);
  EXPECT_EQ(bench::Percentile({7.0}, 95), 7.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(bench::Percentile(hundred, 50), 50.0);
  EXPECT_EQ(bench::Percentile(hundred, 95), 95.0);
  EXPECT_EQ(bench::Percentile(hundred, 100), 100.0);
  // Order-independent: Percentile sorts its own copy.
  EXPECT_EQ(bench::Percentile({30.0, 10.0, 20.0}, 50), 20.0);
}

TEST(BenchJsonTest, JsonNumberKeepsIntegersIntegral) {
  EXPECT_EQ(bench::JsonNumber(42), "42");
  EXPECT_EQ(bench::JsonNumber(-3), "-3");
  EXPECT_EQ(bench::JsonNumber(12.5), "12.5");
}

TEST(BenchReportTest, WriterToolRoundTrip) {
  bench::BenchReportData report = MakeReport();
  std::string json = bench::BenchReportToJson(report);

  tools::BenchFile parsed;
  std::string error;
  ASSERT_TRUE(tools::ParseBenchJson(json, &parsed, &error)) << error;
  EXPECT_EQ(parsed.schema, bench::kBenchJsonSchema);
  EXPECT_EQ(parsed.bench, "query");
  EXPECT_EQ(parsed.git_sha, "abc1234");
  EXPECT_EQ(parsed.build_flags, "RelWithDebInfo -O2");
  EXPECT_TRUE(parsed.obs_enabled);
  ASSERT_EQ(parsed.benchmarks.size(), 2u);
  const tools::BenchmarkResult& b = parsed.benchmarks[0];
  EXPECT_EQ(b.name, "BM_QueryExecute/1024");
  EXPECT_EQ(b.time_unit, "us");
  EXPECT_EQ(b.iterations, 4096u);
  EXPECT_EQ(b.repetitions, 3u);
  EXPECT_DOUBLE_EQ(b.real_p50, 12.5);
  EXPECT_DOUBLE_EQ(b.real_p95, 13.25);
  ASSERT_EQ(b.counters.size(), 1u);
  EXPECT_EQ(b.counters[0].first, "selects_per_iter");
  EXPECT_DOUBLE_EQ(b.counters[0].second, 5.0);
}

TEST(BenchReportTest, RejectsMalformedAndForeignDocuments) {
  tools::BenchFile out;
  std::string error;
  EXPECT_FALSE(tools::ParseBenchJson("not json at all", &out, &error));
  EXPECT_FALSE(error.empty());

  error.clear();
  EXPECT_FALSE(tools::ParseBenchJson("{\"truncated\":", &out, &error));
  EXPECT_FALSE(error.empty());

  // Valid JSON, wrong schema tag: the tool must refuse to diff it.
  error.clear();
  EXPECT_FALSE(tools::ParseBenchJson(
      "{\"schema\":\"google-benchmark\",\"benchmarks\":[]}", &out, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
}

TEST(BenchReportTest, IdenticalFilesHaveNoRegressions) {
  bench::BenchReportData report = MakeReport();
  std::string json = bench::BenchReportToJson(report);
  tools::BenchFile file;
  std::string error;
  ASSERT_TRUE(tools::ParseBenchJson(json, &file, &error)) << error;

  tools::DiffReport diff = tools::DiffBenchFiles(file, file, 10.0);
  EXPECT_EQ(diff.regressions, 0);
  EXPECT_TRUE(diff.comparable);
  ASSERT_EQ(diff.rows.size(), 2u);
  for (const tools::DiffRow& row : diff.rows) {
    EXPECT_FALSE(row.regression);
    EXPECT_DOUBLE_EQ(row.delta_pct, 0.0);
  }
  EXPECT_EQ(tools::DiffExitCode(diff, /*gating=*/true), 0);
}

TEST(BenchReportTest, DoubledLatencyIsARegression) {
  bench::BenchReportData old_report = MakeReport();
  bench::BenchReportData new_report = MakeReport();
  new_report.entries[0].real_p50 *= 2;  // +100% versus a 10% threshold

  tools::BenchFile older, newer;
  std::string error;
  ASSERT_TRUE(tools::ParseBenchJson(bench::BenchReportToJson(old_report),
                                    &older, &error));
  ASSERT_TRUE(tools::ParseBenchJson(bench::BenchReportToJson(new_report),
                                    &newer, &error));

  tools::DiffReport diff = tools::DiffBenchFiles(older, newer, 10.0);
  EXPECT_EQ(diff.regressions, 1);
  ASSERT_EQ(diff.rows.size(), 2u);
  EXPECT_TRUE(diff.rows[0].regression);
  EXPECT_DOUBLE_EQ(diff.rows[0].delta_pct, 100.0);
  EXPECT_FALSE(diff.rows[1].regression);

  // Gating run fails CI; --report-only keeps the pipeline green.
  EXPECT_EQ(tools::DiffExitCode(diff, /*gating=*/true), 1);
  EXPECT_EQ(tools::DiffExitCode(diff, /*gating=*/false), 0);

  std::string table = tools::FormatDiff(diff);
  EXPECT_NE(table.find("BM_QueryExecute/1024"), std::string::npos);
}

TEST(BenchReportTest, ImprovementAndUnderThresholdDoNotRegress) {
  bench::BenchReportData old_report = MakeReport();
  bench::BenchReportData new_report = MakeReport();
  new_report.entries[0].real_p50 *= 0.5;   // 2x faster
  new_report.entries[1].real_p50 *= 1.05;  // +5% < 10% threshold

  tools::BenchFile older, newer;
  std::string error;
  ASSERT_TRUE(tools::ParseBenchJson(bench::BenchReportToJson(old_report),
                                    &older, &error));
  ASSERT_TRUE(tools::ParseBenchJson(bench::BenchReportToJson(new_report),
                                    &newer, &error));
  tools::DiffReport diff = tools::DiffBenchFiles(older, newer, 10.0);
  EXPECT_EQ(diff.regressions, 0);
  EXPECT_EQ(tools::DiffExitCode(diff, /*gating=*/true), 0);
}

TEST(BenchReportTest, AppearingAndDisappearingFamiliesNeverRegress) {
  bench::BenchReportData old_report = MakeReport();
  bench::BenchReportData new_report = MakeReport();
  new_report.entries.erase(new_report.entries.begin());  // first disappears
  bench::BenchEntry added;
  added.name = "BM_Brand/New";
  added.real_p50 = 1;
  new_report.entries.push_back(added);

  tools::BenchFile older, newer;
  std::string error;
  ASSERT_TRUE(tools::ParseBenchJson(bench::BenchReportToJson(old_report),
                                    &older, &error));
  ASSERT_TRUE(tools::ParseBenchJson(bench::BenchReportToJson(new_report),
                                    &newer, &error));
  tools::DiffReport diff = tools::DiffBenchFiles(older, newer, 10.0);
  EXPECT_EQ(diff.regressions, 0);

  bool saw_old_only = false, saw_new_only = false;
  for (const tools::DiffRow& row : diff.rows) {
    if (row.name == "BM_QueryExecute/1024") {
      EXPECT_TRUE(row.only_in_old);
      saw_old_only = true;
    }
    if (row.name == "BM_Brand/New") {
      EXPECT_TRUE(row.only_in_new);
      saw_new_only = true;
    }
  }
  EXPECT_TRUE(saw_old_only);
  EXPECT_TRUE(saw_new_only);
}

TEST(BenchReportTest, ObsMismatchFlagsIncomparable) {
  bench::BenchReportData on_report = MakeReport();
  bench::BenchReportData off_report = MakeReport();
  off_report.obs_enabled = false;

  tools::BenchFile on_file, off_file;
  std::string error;
  ASSERT_TRUE(tools::ParseBenchJson(bench::BenchReportToJson(on_report),
                                    &on_file, &error));
  ASSERT_TRUE(tools::ParseBenchJson(bench::BenchReportToJson(off_report),
                                    &off_file, &error));
  tools::DiffReport diff = tools::DiffBenchFiles(on_file, off_file, 10.0);
  EXPECT_FALSE(diff.comparable);
}

// Files from different build configs get no verdict: the warning names
// both values and a gating run exits 2 even with no regression.
TEST(BenchReportTest, BuildFlagsMismatchIsIncomparableAndGatingExits2) {
  bench::BenchReportData o2_report = MakeReport();
  bench::BenchReportData o3_report = MakeReport();
  o3_report.build_flags = "Release -O3 -DNDEBUG";

  tools::BenchFile o2_file, o3_file;
  std::string error;
  ASSERT_TRUE(tools::ParseBenchJson(bench::BenchReportToJson(o2_report),
                                    &o2_file, &error));
  ASSERT_TRUE(tools::ParseBenchJson(bench::BenchReportToJson(o3_report),
                                    &o3_file, &error));
  tools::DiffReport diff = tools::DiffBenchFiles(o2_file, o3_file, 10.0);
  EXPECT_FALSE(diff.comparable);
  EXPECT_EQ(diff.regressions, 0);
  EXPECT_EQ(tools::DiffExitCode(diff, /*gating=*/true), 2);
  EXPECT_EQ(tools::DiffExitCode(diff, /*gating=*/false), 0);
  std::string text = tools::FormatDiff(diff);
  EXPECT_NE(text.find("WARNING: not comparable (build_flags "
                      "'RelWithDebInfo -O2' vs 'Release -O3 -DNDEBUG')"),
            std::string::npos)
      << text;
}

TEST(BenchReportTest, LoadsFromDiskAndRejectsMissingFiles) {
  std::string path = ::testing::TempDir() + "/slim_bench_report_test.json";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << bench::BenchReportToJson(MakeReport());
  }
  tools::BenchFile file;
  std::string error;
  ASSERT_TRUE(tools::LoadBenchJson(path, &file, &error)) << error;
  EXPECT_EQ(file.bench, "query");
  std::remove(path.c_str());

  error.clear();
  EXPECT_FALSE(tools::LoadBenchJson(path + ".missing", &file, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace slim
