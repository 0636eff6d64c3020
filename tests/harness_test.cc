// Tests for the benchmark harness: sim/thread runners and reporting.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/report.h"
#include "harness/runner.h"
#include "locks/cna.h"
#include "locks/lock_api.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"

namespace cna {
namespace {

TEST(SimRunner, CountsOpsAndComputesThroughput) {
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, 4);
  auto result = harness::RunOnSim(
      cfg, /*threads=*/4, /*window_ns=*/100'000, [](int /*t*/) {
        return [] { SimPlatform::ExternalWork(1'000); };
      });
  EXPECT_EQ(result.threads, 4);
  EXPECT_EQ(result.per_thread_ops.size(), 4u);
  // Each op takes ~1us of a 100us window: ~100 ops per thread.
  for (auto ops : result.per_thread_ops) {
    EXPECT_NEAR(static_cast<double>(ops), 100.0, 2.0);
  }
  EXPECT_NEAR(result.throughput_mops, 4.0, 0.2);  // 4 ops per us aggregate
  EXPECT_NEAR(result.fairness, 0.5, 0.02);
}

TEST(SimRunner, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    sim::MachineConfig cfg;
    cfg.topology = numa::Topology::Uniform(2, 4);
    cfg.seed = 5;
    auto shared = std::make_shared<locks::CnaLock<SimPlatform>>();
    return harness::RunOnSim(cfg, 6, 200'000, [shared](int /*t*/) {
      return [shared] {
        locks::ScopedLock<locks::CnaLock<SimPlatform>> g(*shared);
        SimPlatform::ExternalWork(100);
      };
    });
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.per_thread_ops, b.per_thread_ops);
  EXPECT_DOUBLE_EQ(a.remote_miss_rate, b.remote_miss_rate);
}

TEST(SimRunner, ReportsCacheStats) {
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, 2);
  auto shared = std::make_shared<locks::CnaLock<SimPlatform>>();
  auto result = harness::RunOnSim(cfg, 4, 100'000, [shared](int) {
    return [shared] {
      locks::ScopedLock<locks::CnaLock<SimPlatform>> g(*shared);
    };
  });
  EXPECT_GT(result.cache_stats.Accesses(), 0u);
  EXPECT_GE(result.remote_miss_rate, 0.0);
  EXPECT_LE(result.remote_miss_rate, 1.0);
}

TEST(ThreadRunner, RunsForApproximatelyTheWindow) {
  auto result = harness::RunOnThreads(
      2, std::chrono::milliseconds(50), /*virtual_sockets=*/2,
      [](int) { return [] { RealPlatform::ExternalWork(1'000); }; });
  EXPECT_EQ(result.threads, 2);
  EXPECT_GT(result.total_ops, 0u);
  EXPECT_GT(result.duration_ns, 40'000'000u);
}

TEST(EnvOverrides, BenchWindowDefaultsWhenUnset) {
  unsetenv("CNA_BENCH_WINDOW_MS");
  EXPECT_EQ(harness::BenchWindowNs(123), 123u);
  setenv("CNA_BENCH_WINDOW_MS", "2", 1);
  EXPECT_EQ(harness::BenchWindowNs(123), 2'000'000u);
  setenv("CNA_BENCH_WINDOW_MS", "garbage", 1);
  EXPECT_EQ(harness::BenchWindowNs(123), 123u);
  unsetenv("CNA_BENCH_WINDOW_MS");
}

TEST(EnvOverrides, ClipThreads) {
  unsetenv("CNA_BENCH_MAX_THREADS");
  EXPECT_EQ(harness::ClipThreads({1, 2, 70}), (std::vector<int>{1, 2, 70}));
  setenv("CNA_BENCH_MAX_THREADS", "8", 1);
  EXPECT_EQ(harness::ClipThreads({1, 2, 16, 70}), (std::vector<int>{1, 2}));
  unsetenv("CNA_BENCH_MAX_THREADS");
}

TEST(SeriesTable, TextFormat) {
  harness::SeriesTable t("Figure X: demo", "threads", {"mcs", "cna"});
  t.AddRow(1, {5.30, 5.21});
  t.AddRow(70, {1.70, 2.40});
  const std::string text = t.ToText();
  EXPECT_NE(text.find("Figure X: demo"), std::string::npos);
  EXPECT_NE(text.find("threads"), std::string::npos);
  EXPECT_NE(text.find("mcs"), std::string::npos);
  EXPECT_NE(text.find("5.30"), std::string::npos);
  EXPECT_NE(text.find("70"), std::string::npos);
}

TEST(SeriesTable, LongSeriesNamesStaySeparated) {
  harness::SeriesTable t("fig", "threads",
                         {"CNA-opt misses/op", "C-BO-MCS misses/op"});
  t.AddRow(2, {9.49, 1.37});
  const std::string text = t.ToText();
  EXPECT_NE(text.find("CNA-opt misses/op  C-BO-MCS misses/op"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("9.49"), std::string::npos);
  EXPECT_NE(text.find(" 1.37"), std::string::npos);
}

TEST(SeriesTable, CsvFormat) {
  harness::SeriesTable t("fig", "threads", {"a", "b"});
  t.AddRow(2, {1.5, 2.5});
  const std::string csv = t.ToCsv(2);
  EXPECT_NE(csv.find("figure,threads,a,b"), std::string::npos);
  EXPECT_NE(csv.find("\"fig\",2,1.50,2.50"), std::string::npos);
}

TEST(SeriesTable, JsonFormat) {
  harness::SeriesTable t("fig \"quoted\"", "threads", {"a", "b"});
  t.AddRow(2, {1.5, 2.5});
  const std::string json = t.ToJson();
  EXPECT_NE(json.find("\"title\":\"fig \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"x_label\":\"threads\""), std::string::npos);
  EXPECT_NE(json.find("\"series\":[\"a\",\"b\"]"), std::string::npos);
  EXPECT_NE(json.find("[2,1.5,2.5]"), std::string::npos);
}

TEST(BenchJson, DocumentAccumulatesTablesAndCurves) {
  harness::ResetBenchJson();
  harness::SetBenchInfo("demo_bench", "threads=4 window_ns=1000");
  harness::SeriesTable t("throughput", "threads", {"cna"});
  t.AddRow(4, {3.25});
  t.Emit();  // prints the text table and adds the JSON form to the document
  harness::RecordRateCurve(
      "locktable.wait_ns", "acquisition rate",
      {telemetry::RatePoint{1'000'000, 2000.0},
       telemetry::RatePoint{2'000'000, 1500.0}});

  const std::string doc = harness::BenchJsonDocument();
  EXPECT_NE(doc.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"bench\":\"demo_bench\""), std::string::npos);
  EXPECT_NE(doc.find("\"config\":\"threads=4 window_ns=1000\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"title\":\"throughput\""), std::string::npos);
  EXPECT_NE(doc.find("\"metric\":\"locktable.wait_ns\""), std::string::npos);
  EXPECT_NE(doc.find("[1000000,2000]"), std::string::npos);

  harness::ResetBenchJson();
  EXPECT_EQ(harness::BenchJsonDocument().find("demo_bench"),
            std::string::npos);
}

TEST(BenchJson, FlushWritesToEnvPath) {
  harness::ResetBenchJson();
  harness::SetBenchInfo("flush_bench", "");
  const std::string path = "/tmp/cna_bench_json_test.json";
  setenv("CNA_BENCH_JSON", path.c_str(), 1);
  EXPECT_TRUE(harness::FlushBenchJson());
  unsetenv("CNA_BENCH_JSON");
  EXPECT_FALSE(harness::FlushBenchJson());  // no path -> no write

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"bench\":\"flush_bench\""), std::string::npos);
  std::remove(path.c_str());
  harness::ResetBenchJson();
}

}  // namespace
}  // namespace cna
