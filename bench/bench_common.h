// Shared configuration for the per-figure benchmark binaries.
//
// Fairness alignment: the paper configures all NUMA-aware locks "with similar
// fairness settings, that is, keeping the lock local to a socket for a
// similar number of lock handovers".  The simulated windows here are
// milliseconds (not the paper's 10-60 s), so the *stint-to-run-length ratio*
// is preserved rather than the absolute constants: CNA flushes its secondary
// queue with probability 1/256 (expected local streak 256) and Cohort/HMCS
// budgets are set to 256 local passes; THRESHOLD2 keeps the paper's
// THRESHOLD2/THRESHOLD ratio.  EXPERIMENTS.md discusses this scaling.
#ifndef CNA_BENCH_BENCH_COMMON_H_
#define CNA_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "apps/kv_bench.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "locks/cna.h"
#include "locks/cohort.h"
#include "locks/hmcs.h"
#include "locks/lock_api.h"
#include "locks/mcs.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"

namespace cna::bench {

struct BenchCnaConfig : locks::CnaDefaultConfig {
  static constexpr std::uint64_t kKeepLocalMask = 0xff;
};
struct BenchCnaOptConfig : BenchCnaConfig {
  static constexpr bool kShuffleReduction = true;
  // The paper pairs THRESHOLD2=0xff with THRESHOLD=0xffff (ratio 1/256).
  // Our windows scale THRESHOLD down 64x, so THRESHOLD2 scales with it --
  // otherwise the post-flush FIFO stretch (expected THRESHOLD2 handovers)
  // would consume a disproportionate share of each local stint.
  static constexpr std::uint64_t kShuffleMask = 0x1;
};
struct BenchCohortConfig : locks::CohortDefaultConfig {
  static constexpr std::uint32_t kLocalPassBudget = 256;
};
struct BenchHmcsConfig : locks::HmcsDefaultConfig {
  static constexpr std::uint64_t kPassThreshold = 256;
};

using Mcs = locks::McsLock<SimPlatform>;
using Cna = locks::CnaLock<SimPlatform, BenchCnaConfig>;
using CnaOpt = locks::CnaLock<SimPlatform, BenchCnaOptConfig>;
using CBoMcs = locks::CBoMcsLock<SimPlatform, BenchCohortConfig>;
using Hmcs = locks::HmcsLock<SimPlatform, BenchHmcsConfig>;

// The lock set the paper plots in its user-space figures.
inline const std::vector<std::string>& UserSpaceLockNames() {
  static const std::vector<std::string> names = {"MCS", "CNA", "CNA-opt",
                                                 "C-BO-MCS", "HMCS"};
  return names;
}

// Thread sweeps: representative points of the paper's 1..70 / 1..142 ranges.
inline std::vector<int> TwoSocketThreads() {
  return harness::ClipThreads({1, 2, 4, 8, 16, 32, 48, 70});
}
inline std::vector<int> FourSocketThreads() {
  return harness::ClipThreads({1, 2, 4, 8, 16, 36, 72, 142});
}

inline std::uint64_t DefaultWindowNs() {
  return harness::BenchWindowNs(8'000'000);  // 8 simulated ms per point
}

// Runs the key-value-map microbenchmark for lock L at one thread count.
template <typename L>
harness::RunResult RunKvPoint(const sim::MachineConfig& machine_cfg,
                              int threads, std::uint64_t window_ns,
                              const apps::KvBenchOptions& options) {
  auto bench = std::make_shared<apps::KvBench<SimPlatform, L>>(options);
  return harness::RunOnSim(machine_cfg, threads, window_ns, [bench](int t) {
    XorShift64 rng =
        XorShift64::FromSeed(0x4b5eed00 + static_cast<std::uint64_t>(t));
    return [bench, rng]() mutable { bench->Op(rng); };
  });
}

// Metric selectors for the kv sweep.
enum class Metric {
  kThroughput,
  kFairness,
  kRemoteMissRate,
  kRemoteMissesPerOp,
};

inline double SelectMetric(const harness::RunResult& r, Metric m) {
  switch (m) {
    case Metric::kThroughput: return r.throughput_mops;
    case Metric::kFairness: return r.fairness;
    case Metric::kRemoteMissRate: return r.remote_miss_rate;
    case Metric::kRemoteMissesPerOp:
      return r.total_ops == 0
                 ? 0.0
                 : static_cast<double>(r.cache_stats.remote_misses) /
                       static_cast<double>(r.total_ops);
  }
  return 0.0;
}

// Column suffix of a lock's second and later metrics in a KvSweepTable.
inline std::string MetricSuffix(Metric m) {
  switch (m) {
    case Metric::kThroughput: return " ops/us";
    case Metric::kFairness: return " fairness";
    case Metric::kRemoteMissRate: return " miss rate";
    case Metric::kRemoteMissesPerOp: return " misses/op";
  }
  return "";
}

// Full 5-lock kv sweep -> SeriesTable.  Each lock (UserSpaceLockNames()
// order) gets one column per metric from one run per point: its first
// metric's column carries the lock's name, the others the name plus the
// metric's suffix.
inline harness::SeriesTable KvSweepTable(
    const std::string& title, const sim::MachineConfig& machine_cfg,
    const std::vector<int>& threads, std::uint64_t window_ns,
    const apps::KvBenchOptions& options,
    std::initializer_list<Metric> metrics) {
  std::vector<std::string> series;
  for (const std::string& lock : UserSpaceLockNames()) {
    for (Metric m : metrics) {
      series.push_back(m == *metrics.begin() ? lock : lock + MetricSuffix(m));
    }
  }
  harness::SeriesTable table(title, "threads", series);
  for (int t : threads) {
    std::vector<double> row;
    const auto add = [&row, metrics](const harness::RunResult& r) {
      for (Metric m : metrics) {
        row.push_back(SelectMetric(r, m));
      }
    };
    add(RunKvPoint<Mcs>(machine_cfg, t, window_ns, options));
    add(RunKvPoint<Cna>(machine_cfg, t, window_ns, options));
    add(RunKvPoint<CnaOpt>(machine_cfg, t, window_ns, options));
    add(RunKvPoint<CBoMcs>(machine_cfg, t, window_ns, options));
    add(RunKvPoint<Hmcs>(machine_cfg, t, window_ns, options));
    table.AddRow(t, row);
  }
  return table;
}

}  // namespace cna::bench

#endif  // CNA_BENCH_BENCH_COMMON_H_
