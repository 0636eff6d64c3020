// Figure 6: total throughput for the key-value map microbenchmark on the
// (simulated) 2-socket machine.  Key range 1024, 80% lookups / 20% updates,
// no external work -- "substantial contention on the lock protecting the
// tree and absolutely no scalability".
//
// Expected shape (paper): MCS collapses between 1 and 2 threads then stays
// flat; CNA matches MCS at 1-2 threads and pulls ~40% ahead by 70 threads;
// C-BO-MCS rides high on unfairness; HMCS leads CNA by a narrow margin.
// Also reproduces the update-only (100% updates) variant discussed in the
// text, where NUMA-aware locks gain even more (~50%).
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace cna;
  using namespace cna::bench;

  const auto machine = sim::MachineConfig::TwoSocket();
  const auto threads = TwoSocketThreads();
  const auto window = DefaultWindowNs();
  harness::SetBenchInfo(
      "fig06_kvmap_throughput",
      "threads_max=" + std::to_string(threads.back()) +
          " window_ns=" + std::to_string(window) + " key_range=1024");

  apps::KvBenchOptions kv;
  kv.key_range = 1024;
  kv.update_pct = 20;
  kv.external_work_ns = 0;

  KvSweepTable(
      "Figure 6: key-value map total throughput (ops/us), 2-socket, "
      "1024 keys, 80/20 lookup/update, no external work",
      machine, threads, window, kv, {Metric::kThroughput})
      .Emit();

  apps::KvBenchOptions update_only = kv;
  update_only.update_pct = 100;
  KvSweepTable(
      "Section 7.1.1 variant: update-only workload (ops/us), 2-socket",
      machine, threads, window, update_only, {Metric::kThroughput})
      .Emit();
  return 0;
}
