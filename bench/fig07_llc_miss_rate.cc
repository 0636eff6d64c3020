// Figure 7: LLC load-miss rate for the Figure 6 workload.
//
// The paper measures LLC-load-misses with perf; the simulator substitutes the
// directory's exact remote-miss ratio (misses that cross sockets / memory
// accesses).  Expected shape: a sharp increase between 1 and 2 threads for
// every lock; beyond that MCS stays high while all NUMA-aware locks
// (including CNA) drop.
//
// Each lock also gets a remote-misses-per-op column.  The per-access rate
// alone cannot rank two versions of one lock: a change that saves local
// loads shrinks its denominator and raises the rate even when remote misses
// per op fall.
#include "bench_common.h"

int main() {
  using namespace cna;
  using namespace cna::bench;

  const auto threads = TwoSocketThreads();
  const auto window = DefaultWindowNs();
  harness::SetBenchInfo(
      "fig07_llc_miss_rate",
      "threads_max=" + std::to_string(threads.back()) +
          " window_ns=" + std::to_string(window) + " key_range=1024");

  apps::KvBenchOptions kv;
  kv.key_range = 1024;
  kv.update_pct = 20;

  KvSweepTable(
      "Figure 7: remote-miss rate (fraction of memory accesses) and remote "
      "misses per op, 2-socket, Figure 6 workload",
      sim::MachineConfig::TwoSocket(), threads, window, kv,
      {Metric::kRemoteMissRate, Metric::kRemoteMissesPerOp})
      .Emit();
  return 0;
}
