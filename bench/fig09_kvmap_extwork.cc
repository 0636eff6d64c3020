// Figure 9: key-value map microbenchmark WITH external (non-critical) work,
// 2-socket machine.
//
// Expected shape: the benchmark scales to ~8-16 threads; MCS peaks early and
// flattens; NUMA-aware locks keep a substantial margin.  CNA dips slightly
// below MCS around 4 threads (queue shuffling without payoff) and the
// shuffle-reduction variant "CNA (opt)" closes that gap -- the paper's
// Section 6 experiment.
#include "bench_common.h"

int main() {
  using namespace cna;
  using namespace cna::bench;

  apps::KvBenchOptions kv;
  kv.key_range = 1024;
  kv.update_pct = 20;
  kv.external_work_ns = 2'000;  // lets the benchmark scale to ~2 sockets' worth

  const auto threads = TwoSocketThreads();
  const auto window = DefaultWindowNs();
  harness::SetBenchInfo(
      "fig09_kvmap_extwork",
      "threads_max=" + std::to_string(threads.back()) +
          " window_ns=" + std::to_string(window) +
          " key_range=1024 external_work_ns=2000");

  KvSweepTable(
      "Figure 9: key-value map throughput with external work (ops/us), "
      "2-socket",
      sim::MachineConfig::TwoSocket(), threads, window, kv,
      {Metric::kThroughput})
      .Emit();
  return 0;
}
