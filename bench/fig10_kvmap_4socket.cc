// Figure 10: the Figure 6 workload on the (simulated) 4-socket machine,
// up to 142 threads.
//
// Expected shape: qualitatively identical to Figure 6, but the CNA-vs-MCS gap
// roughly doubles (~97% at 142 threads in the paper) because the remote cache
// miss is costlier on the 4-socket box -- visible here through the larger
// remote_miss_ns in MachineConfig::FourSocket().
#include "bench_common.h"

int main() {
  using namespace cna;
  using namespace cna::bench;

  apps::KvBenchOptions kv;
  kv.key_range = 1024;
  kv.update_pct = 20;

  const auto threads = FourSocketThreads();
  const auto window = DefaultWindowNs();
  harness::SetBenchInfo(
      "fig10_kvmap_4socket",
      "threads_max=" + std::to_string(threads.back()) +
          " window_ns=" + std::to_string(window) + " key_range=1024");

  KvSweepTable(
      "Figure 10: key-value map total throughput (ops/us), 4-socket, "
      "Figure 6 workload",
      sim::MachineConfig::FourSocket(), threads, window, kv,
      {Metric::kThroughput})
      .Emit();
  return 0;
}
