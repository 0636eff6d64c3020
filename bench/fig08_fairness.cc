// Figure 8: long-term fairness factor for the Figure 6 workload.
//
// Fairness factor = share of all operations performed by the top half of the
// threads (0.5 = strictly fair, ~1 = starvation).  Expected shape: MCS pinned
// at 0.5 (strict FIFO); HMCS close to it; CNA slightly above but mostly below
// 0.6; C-BO-MCS close to 1 (the backoff-TAS starvation behaviour).
#include "bench_common.h"

int main() {
  using namespace cna;
  using namespace cna::bench;

  apps::KvBenchOptions kv;
  kv.key_range = 1024;
  kv.update_pct = 20;

  // Fairness is only meaningful with at least 2 threads.
  std::vector<int> threads;
  for (int t : TwoSocketThreads()) {
    if (t >= 2) {
      threads.push_back(t);
    }
  }
  harness::SetBenchInfo(
      "fig08_fairness",
      "threads_max=" + std::to_string(threads.back()) +
          " window_ns=" + std::to_string(DefaultWindowNs()));

  KvSweepTable(
      "Figure 8: fairness factor (0.5 fair .. 1 unfair), 2-socket, "
      "Figure 6 workload",
      sim::MachineConfig::TwoSocket(), threads, DefaultWindowNs(), kv,
      {Metric::kFairness})
      .Emit();
  return 0;
}
