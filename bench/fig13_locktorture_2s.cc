// Figure 13: locktorture on the 2-socket machine -- the kernel qspinlock with
// the stock MCS slow path versus the CNA slow path.
//
//   (a) default config: CNA pulls ahead of stock beyond 4 threads (~14% at
//       70 threads in the paper).
//   (b) lockstat enabled: each acquisition updates shared statistics inside
//       the critical section, so keeping the lock on-socket also keeps that
//       data on-socket -- the gap widens (~32%).
#include "bench_common.h"
#include "locktorture_common.h"

int main() {
  using namespace cna;
  using namespace cna::bench;

  const auto machine = sim::MachineConfig::TwoSocket();
  const auto threads = TwoSocketThreads();
  const auto window = DefaultWindowNs();
  harness::SetBenchInfo(
      "fig13_locktorture_2s",
      "threads_max=" + std::to_string(threads.back()) +
          " window_ns=" + std::to_string(window));

  LockTortureSweep(
      "Figure 13(a): locktorture total lock ops (ops/us), 2-socket, lockstat "
      "disabled",
      machine, threads, window, /*lockstat=*/false);
  LockTortureSweep(
      "Figure 13(b): locktorture total lock ops (ops/us), 2-socket, lockstat "
      "enabled",
      machine, threads, window, /*lockstat=*/true);
  return 0;
}
