// Figure 14: locktorture on the 4-socket machine.  Same experiment as
// Figure 13 with a costlier remote hop: the paper reports the CNA-vs-stock
// gap growing to ~65% (default) and ~99% (lockstat) at 142 threads.
#include "bench_common.h"
#include "locktorture_common.h"

int main() {
  using namespace cna;
  using namespace cna::bench;

  const auto machine = sim::MachineConfig::FourSocket();
  const auto threads = FourSocketThreads();
  const auto window = DefaultWindowNs();
  harness::SetBenchInfo(
      "fig14_locktorture_4s",
      "threads_max=" + std::to_string(threads.back()) +
          " window_ns=" + std::to_string(window));

  LockTortureSweep(
      "Figure 14(a): locktorture total lock ops (ops/us), 4-socket, lockstat "
      "disabled",
      machine, threads, window, /*lockstat=*/false);
  LockTortureSweep(
      "Figure 14(b): locktorture total lock ops (ops/us), 4-socket, lockstat "
      "enabled",
      machine, threads, window, /*lockstat=*/true);
  return 0;
}
