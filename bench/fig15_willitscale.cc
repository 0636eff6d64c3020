// Figure 15: will-it-scale microbenchmarks (lock1/lock2/open1/open2) over
// MiniVfs, stock kernel (qspinlock-MCS) versus CNA kernel (qspinlock-CNA).
//
// Expected shape per the paper: both kernels match while the benchmark still
// scales; near the peak the CNA kernel is ~10% below stock (queue shuffling
// without payoff); past the peak stock degrades while CNA holds close to
// peak, ending 42-57% ahead at 70 threads.
#include <memory>

#include "bench_common.h"
#include "kernel/will_it_scale.h"

namespace {

using namespace cna;
using namespace cna::bench;

template <qspin::SlowPathKind K>
double WisPoint(kernel::WisBenchmark b, int threads,
                std::uint64_t window_ns) {
  kernel::MiniVfsOptions vfs_options;
  vfs_options.max_fds = 4096;
  auto bench = std::make_shared<kernel::WillItScale<SimPlatform, K>>(
      b, threads, vfs_options);
  auto result = harness::RunOnSim(
      sim::MachineConfig::TwoSocket(), threads, window_ns, [bench](int t) {
        return [bench, t] { bench->Op(t); };
      });
  return result.throughput_mops;
}

}  // namespace

int main() {
  // will-it-scale ops are several microseconds long (mostly non-critical
  // work), so use a wider window than the short-op figures for stable stats.
  const std::uint64_t window = DefaultWindowNs() * 3;
  harness::SetBenchInfo(
      "fig15_willitscale",
      "threads_max=" + std::to_string(TwoSocketThreads().back()) +
          " window_ns=" + std::to_string(window));
  for (auto b : kernel::AllWisBenchmarks()) {
    harness::SeriesTable table(
        std::string("Figure 15: will-it-scale ") + kernel::WisBenchmarkName(b) +
            " (ops/us), 2-socket, stock vs CNA kernel",
        "threads", {"stock", "CNA"});
    for (int t : TwoSocketThreads()) {
      table.AddRow(t, {WisPoint<qspin::SlowPathKind::kMcs>(b, t, window),
                       WisPoint<qspin::SlowPathKind::kCna>(b, t, window)});
    }
    table.Emit();
  }
  return 0;
}
