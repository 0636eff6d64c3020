// Figure 12: Kyoto Cabinet kccachetest "wicked" throughput (via MiniKyotoDb,
// src/apps/mini_kyoto.h) on the 2-socket machine: one global interposed mutex,
// 10M-element key range, time-based runs.
//
// Expected shape: best performance at 1 thread (the benchmark anti-scales);
// CNA is the only lock matching MCS at 1 thread; beyond ~4 threads CNA and
// the other NUMA-aware locks hold 28-43% over MCS.
#include <memory>

#include "apps/mini_kyoto.h"
#include "bench_common.h"

namespace {

using namespace cna;
using namespace cna::bench;

template <typename L>
double KyotoPoint(int threads, std::uint64_t window_ns) {
  apps::MiniKyotoOptions o;  // paper settings: 10M keys
  auto db = std::make_shared<apps::MiniKyotoDb<SimPlatform, L>>(o);
  auto result = harness::RunOnSim(
      sim::MachineConfig::TwoSocket(), threads, window_ns, [db](int t) {
        XorShift64 rng =
            XorShift64::FromSeed(0x12acbe + static_cast<std::uint64_t>(t));
        return [db, rng]() mutable { (void)db->WickedOp(rng); };
      });
  return result.throughput_mops;
}

}  // namespace

int main() {
  harness::SeriesTable table(
      "Figure 12: Kyoto Cabinet kccachetest wicked throughput (ops/us), "
      "2-socket, 10M key range",
      "threads", UserSpaceLockNames());
  const std::uint64_t window = DefaultWindowNs();
  for (int t : TwoSocketThreads()) {
    table.AddRow(t, {KyotoPoint<Mcs>(t, window), KyotoPoint<Cna>(t, window),
                     KyotoPoint<CnaOpt>(t, window),
                     KyotoPoint<CBoMcs>(t, window),
                     KyotoPoint<Hmcs>(t, window)});
  }
  table.Emit();
  return 0;
}
