// Figure 11: leveldb db_bench readrandom throughput (via MiniLevelDb, the
// simulator stand-in in src/apps/mini_leveldb.h) on the 2-socket machine.
//
//   (a) pre-filled 1M-key DB: searching outside the lock gives the benchmark
//       room to scale before the global DB lock saturates; CNA ends ~39%
//       ahead of MCS at 70 threads in the paper.
//   (b) empty DB: no search work, the global lock is pounded -- same shape
//       as the no-external-work microbenchmark (Figure 6); the shuffle-
//       reduction variant helps at low thread counts.
//
// The swept lock kind L guards the *global DB lock* only.  Since PR 2 the
// LRU cache-shard path runs on a fixed compact CnaRwLock table (lookups in
// shared mode), identical across all swept kinds -- so the curves isolate
// the global-lock effect rather than mixing in shard-lock differences.
#include <memory>

#include "apps/mini_leveldb.h"
#include "bench_common.h"

namespace {

using namespace cna;
using namespace cna::bench;

template <typename L>
double LevelDbPoint(int threads, std::uint64_t window_ns,
                    std::uint64_t prefill) {
  apps::MiniLevelDbOptions o;
  o.prefill_keys = prefill;
  auto db = std::make_shared<apps::MiniLevelDb<SimPlatform, L>>(o);
  auto result = harness::RunOnSim(
      sim::MachineConfig::TwoSocket(), threads, window_ns, [db](int t) {
        XorShift64 rng =
            XorShift64::FromSeed(0x11db + static_cast<std::uint64_t>(t));
        return [db, rng]() mutable { (void)db->ReadRandomOp(rng); };
      });
  return result.throughput_mops;
}

void Sweep(const std::string& title, std::uint64_t prefill,
           std::uint64_t window_ns) {
  harness::SeriesTable table(title, "threads", UserSpaceLockNames());
  for (int t : TwoSocketThreads()) {
    table.AddRow(t, {LevelDbPoint<Mcs>(t, window_ns, prefill),
                     LevelDbPoint<Cna>(t, window_ns, prefill),
                     LevelDbPoint<CnaOpt>(t, window_ns, prefill),
                     LevelDbPoint<CBoMcs>(t, window_ns, prefill),
                     LevelDbPoint<Hmcs>(t, window_ns, prefill)});
  }
  table.Emit();
}

}  // namespace

int main() {
  const std::uint64_t window = DefaultWindowNs();
  Sweep(
      "Figure 11(a): leveldb readrandom throughput (ops/us), pre-filled "
      "1M-key DB, 2-socket",
      1'000'000, window);
  Sweep(
      "Figure 11(b): leveldb readrandom throughput (ops/us), empty DB, "
      "2-socket",
      0, window);
  return 0;
}
