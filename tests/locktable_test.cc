// Lock-table subsystem tests: namespace geometry, the handle-free locking
// surface, Guard/MultiGuard semantics, per-stripe statistics, and the
// simulator-based stress tests (many fibers, random multi-key transactions;
// no deadlock -- Machine::Run() throws on one -- and no lost updates).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/mini_leveldb.h"
#include "apps/sharded_kv.h"
#include "base/rng.h"
#include "locks/cna.h"
#include "locks/cna_rwlock.h"
#include "locks/mcs.h"
#include "locktable/lock_table.h"
#include "locktable/rw_lock_table.h"
#include "platform/real_platform.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"
#include "telemetry/metrics.h"

namespace cna {
namespace {

using RealCna = locks::CnaLock<RealPlatform>;
using SimCna = locks::CnaLock<SimPlatform>;
using RealTable = locktable::LockTable<RealPlatform, RealCna>;
using SimTable = locktable::LockTable<SimPlatform, SimCna>;

sim::MachineConfig TwoSocketSmall(int cpus_per_socket = 8) {
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, cpus_per_socket);
  return cfg;
}

// ---------- Geometry ----------

TEST(LockTable, StripeCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(RealTable({.stripes = 0}).stripes(), 1u);
  EXPECT_EQ(RealTable({.stripes = 1}).stripes(), 1u);
  EXPECT_EQ(RealTable({.stripes = 16}).stripes(), 16u);
  EXPECT_EQ(RealTable({.stripes = 17}).stripes(), 32u);
  EXPECT_EQ(RealTable({.stripes = 1000}).stripes(), 1024u);
}

TEST(LockTable, StripeOfIsDeterministicAndInRange) {
  RealTable table({.stripes = 64});
  for (std::uint64_t key : {0ull, 1ull, 42ull, ~0ull, 1ull << 63}) {
    const std::size_t s = table.StripeOf(key);
    EXPECT_LT(s, table.stripes());
    EXPECT_EQ(s, table.StripeOf(key));
  }
}

TEST(LockTable, HashSpreadsSequentialKeysAcrossStripes) {
  RealTable table({.stripes = 64});
  std::set<std::size_t> stripes;
  for (std::uint64_t key = 0; key < 256; ++key) {
    stripes.insert(table.StripeOf(key));
  }
  // Full-avalanche mixing: 256 sequential keys must touch most of the 64
  // stripes (a modulo hash would stripe them perfectly; splitmix spreads
  // them statistically).
  EXPECT_GT(stripes.size(), 48u);
}

TEST(LockTable, CompactLayoutIsOneWordPerStripe) {
  RealTable table({.stripes = 1024});
  EXPECT_EQ(table.LockStateBytes(), 1024 * sizeof(void*));
  EXPECT_EQ(RealTable::PerStripeStateBytes(), sizeof(void*));
}

TEST(LockTable, CacheLinePaddingCostsALinePerStripe) {
  RealTable table(
      {.stripes = 64, .padding = locktable::StripePadding::kCacheLine});
  EXPECT_EQ(table.LockStateBytes(), 64 * kCacheLineSize);
}

// The headline acceptance number: a million-stripe CNA namespace is 8 MiB of
// lock words -- cheap enough to embed a NUMA-aware lock per object.
TEST(LockTable, MillionStripeTableIsEightMiB) {
  RealTable table({.stripes = 1u << 20});
  EXPECT_EQ(table.stripes(), 1u << 20);
  EXPECT_EQ(table.LockStateBytes(), (1u << 20) * sizeof(void*));
  EXPECT_LE(table.LockStateBytes(), 8u << 20);
  // And it is usable, not just allocatable.
  table.Lock(123456789);
  table.Unlock(123456789);
}

// ---------- Handle-free locking surface ----------

TEST(LockTable, LockUnlockRoundTrip) {
  RealTable table({.stripes = 16});
  table.Lock(7);
  EXPECT_EQ(table.HeldByThisContext(), 1u);
  table.Unlock(7);
  EXPECT_EQ(table.HeldByThisContext(), 0u);
}

TEST(LockTable, TryLockReflectsStripeState) {
  RealTable table({.stripes = 16});
  const std::uint64_t key = 5;
  ASSERT_TRUE(table.TryLock(key));
  // Same stripe, same context: the stripe is held (by us), so a second
  // try-lock fails rather than deadlocking.
  EXPECT_FALSE(table.TryLock(key));
  table.Unlock(key);
  EXPECT_TRUE(table.TryLock(key));
  table.Unlock(key);
}

TEST(LockTable, DistinctStripesUnlockOutOfOrder) {
  RealTable table({.stripes = 1024});
  // Find two keys on different stripes.
  std::uint64_t a = 0;
  std::uint64_t b = 1;
  while (table.StripeOf(a) == table.StripeOf(b)) {
    ++b;
  }
  table.Lock(a);
  table.Lock(b);
  EXPECT_EQ(table.HeldByThisContext(), 2u);
  table.Unlock(a);  // acquisition order a,b; release order a,b (non-LIFO)
  table.Unlock(b);
  EXPECT_EQ(table.HeldByThisContext(), 0u);
}

TEST(LockTable, UnlockOfUnheldStripeThrows) {
  RealTable table({.stripes = 16});
  EXPECT_THROW(table.Unlock(3), std::logic_error);
}

TEST(LockTable, HandlePoolReusesNodesAcrossAcquisitions) {
  RealTable table({.stripes = 16});
  for (int i = 0; i < 100; ++i) {
    table.Lock(static_cast<std::uint64_t>(i));
    table.Unlock(static_cast<std::uint64_t>(i));
  }
  // One slab refill (16 handles) served all 100 sequential acquisitions: the
  // free list still holds exactly that slab's worth, no further growth.
  using Pool = locktable::HandlePool<RealPlatform, locks::CnaLock<RealPlatform>>;
  EXPECT_EQ(table.PooledHandlesInThisContext(), Pool::kSlabHandles);
}

// ---------- Guard / MultiGuard ----------

TEST(LockTable, GuardIsRaii) {
  RealTable table({.stripes = 16});
  {
    RealTable::Guard g(table, 9);
    EXPECT_EQ(table.HeldByThisContext(), 1u);
    EXPECT_EQ(g.stripe(), table.StripeOf(9));
  }
  EXPECT_EQ(table.HeldByThisContext(), 0u);
}

TEST(LockTable, MultiGuardDeduplicatesCollidingKeys) {
  RealTable table({.stripes = 1});  // every key collides on stripe 0
  {
    RealTable::MultiGuard g(table, {1, 2, 3, 4});
    EXPECT_EQ(g.stripes().size(), 1u);
    EXPECT_EQ(table.HeldByThisContext(), 1u);
  }
  EXPECT_EQ(table.HeldByThisContext(), 0u);
}

TEST(LockTable, MultiGuardAcquiresStripesInAscendingOrder) {
  RealTable table({.stripes = 1024});
  RealTable::MultiGuard g(table, {11, 22, 33, 44, 55});
  const auto& stripes = g.stripes();
  for (std::size_t i = 1; i < stripes.size(); ++i) {
    EXPECT_LT(stripes[i - 1], stripes[i]);
  }
}

TEST(LockTable, MultiGuardHandlesDuplicateKeys) {
  RealTable table({.stripes = 64});
  RealTable::MultiGuard g(table, {7, 7, 7});
  EXPECT_EQ(g.stripes().size(), 1u);
}

TEST(LockTable, MultiGuardBeyondInlineCapacity) {
  RealTable table({.stripes = 4096});
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < RealTable::MultiGuard::kInlineKeys + 8; ++k) {
    keys.push_back(k * 977);
  }
  {
    RealTable::MultiGuard g(table, keys.data(), keys.size());
    EXPECT_EQ(table.HeldByThisContext(), g.size());
    const auto stripes = g.stripes();
    for (std::size_t i = 1; i < stripes.size(); ++i) {
      EXPECT_LT(stripes[i - 1], stripes[i]);
    }
  }
  EXPECT_EQ(table.HeldByThisContext(), 0u);
}

// Guards carry their queue nodes on the stack: a table used only through
// Guard/MultiGuard never checks a handle out of its pool.
TEST(LockTable, GuardsNeverTouchTheHandlePool) {
  RealTable table({.stripes = 64});
  for (std::uint64_t k = 0; k < 100; ++k) {
    {
      RealTable::Guard g(table, k);
      EXPECT_EQ(table.HeldByThisContext(), 1u);
    }
    RealTable::MultiGuard mg(table, {k, k + 1, k + 2});
    EXPECT_EQ(table.HeldByThisContext(), mg.size());
  }
  std::vector<std::uint64_t> keys;  // spills past the inline key capacity
  for (std::uint64_t k = 0; k < 40; ++k) {
    keys.push_back(k * 131);
  }
  {
    RealTable::MultiGuard spilled(table, keys.data(), keys.size());
    EXPECT_EQ(table.HeldByThisContext(), spilled.size());
  }
  EXPECT_EQ(table.HeldByThisContext(), 0u);
  EXPECT_EQ(table.PooledHandlesInThisContext(), 0u);
}

// A Guard-held stripe belongs to the guard: the handle-free Unlock cannot
// release it (the pool holds no handle for it) and must not disturb it.
TEST(LockTable, HandleFreeUnlockOfGuardHeldStripeThrows) {
  RealTable table({.stripes = 16, .collect_stats = true});
  {
    RealTable::Guard g(table, 3);
    EXPECT_THROW(table.Unlock(3), std::logic_error);
    const std::uint64_t keys[1] = {3};
    EXPECT_THROW(table.UnlockKeys(keys, 1), std::logic_error);
    EXPECT_EQ(table.HeldByThisContext(), 1u);
    EXPECT_FALSE(table.TryLock(3));  // still held, by the guard
  }
  EXPECT_EQ(table.HeldByThisContext(), 0u);
  ASSERT_TRUE(table.TryLock(3));  // the guard released it cleanly
  table.Unlock(3);
}

// Guards publish exactly one wait and one hold sample per stripe acquired,
// at release: the wait sample is not visible while the guard is held.
TEST(LockTable, GuardLatencySamplesMatchAcquisitions) {
  telemetry::SetEnabled(true);
  RealTable table({.stripes = 1024,
                   .collect_latency = true,
                   .metrics_name = "locktable_test.guards"});
  auto& registry = telemetry::Registry::Global();
  auto& wait = registry.GetHistogram("locktable_test.guards.wait_ns");
  auto& hold = registry.GetHistogram("locktable_test.guards.hold_ns");
  const std::uint64_t wait0 = wait.Snapshot().count;
  const std::uint64_t hold0 = hold.Snapshot().count;
  constexpr std::uint64_t kGuards = 50;
  std::uint64_t acquisitions = 0;
  for (std::uint64_t k = 0; k < kGuards; ++k) {
    RealTable::Guard g(table, k);
    ++acquisitions;
  }
  {
    RealTable::MultiGuard g(table, {1, 2, 3});
    acquisitions += g.size();
    EXPECT_EQ(wait.Snapshot().count - wait0, kGuards);  // not yet published
  }
  telemetry::SetEnabled(false);
  EXPECT_EQ(wait.Snapshot().count - wait0, acquisitions);
  EXPECT_EQ(hold.Snapshot().count - hold0, acquisitions);
}

// ---------- Latency definitions ----------
//
// wait_ns is the time queued behind a holder, 0 when the first try-lock
// succeeded; hold_ns runs from ownership (entry, for a first-try success) to
// the end of the release.

// Snapshot deltas of one table's wait and hold histograms.
class LatencyProbe {
 public:
  LatencyProbe(const std::string& wait_name, const std::string& hold_name)
      : wait_(telemetry::Registry::Global().GetHistogram(wait_name)),
        hold_(telemetry::Registry::Global().GetHistogram(hold_name)),
        wait0_(wait_.Snapshot()),
        hold0_(hold_.Snapshot()) {}

  telemetry::HistogramSnapshot Waits() const {
    return wait_.Snapshot() - wait0_;
  }
  telemetry::HistogramSnapshot Holds() const {
    return hold_.Snapshot() - hold0_;
  }

 private:
  telemetry::Histogram& wait_;
  telemetry::Histogram& hold_;
  telemetry::HistogramSnapshot wait0_;
  telemetry::HistogramSnapshot hold0_;
};

// Samples at or above 2^20 ns (about 1 ms): log2 buckets 21 and up.
std::uint64_t SamplesAtLeast1Ms(const telemetry::HistogramSnapshot& s) {
  std::uint64_t n = 0;
  for (int b = telemetry::BucketOf(std::uint64_t{1} << 20);
       b < telemetry::kHistBuckets; ++b) {
    n += s.buckets[static_cast<std::size_t>(b)];
  }
  return n;
}

TEST(LockTableLatency, UncontendedGuardsRecordZeroWaits) {
  telemetry::SetEnabled(true);
  RealTable table({.stripes = 64,
                   .collect_latency = true,
                   .metrics_name = "locktable_test.uncontended"});
  const LatencyProbe probe("locktable_test.uncontended.wait_ns",
                           "locktable_test.uncontended.hold_ns");
  constexpr std::uint64_t kGuards = 100;
  for (std::uint64_t k = 0; k < kGuards; ++k) {
    RealTable::Guard g(table, k);
  }
  telemetry::SetEnabled(false);
  const auto waits = probe.Waits();
  EXPECT_EQ(waits.count, kGuards);
  EXPECT_EQ(waits.buckets[0], kGuards);
  EXPECT_EQ(waits.sum, 0u);
  EXPECT_EQ(probe.Holds().count, kGuards);
}

TEST(LockTableLatency, GuardBehindAHolderRecordsItsWait) {
  telemetry::SetEnabled(true);
  RealTable table({.stripes = 64,
                   .collect_latency = true,
                   .metrics_name = "locktable_test.queued"});
  const LatencyProbe probe("locktable_test.queued.wait_ns",
                           "locktable_test.queued.hold_ns");
  std::atomic<bool> started{false};
  std::thread waiter;
  {
    RealTable::Guard holder(table, 7);
    waiter = std::thread([&] {
      started.store(true);
      RealTable::Guard g(table, 7);
    });
    while (!started.load()) {
      std::this_thread::yield();
    }
    // Held well past 2 ms, with slack for the other thread to reach its
    // first try while the stripe is still held.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  waiter.join();
  telemetry::SetEnabled(false);
  const auto waits = probe.Waits();
  EXPECT_EQ(waits.count, 2u);       // one sample per acquisition
  EXPECT_EQ(waits.buckets[0], 1u);  // the holder's first try succeeded
  EXPECT_EQ(SamplesAtLeast1Ms(waits), 1u);
  const auto holds = probe.Holds();
  EXPECT_EQ(holds.count, 2u);
  EXPECT_GE(SamplesAtLeast1Ms(holds), 1u);  // the holder's
}

TEST(LockTableLatency, HandleFreeLockAndTryLockRecordLikeGuards) {
  telemetry::SetEnabled(true);
  RealTable table({.stripes = 64,
                   .collect_latency = true,
                   .metrics_name = "locktable_test.handle_free"});
  const LatencyProbe probe("locktable_test.handle_free.wait_ns",
                           "locktable_test.handle_free.hold_ns");
  constexpr std::uint64_t kRounds = 40;
  for (std::uint64_t k = 0; k < kRounds; ++k) {
    table.Lock(k);
    table.Unlock(k);
  }
  auto waits = probe.Waits();
  EXPECT_EQ(waits.count, kRounds);
  EXPECT_EQ(waits.buckets[0], kRounds);
  EXPECT_EQ(probe.Holds().count, kRounds);

  // A try-lock records its hold; it never queues, so it has no wait.
  for (std::uint64_t k = 0; k < kRounds; ++k) {
    ASSERT_TRUE(table.TryLock(k));
    table.Unlock(k);
  }
  telemetry::SetEnabled(false);
  EXPECT_EQ(probe.Waits().count, kRounds);
  EXPECT_EQ(probe.Holds().count, 2 * kRounds);
}

TEST(LockTableLatency, ReadGuardBehindAWriterRecordsAWait) {
  using RwTable = locktable::RwLockTable<RealPlatform,
                                         locks::CnaRwLock<RealPlatform>>;
  telemetry::SetEnabled(true);
  RwTable table({.stripes = 64,
                 .collect_latency = true,
                 .metrics_name = "locktable_test.rw"});
  const LatencyProbe probe("locktable_test.rw.read_wait_ns",
                           "locktable_test.rw.write_hold_ns");
  std::atomic<bool> started{false};
  std::thread reader;
  {
    RwTable::WriteGuard writer(table, 3);
    reader = std::thread([&] {
      started.store(true);
      RwTable::ReadGuard g(table, 3);
    });
    while (!started.load()) {
      std::this_thread::yield();
    }
    // Held well past 2 ms, with slack for the other thread to reach its
    // first try while the stripe is still held.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  reader.join();
  telemetry::SetEnabled(false);
  const auto waits = probe.Waits();
  EXPECT_EQ(waits.count, 1u);
  EXPECT_EQ(waits.buckets[0], 0u);
  EXPECT_GT(waits.sum, 0u);
  EXPECT_EQ(probe.Holds().count, 1u);  // the writer's
}

TEST(LockTable, RejectsAbsurdStripeCounts) {
  EXPECT_THROW(RealTable({.stripes = RealTable::kMaxStripes + 1}),
               std::length_error);
}

TEST(LockTable, CheckedUnlockKeysIsAllOrNothing) {
  RealTable table({.stripes = 1024});
  std::uint64_t held = 1;
  std::uint64_t unheld = 2;
  while (table.StripeOf(held) == table.StripeOf(unheld)) {
    ++unheld;
  }
  table.Lock(held);
  const std::uint64_t keys[2] = {unheld, held};
  EXPECT_THROW(table.UnlockKeys(keys, 2), std::logic_error);
  EXPECT_EQ(table.HeldByThisContext(), 1u);  // nothing was half-released
  table.Unlock(held);
}

// ---------- Statistics ----------

TEST(LockTableStats, CountsAcquisitionsAndOccupancy) {
  RealTable table({.stripes = 16, .collect_stats = true});
  ASSERT_TRUE(table.stats_enabled());
  for (int i = 0; i < 10; ++i) {
    RealTable::Guard g(table, 1);
  }
  RealTable::MultiGuard g(table, {2, 3});
  const auto s = table.StatsSummary();
  EXPECT_EQ(s.total_acquisitions, 10u + g.stripes().size());
  EXPECT_EQ(s.multi_key_acquisitions, g.stripes().size());
  EXPECT_EQ(s.contended_acquisitions, 0u);  // single-threaded
  EXPECT_EQ(s.max_stripe_acquisitions, 10u);
  EXPECT_LE(s.occupied_stripes, 3u);
  EXPECT_GE(s.occupied_stripes, 1u);
  EXPECT_GT(s.Occupancy(), 0.0);
}

TEST(LockTableStats, DisabledByDefaultAndFree) {
  RealTable table({.stripes = 16});
  EXPECT_FALSE(table.stats_enabled());
  table.Lock(1);
  table.Unlock(1);
  const auto s = table.StatsSummary();
  EXPECT_EQ(s.total_acquisitions, 0u);
}

TEST(LockTableStats, ObservesContentionOnSim) {
  sim::Machine m(TwoSocketSmall());
  SimTable table({.stripes = 1, .collect_stats = true});
  for (int t = 0; t < 4; ++t) {
    m.Spawn([&] {
      for (int i = 0; i < 50; ++i) {
        SimTable::Guard g(table, 0);
        sim::Machine::Active()->AdvanceLocalWork(200);
      }
    });
  }
  m.Run();
  const auto s = table.StatsSummary();
  EXPECT_EQ(s.total_acquisitions, 200u);
  EXPECT_GT(s.contended_acquisitions, 0u);
  EXPECT_EQ(s.occupied_stripes, 1u);
}

// stats_probe_period samples the contention probe of both fixed-table
// flavors.  With a period far beyond the run's acquisition count no
// acquisition probes, so the contended run above still counts every
// acquisition but records no contention (nor any writer wait), while the
// same run probing every acquisition does record it.
template <typename Table, typename Op>
auto RunContendedOnSim(std::uint32_t probe_period, Op op) {
  sim::Machine m(TwoSocketSmall());
  auto table = std::make_unique<Table>(locktable::LockTableOptions{
      .stripes = 1,
      .collect_stats = true,
      .stats_probe_period = probe_period});
  for (int t = 0; t < 4; ++t) {
    m.Spawn([&, t] {
      for (int i = 0; i < 50; ++i) {
        op(*table, t);
      }
    });
  }
  m.Run();
  return table->StatsSummary();
}

TEST(LockTableStats, ProbePeriodSamplesBothFixedTableFlavors) {
  using SimRwTable = locktable::RwLockTable<
      SimPlatform, locks::CnaRwLock<SimPlatform, locks::CnaRwCompactConfig>>;
  constexpr std::uint32_t kNeverProbes = 1u << 30;
  auto hold = [] { sim::Machine::Active()->AdvanceLocalWork(200); };

  auto lock_op = [&](SimTable& t, int /*thread*/) {
    SimTable::Guard g(t, 0);
    hold();
  };
  EXPECT_GT(RunContendedOnSim<SimTable>(1, lock_op).contended_acquisitions,
            0u);
  const auto sampled = RunContendedOnSim<SimTable>(kNeverProbes, lock_op);
  EXPECT_EQ(sampled.total_acquisitions, 200u);
  EXPECT_EQ(sampled.contended_acquisitions, 0u);

  // Half the threads write, half read.
  auto rw_op = [&](SimRwTable& t, int thread) {
    if (thread % 2 == 0) {
      SimRwTable::WriteGuard g(t, 0);
      hold();
    } else {
      SimRwTable::ReadGuard g(t, 0);
      hold();
    }
  };
  EXPECT_GT(RunContendedOnSim<SimRwTable>(1, rw_op).writer_waits, 0u);
  const auto rw_sampled = RunContendedOnSim<SimRwTable>(kNeverProbes, rw_op);
  EXPECT_EQ(rw_sampled.write_acquisitions, 100u);
  EXPECT_EQ(rw_sampled.read_acquisitions, 100u);
  EXPECT_EQ(rw_sampled.writer_waits, 0u);
  EXPECT_EQ(rw_sampled.read_contended, 0u);
}

// ---------- Simulator stress: mutual exclusion ----------

TEST(LockTableSim, GuardedIncrementsAreNotLost) {
  sim::Machine m(TwoSocketSmall());
  SimTable table({.stripes = 4});  // 16 keys over 4 stripes: heavy collision
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  constexpr std::uint64_t kKeys = 16;
  std::vector<std::uint64_t> counters(kKeys, 0);
  for (int t = 0; t < kThreads; ++t) {
    m.Spawn([&, t] {
      XorShift64 rng = XorShift64::FromSeed(static_cast<std::uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t key = rng.NextBelow(kKeys);
        SimTable::Guard g(table, key);
        // Read-modify-write of plain shared memory: any mutual-exclusion
        // violation manifests as a lost count.
        const std::uint64_t v = counters[key];
        sim::Machine::Active()->AdvanceLocalWork(50);
        counters[key] = v + 1;
      }
    });
  }
  m.Run();
  std::uint64_t total = 0;
  for (std::uint64_t c : counters) {
    total += c;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kIters);
}

// ---------- Simulator stress: random multi-key transactions ----------
//
// Many fibers run random two- and three-key transfers over a small account
// set through MultiGuard.  Colliding stripes, overlapping key sets, and
// reversed orders are all exercised; Machine::Run() throws on deadlock, and
// value conservation catches lost updates.
TEST(LockTableSim, MultiGuardTransactionsNoDeadlockNoLostUpdates) {
  sim::Machine m(TwoSocketSmall());
  apps::ShardedKvOptions o;
  o.key_range = 32;
  o.lock_stripes = 4;  // aggressive stripe collisions
  o.cs_compute_ns = 30;
  apps::ShardedKv<SimPlatform, SimCna> kv(o);
  constexpr std::uint64_t kInitial = 1000;
  for (std::uint64_t k = 0; k < o.key_range; ++k) {
    kv.Put(k, kInitial);
  }
  constexpr int kThreads = 12;
  constexpr int kIters = 150;
  for (int t = 0; t < kThreads; ++t) {
    m.Spawn([&, t] {
      XorShift64 rng = XorShift64::FromSeed(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t a = rng.NextBelow(o.key_range);
        const std::uint64_t b = rng.NextBelow(o.key_range);
        if (rng.Next() & 1) {
          kv.Transfer(a, b, 1 + rng.NextBelow(10));
        } else {
          // Three-key read-only audit through the same ordered discipline.
          const std::uint64_t c = rng.NextBelow(o.key_range);
          const std::uint64_t keys[3] = {a, b, c};
          typename apps::ShardedKv<SimPlatform, SimCna>::Table::MultiGuard g(
              kv.table(), keys, 3);
          sim::Machine::Active()->AdvanceLocalWork(30);
        }
      }
    });
  }
  m.Run();  // throws std::logic_error on deadlock
  EXPECT_EQ(kv.TotalValue(), kInitial * o.key_range);  // conservation
}

// Schedule exploration with every queue node on a fiber stack: Guard and
// MultiGuard (2- and 3-key, colliding stripes) interleave under several
// seeds.  A per-stripe occupancy count catches a second holder directly;
// unprotected read-modify-writes catch lost updates; Run() throws on
// deadlock.
TEST(LockTableSim, GuardsOnFiberStacksExcludeAcrossSeeds) {
  constexpr std::uint64_t kKeys = 16;
  constexpr std::uint64_t kInitial = 100;
  constexpr int kThreads = 8;
  constexpr int kIters = 120;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::MachineConfig cfg = TwoSocketSmall();
    cfg.seed = seed;
    sim::Machine m(cfg);
    SimTable table({.stripes = 4});
    std::vector<int> holders(table.stripes(), 0);
    std::vector<std::uint64_t> counters(kKeys, 0);
    std::vector<std::uint64_t> balances(kKeys, kInitial);
    std::uint64_t increments = 0;
    bool overlap = false;
    auto enter = [&](std::size_t s) { overlap |= ++holders[s] != 1; };
    auto leave = [&](std::size_t s) { --holders[s]; };
    for (int t = 0; t < kThreads; ++t) {
      m.Spawn([&, t] {
        XorShift64 rng =
            XorShift64::FromSeed(seed * 1000 + static_cast<std::uint64_t>(t));
        for (int i = 0; i < kIters; ++i) {
          const std::uint64_t a = rng.NextBelow(kKeys);
          const std::uint64_t b = rng.NextBelow(kKeys);
          const std::uint64_t c = rng.NextBelow(kKeys);
          if (rng.Next() & 1) {
            SimTable::Guard g(table, a);
            enter(g.stripe());
            const std::uint64_t v = counters[a];
            sim::Machine::Active()->AdvanceLocalWork(40);
            counters[a] = v + 1;
            ++increments;
            leave(g.stripe());
          } else {
            const std::uint64_t keys[3] = {a, b, c};
            SimTable::MultiGuard g(table, keys, 2 + rng.NextBelow(2));
            for (std::size_t s : g.stripes()) {
              enter(s);
            }
            const std::uint64_t from = balances[a];
            sim::Machine::Active()->AdvanceLocalWork(40);
            if (a != b && from > 0) {
              balances[a] = from - 1;
              balances[b] += 1;
            }
            for (std::size_t s : g.stripes()) {
              leave(s);
            }
          }
        }
      });
    }
    m.Run();  // throws std::logic_error on deadlock
    EXPECT_FALSE(overlap) << "seed " << seed;
    std::uint64_t counted = 0;
    std::uint64_t total = 0;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      counted += counters[k];
      total += balances[k];
    }
    EXPECT_EQ(counted, increments) << "seed " << seed;
    EXPECT_EQ(total, kInitial * kKeys) << "seed " << seed;
  }
}

TEST(LockTableSim, TransactionsAcrossManyStripesWithMcs) {
  // Same discipline holds for any Lockable, not just CNA.
  sim::Machine m(TwoSocketSmall());
  using Mcs = locks::McsLock<SimPlatform>;
  apps::ShardedKvOptions o;
  o.key_range = 64;
  o.lock_stripes = 16;
  apps::ShardedKv<SimPlatform, Mcs> kv(o);
  for (std::uint64_t k = 0; k < o.key_range; ++k) {
    kv.Put(k, 100);
  }
  for (int t = 0; t < 8; ++t) {
    m.Spawn([&, t] {
      XorShift64 rng = XorShift64::FromSeed(7 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 100; ++i) {
        kv.Transfer(rng.NextBelow(o.key_range), rng.NextBelow(o.key_range),
                    1 + rng.NextBelow(5));
      }
    });
  }
  m.Run();
  EXPECT_EQ(kv.TotalValue(), 100u * o.key_range);
}

// ---------- ShardedKv semantics ----------

TEST(ShardedKv, PutGetEraseRoundTrip) {
  apps::ShardedKvOptions o;
  o.key_range = 128;
  o.lock_stripes = 8;
  apps::ShardedKv<RealPlatform, RealCna> kv(o);
  EXPECT_FALSE(kv.Get(5).has_value());
  kv.Put(5, 55);
  ASSERT_TRUE(kv.Get(5).has_value());
  EXPECT_EQ(*kv.Get(5), 55u);
  EXPECT_TRUE(kv.Erase(5));
  EXPECT_FALSE(kv.Erase(5));
  EXPECT_FALSE(kv.Get(5).has_value());
}

TEST(ShardedKv, TransferMovesUpToAvailable) {
  apps::ShardedKvOptions o;
  o.key_range = 16;
  o.lock_stripes = 4;
  apps::ShardedKv<RealPlatform, RealCna> kv(o);
  kv.Put(1, 10);
  EXPECT_EQ(kv.Transfer(1, 2, 4), 4u);
  EXPECT_EQ(kv.Transfer(1, 2, 100), 6u);  // clamped to remaining balance
  EXPECT_EQ(*kv.Get(2), 10u);
  EXPECT_FALSE(kv.Get(1).has_value());    // drained to 0 == absent
  EXPECT_EQ(kv.Transfer(3, 3, 5), 0u);    // self-transfer is a no-op
  EXPECT_EQ(kv.TotalValue(), 10u);
}

// ---------- MiniLevelDb on the lock table ----------

TEST(MiniLevelDbOnLockTable, ConfigurableShardCount) {
  apps::MiniLevelDbOptions o;
  o.prefill_keys = 1000;
  o.cache_shards = 64;
  o.cache_capacity_per_shard = 8;
  apps::MiniLevelDb<RealPlatform, RealCna> db(o);
  EXPECT_EQ(db.cache_shard_locks().stripes(), 64u);
  XorShift64 rng = XorShift64::FromSeed(3);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(db.ReadRandomOp(rng).has_value());
  }
  EXPECT_EQ(db.version_refs(), 0u);
}

TEST(MiniLevelDbOnLockTable, ShardLocksArePaddedPerStripe) {
  apps::MiniLevelDbOptions o;
  o.prefill_keys = 10;
  apps::MiniLevelDb<RealPlatform, RealCna> db(o);
  // 16 shard locks, one cache line each: the small hot table trades the
  // compact layout for freedom from false sharing.
  EXPECT_EQ(db.cache_shard_locks().stripes(), 16u);
  EXPECT_EQ(db.cache_shard_locks().LockStateBytes(), 16 * kCacheLineSize);
}

}  // namespace
}  // namespace cna
