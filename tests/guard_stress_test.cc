// Real-thread stress of the lock tables' RAII guards, which carry their
// queue nodes and latency stamps on the caller's stack (stripe_guard.h).
// This file runs in the CI TSan job's real-thread filter: a CNA handover
// through a node on another thread's stack, or a guard touching its node
// after release, shows up there as a data race.
//
// Invariants: plain (non-atomic) read-modify-writes inside guards never lose
// an update, multi-key transfers conserve the total, readers never see a
// writer's half-done update, and every context ends holding nothing.  The
// handle-free Lock/Unlock surface runs on the same stripes, so pooled and
// stack-held nodes interleave in the same CNA queues.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "locks/cna.h"
#include "locks/cna_rwlock.h"
#include "locktable/handle_pool.h"
#include "locktable/lock_table.h"
#include "locktable/rw_lock_table.h"
#include "platform/real_platform.h"
#include "telemetry/metrics.h"

namespace cna {
namespace {

using Table = locktable::LockTable<RealPlatform, locks::CnaLock<RealPlatform>>;
using RwTable =
    locktable::RwLockTable<RealPlatform, locks::CnaRwLock<RealPlatform>>;

constexpr int kThreads = 4;
constexpr int kIters = 3000;
constexpr std::uint64_t kKeys = 32;
constexpr std::uint64_t kInitial = 1000;

std::uint64_t Sum(const std::vector<std::uint64_t>& v) {
  std::uint64_t total = 0;
  for (std::uint64_t x : v) {
    total += x;
  }
  return total;
}

void RunLockTableStress(Table& table) {
  std::vector<std::uint64_t> counters(kKeys, 0);
  std::vector<std::uint64_t> balances(kKeys, kInitial);
  std::atomic<std::uint64_t> increments{0};
  std::atomic<bool> leaked{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      XorShift64 rng = XorShift64::FromSeed(11 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t a = rng.NextBelow(kKeys);
        const std::uint64_t b = rng.NextBelow(kKeys);
        switch (rng.NextBelow(3)) {
          case 0: {
            Table::Guard g(table, a);
            counters[a] += 1;
            increments.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          case 1: {
            Table::MultiGuard g(table, {a, b, rng.NextBelow(kKeys)});
            if (a != b && balances[a] > 0) {
              balances[a] -= 1;
              balances[b] += 1;
            }
            break;
          }
          default:
            table.Lock(a);
            counters[a] += 1;
            increments.fetch_add(1, std::memory_order_relaxed);
            table.Unlock(a);
            break;
        }
      }
      if (table.HeldByThisContext() != 0) {
        leaked.store(true);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_FALSE(leaked.load());
  EXPECT_EQ(Sum(counters), increments.load());
  EXPECT_EQ(Sum(balances), kInitial * kKeys);
}

TEST(GuardStress, LockTableGuardsAndHandleFreeCallersShareStripes) {
  Table table({.stripes = 8});
  RunLockTableStress(table);
}

// Same mix with latency collection on: guards stamp on their own stack and
// publish after release, while handle-free callers use the HoldTracker.
TEST(GuardStress, LockTableWithLatencyTelemetry) {
  telemetry::SetEnabled(true);
  Table table({.stripes = 8,
               .collect_latency = true,
               .metrics_name = "guard_stress.locktable"});
  RunLockTableStress(table);
  telemetry::SetEnabled(false);
  EXPECT_GT(telemetry::Registry::Global()
                .GetHistogram("guard_stress.locktable.hold_ns")
                .Snapshot()
                .count,
            0u);
}

// Thread ids are never reused and pool slots are taken modulo kMaxContexts,
// so a thread-churning process eventually maps a new thread onto the slot of
// a live one.  The guard count must stay per context: the newcomer neither
// sees the live holder's guard nor leaves the slot's count wrong for it.
TEST(GuardStress, GuardCountStaysPerContextUnderSlotAliasing) {
  using Pool = locktable::HandlePool<RealPlatform, locks::CnaLock<RealPlatform>>;
  Table table({.stripes = 64});
  const std::uint64_t held_key = 1;
  std::uint64_t other_key = 2;
  while (table.StripeOf(other_key) == table.StripeOf(held_key)) {
    ++other_key;
  }

  std::atomic<int> holder_id{-1};
  std::atomic<bool> release{false};
  std::atomic<bool> holder_ok{true};
  std::thread holder([&] {
    {
      Table::Guard g(table, held_key);
      holder_id.store(RealPlatform::CpuId());
      while (!release.load()) {
        std::this_thread::yield();
      }
    }
    if (table.HeldByThisContext() != 0) {
      holder_ok.store(false);
    }
  });
  while (holder_id.load() < 0) {
    std::this_thread::yield();
  }
  const std::size_t slot =
      static_cast<std::size_t>(holder_id.load()) % Pool::kMaxContexts;

  // Spawns short-lived threads until one lands on the holder's slot and runs
  // `check` there.
  auto on_aliased_thread = [&](auto check) {
    bool found = false;
    while (!found) {
      std::thread t([&] {
        if (static_cast<std::size_t>(RealPlatform::CpuId()) %
                Pool::kMaxContexts ==
            slot) {
          found = true;
          check();
        }
      });
      t.join();
    }
  };

  std::size_t seen_before = 0;
  std::size_t seen_during = 0;
  std::size_t seen_after = 0;
  on_aliased_thread([&] {
    seen_before = table.HeldByThisContext();
    {
      Table::Guard g(table, other_key);
      seen_during = table.HeldByThisContext();
    }
    seen_after = table.HeldByThisContext();
  });
  EXPECT_EQ(seen_before, 0u);
  EXPECT_EQ(seen_during, 1u);
  EXPECT_EQ(seen_after, 0u);

  release.store(true);
  holder.join();
  EXPECT_TRUE(holder_ok.load());

  // The holder's release must not have left a stale or wrapped count.
  std::size_t seen_later = 1;
  on_aliased_thread([&] { seen_later = table.HeldByThisContext(); });
  EXPECT_EQ(seen_later, 0u);
}

TEST(GuardStress, RwLockTableReadWriteAndMultiGuards) {
  RwTable table({.stripes = 8});
  // Writers keep pair[k] == mirror[k]; readers must never see them differ.
  std::vector<std::uint64_t> pair(kKeys, 0);
  std::vector<std::uint64_t> mirror(kKeys, 0);
  std::vector<std::uint64_t> balances(kKeys, kInitial);
  std::atomic<std::uint64_t> writes{0};
  std::atomic<bool> torn{false};
  std::atomic<bool> leaked{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      XorShift64 rng = XorShift64::FromSeed(29 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t a = rng.NextBelow(kKeys);
        const std::uint64_t b = rng.NextBelow(kKeys);
        switch (rng.NextBelow(4)) {
          case 0:
          case 1: {
            RwTable::ReadGuard r(table, a);
            if (pair[a] != mirror[a]) {
              torn.store(true);
            }
            break;
          }
          case 2: {
            RwTable::WriteGuard w(table, a);
            pair[a] += 1;
            std::this_thread::yield();
            mirror[a] += 1;
            writes.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          default: {
            RwTable::MultiGuard g(table, {a, b});
            if (a != b && balances[a] > 0) {
              balances[a] -= 1;
              balances[b] += 1;
            }
            break;
          }
        }
      }
      if (table.SharedHeldByThisContext() != 0 ||
          table.ExclusiveHeldByThisContext() != 0) {
        leaked.store(true);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_FALSE(torn.load());
  EXPECT_FALSE(leaked.load());
  EXPECT_EQ(Sum(pair), writes.load());
  EXPECT_EQ(Sum(mirror), writes.load());
  EXPECT_EQ(Sum(balances), kInitial * kKeys);
}

}  // namespace
}  // namespace cna
