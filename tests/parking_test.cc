// Schedule-exploration tests for the parking subsystem (parking/parking_lot.h
// + the sim platform's Park/Unpark primitives, and the blocking lock tables
// built on them).
//
// These run on the deterministic simulator, so "no lost wakeup" is a
// *structural* claim, not a statistical one: the waiter parks with no
// timeout, and if any explored schedule loses the wake, the machine throws
// its deadlock error ("parked fibers with no writer") and the test fails.
// Each scenario runs across several seeds to vary the explored interleavings.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "locks/cna_rwlock.h"
#include "locks/gcr.h"
#include "locks/tas.h"
#include "locktable/lock_table.h"
#include "locktable/rw_lock_table.h"
#include "parking/parking_lot.h"
#include "platform/park.h"
#include "qspin/qspinlock.h"
#include "sim/machine.h"
#include "sim/sim_atomic.h"
#include "sim/sim_platform.h"

namespace cna {
namespace {

using SimLot = parking::ParkingLot<SimPlatform>;

const std::vector<std::uint64_t> kSeeds = {1, 7, 42, 99, 1337};

sim::MachineConfig TwoSocket(std::uint64_t seed) {
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, 4);
  cfg.seed = seed;
  return cfg;
}

// The core lost-wakeup race: parkers block on a flag with NO timeout, so a
// lost wake is a deadlock the machine detects, not a slow test.  The
// unparker publishes the flag before waking -- the exact store-buffer window
// the census fence protocol exists for.
TEST(SimParking, NoLostWakeupAcrossSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    sim::Machine m(TwoSocket(seed));
    SimLot lot;
    sim::Atomic<std::uint32_t> flag{0};
    int woken = 0;
    for (int p = 0; p < 3; ++p) {
      m.Spawn([&] {
        while (flag.load(std::memory_order_acquire) == 0) {
          lot.ParkConditionally(
              &flag,
              [&] { return flag.load(std::memory_order_acquire) == 0; },
              kParkNoTimeout);
        }
        ++woken;
      });
    }
    m.Spawn([&] {
      // Let the parkers publish in some schedules and not in others.
      sim::Machine::Active()->AdvanceLocalWork(500);
      flag.store(1, std::memory_order_release);
      lot.UnparkAll(&flag);
    });
    m.Run();  // a lost wakeup would throw the deadlock error here
    EXPECT_EQ(woken, 3) << "seed " << seed;
  }
}

// Same race through the raw platform primitive (no lot): the GCR blocking
// path parks directly on its admission word, so the primitive's own
// check-then-park must be atomic under exploration.
TEST(SimParking, RawParkPublishThenWake) {
  for (const std::uint64_t seed : kSeeds) {
    sim::Machine m(TwoSocket(seed));
    sim::Atomic<std::uint32_t> word{0};
    bool done = false;
    m.Spawn([&] {
      while (word.load(std::memory_order_acquire) == 0) {
        // Timed: the wake itself is directed, the timer only covers the
        // pre-publish window where UnparkOne finds no sleeper.
        (void)SimPlatform::Park(&word, 0u, 1'000'000);
      }
      done = true;
    });
    m.Spawn([&] {
      sim::Machine::Active()->AdvanceLocalWork(300);
      word.store(1, std::memory_order_release);
      SimPlatform::UnparkOne(&word);
    });
    m.Run();
    EXPECT_TRUE(done) << "seed " << seed;
  }
}

// A timed park with no unparker fires its deadline deterministically: the
// scheduler treats the deadline as the fiber's effective clock, so the
// machine neither deadlocks nor wakes early, and the whole run replays to
// the identical final time.
TEST(SimParking, ParkTimeoutIsDeterministic) {
  std::vector<std::uint64_t> finals;
  for (int run = 0; run < 2; ++run) {
    sim::Machine m(TwoSocket(/*seed=*/42));
    sim::Atomic<std::uint32_t> word{0};
    ParkResult r = ParkResult::kWoken;
    m.Spawn([&] { r = SimPlatform::Park(&word, 0u, 50'000); });
    m.Spawn([&] { sim::Machine::Active()->AdvanceLocalWork(10'000); });
    m.Run();
    EXPECT_EQ(r, ParkResult::kTimeout);
    EXPECT_GE(m.FinalTimeNs(), 50'000u);
    finals.push_back(m.FinalTimeNs());
  }
  EXPECT_EQ(finals[0], finals[1]);
}

// UnparkOne prefers the unlocker's socket: with one waiter parked on each
// socket, a socket-1 unparker wakes the socket-1 waiter; the other exits by
// timeout.  (Topology Uniform(2,4): cpus 0-3 are socket 0, 4-7 socket 1.)
TEST(SimParking, UnparkOnePrefersLocalSocket) {
  for (const std::uint64_t seed : kSeeds) {
    sim::Machine m(TwoSocket(seed));
    SimLot lot;
    int key = 0;
    SimLot::Outcome out0 = SimLot::Outcome::kValidateFail;
    SimLot::Outcome out1 = SimLot::Outcome::kValidateFail;
    m.SpawnOnCpu(0, [&] {
      out0 = lot.ParkConditionally(&key, [] { return true; }, 400'000);
    });
    m.SpawnOnCpu(4, [&] {
      out1 = lot.ParkConditionally(&key, [] { return true; }, 400'000);
    });
    m.SpawnOnCpu(5, [&] {
      // Wait until both waiters are published, then wake one from socket 1.
      while (lot.CountWaiters(&key) < 2) {
        sim::Machine::Active()->AdvanceLocalWork(1'000);
      }
      EXPECT_TRUE(lot.UnparkOne(&key, /*preferred_socket=*/1));
    });
    m.Run();
    EXPECT_EQ(out1, SimLot::Outcome::kWoken) << "seed " << seed;
    EXPECT_EQ(out0, SimLot::Outcome::kTimeout) << "seed " << seed;
  }
}

// GCR blocking mode under exploration: passive waiters park on their
// admission words, promotions issue directed unparks, and the whole thing
// stays live and mutually exclusive.  Same seed twice -> byte-identical
// virtual end time (the determinism gate: all parking state lives in
// P::Atomic, so the explored schedule is a pure function of the seed).
TEST(SimParking, GcrBlockingPromotionIsLiveAndDeterministic) {
  using Gcr = locks::GcrLock<SimPlatform, locks::TasLock<SimPlatform>>;
  for (const std::uint64_t seed : kSeeds) {
    std::vector<std::uint64_t> finals;
    for (int run = 0; run < 2; ++run) {
      sim::Machine m(TwoSocket(seed));
      Gcr lock;
      lock.SetActiveLimit(1);  // maximum passivation pressure
      lock.Engage();
      lock.SetBlocking(true);
      int counter = 0;
      for (int f = 0; f < 6; ++f) {
        m.Spawn([&] {
          for (int i = 0; i < 4; ++i) {
            typename Gcr::Handle h;
            lock.Lock(h);
            const int saw = counter;
            sim::Machine::Active()->AdvanceLocalWork(200);
            counter = saw + 1;
            lock.Unlock(h);
            sim::Machine::Active()->AdvanceLocalWork(100);
          }
        });
      }
      m.Run();
      EXPECT_EQ(counter, 6 * 4) << "seed " << seed;
      finals.push_back(m.FinalTimeNs());
    }
    EXPECT_EQ(finals[0], finals[1]) << "seed " << seed;
  }
}

// The blocking lock table on the simulator: waiters that exhaust the spin
// budget park in the global lot and the unlock path's UnparkOne keeps the
// stripe live.  Mutual exclusion via the read-modify-write counter.
TEST(SimParking, BlockingLockTableMutualExclusion) {
  using Table = locktable::LockTable<SimPlatform, locks::TasLock<SimPlatform>>;
  for (const std::uint64_t seed : kSeeds) {
    sim::Machine m(TwoSocket(seed));
    auto table = std::make_unique<Table>(
        locktable::LockTableOptions{.stripes = 1, .blocking = true});
    int counter = 0;
    for (int f = 0; f < 8; ++f) {
      m.Spawn([&] {
        for (int i = 0; i < 4; ++i) {
          table->Lock(0);
          const int saw = counter;
          sim::Machine::Active()->AdvanceLocalWork(300);
          counter = saw + 1;
          table->Unlock(0);
        }
      });
    }
    m.Run();
    EXPECT_EQ(counter, 8 * 4) << "seed " << seed;
  }
}

// The blocking tables driven through their RAII guards, which carry their own
// queue nodes and never touch the handle pools: the guard hooks must still
// spin-then-park and unpark.  Every critical section includes key 0's
// stripe, so LockTable's Guard/MultiGuard keep a read-modify-write counter
// exact; RwLockTable's readers must never see a writer inside, and its
// WriteGuard/MultiGuard writers keep their own counter exact.
TEST(SimParking, BlockingTablesThroughRaiiGuards) {
  using Table = locktable::LockTable<SimPlatform, locks::TasLock<SimPlatform>>;
  using RwTable =
      locktable::RwLockTable<SimPlatform, locks::CnaRwLock<SimPlatform>>;
  constexpr int kFibers = 8;
  constexpr int kIters = 4;
  std::uint64_t parks = 0;
  for (const std::uint64_t seed : kSeeds) {
    sim::Machine m(TwoSocket(seed));
    auto table = std::make_unique<Table>(
        locktable::LockTableOptions{.stripes = 2, .blocking = true});
    auto rw = std::make_unique<RwTable>(
        locktable::LockTableOptions{.stripes = 2, .blocking = true});
    int counter = 0;
    int rw_counter = 0;
    int writers_inside = 0;
    bool reader_saw_writer = false;
    auto exclusive_section = [](int& c) {
      const int saw = c;
      sim::Machine::Active()->AdvanceLocalWork(300);
      c = saw + 1;
    };
    for (int f = 0; f < kFibers; ++f) {
      m.Spawn([&, f] {
        for (int i = 0; i < kIters; ++i) {
          switch (f % 4) {
            case 0: {
              Table::Guard g(*table, 0);
              exclusive_section(counter);
              break;
            }
            case 1: {
              Table::MultiGuard g(*table, {0, 1});
              exclusive_section(counter);
              break;
            }
            case 2: {
              RwTable::ReadGuard g(*rw, 0);
              reader_saw_writer |= writers_inside != 0;
              sim::Machine::Active()->AdvanceLocalWork(300);
              reader_saw_writer |= writers_inside != 0;
              break;
            }
            default: {
              auto write = [&] {
                ++writers_inside;
                exclusive_section(rw_counter);
                --writers_inside;
              };
              if (i % 2 == 0) {
                RwTable::WriteGuard g(*rw, 0);
                write();
              } else {
                RwTable::MultiGuard g(*rw, {0, 1});
                write();
              }
              break;
            }
          }
        }
      });
    }
    m.Run();
    EXPECT_EQ(counter, kFibers / 2 * kIters) << "seed " << seed;
    EXPECT_EQ(rw_counter, kFibers / 4 * kIters) << "seed " << seed;
    EXPECT_FALSE(reader_saw_writer) << "seed " << seed;
    parks += m.TotalStats().parks;
  }
  EXPECT_GT(parks, 0u) << "the guard paths never reached the parking lot";
}

// The parked qspinlock flavor: non-head queued waiters spin a budget, then
// park on their queue node; GrantHeadship's store+exchange pair must never
// strand a parked waiter.  A tiny spin budget forces the park path into
// every explored schedule.
struct TinyBudgetParkedConfig : qspin::QspinParkedConfig {
  static constexpr std::uint32_t kParkSpinBudget = 2;
};

TEST(SimParking, QspinParkedWaitersStayLive) {
  using Lock =
      qspin::QSpinLock<SimPlatform, qspin::SlowPathKind::kCna,
                       TinyBudgetParkedConfig>;
  for (const std::uint64_t seed : kSeeds) {
    sim::Machine m(TwoSocket(seed));
    Lock lock;
    int counter = 0;
    for (int f = 0; f < 8; ++f) {
      m.Spawn([&] {
        for (int i = 0; i < 3; ++i) {
          typename Lock::Handle h;
          lock.Lock(h);
          const int saw = counter;
          sim::Machine::Active()->AdvanceLocalWork(250);
          counter = saw + 1;
          lock.Unlock(h);
          sim::Machine::Active()->AdvanceLocalWork(50);
        }
      });
    }
    m.Run();
    EXPECT_EQ(counter, 8 * 3) << "seed " << seed;
    EXPECT_GT(m.TotalStats().parks, 0u) << "seed " << seed;
  }
}

// Lot accounting balances on the simulator too: after a run every enqueue
// left by exactly one exit and nobody is still published.
TEST(SimParking, LotAccountingBalances) {
  sim::Machine m(TwoSocket(/*seed=*/7));
  SimLot lot;
  sim::Atomic<std::uint32_t> flag{0};
  for (int p = 0; p < 4; ++p) {
    m.Spawn([&] {
      while (flag.load(std::memory_order_acquire) == 0) {
        lot.ParkConditionally(
            &flag,
            [&] { return flag.load(std::memory_order_acquire) == 0; },
            200'000);
      }
    });
  }
  m.Spawn([&] {
    sim::Machine::Active()->AdvanceLocalWork(2'000);
    flag.store(1, std::memory_order_release);
    lot.UnparkAll(&flag);
  });
  m.Run();
  const parking::ParkingLotStats s = lot.Stats();
  EXPECT_EQ(s.enqueues, s.unparks + s.timeouts + s.cancels);
  EXPECT_EQ(lot.TotalWaitersApprox(), 0u);
}

}  // namespace
}  // namespace cna
