// Tests for the public API surface: the registry, core::Mutex (C++), and the
// pthread-style C API.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/pthread_api.h"
#include "core/registry.h"
#include "locks/cna.h"
#include "locks/cna_rwlock.h"
#include "platform/thread_context.h"
#include "platform/real_platform.h"
#include "sim/sim_platform.h"

namespace cna {
namespace {

TEST(Registry, AllKindsHaveUniqueNames) {
  std::vector<std::string> names;
  for (auto kind : core::AllLockKinds()) {
    names.emplace_back(core::LockKindName(kind));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  EXPECT_EQ(names.size(), core::AllLockKinds().size());
}

TEST(Registry, NamesRoundTrip) {
  for (auto kind : core::AllLockKinds()) {
    const auto parsed = core::LockKindFromName(core::LockKindName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(core::LockKindFromName("no-such-lock").has_value());
}

TEST(Registry, DescriptionsAreNonEmpty) {
  for (auto kind : core::AllLockKinds()) {
    EXPECT_FALSE(std::string(core::LockKindDescription(kind)).empty());
  }
}

TEST(Registry, NumaAwareClassification) {
  EXPECT_TRUE(core::IsNumaAware(core::LockKind::kCna));
  EXPECT_TRUE(core::IsNumaAware(core::LockKind::kHmcs));
  EXPECT_TRUE(core::IsNumaAware(core::LockKind::kQspinCna));
  EXPECT_FALSE(core::IsNumaAware(core::LockKind::kMcs));
  EXPECT_FALSE(core::IsNumaAware(core::LockKind::kTas));
  EXPECT_FALSE(core::IsNumaAware(core::LockKind::kQspinMcs));
}

TEST(Registry, MakeLockBuildsEveryKind) {
  for (auto kind : core::AllLockKinds()) {
    auto lock = core::MakeLock<RealPlatform>(kind);
    ASSERT_NE(lock, nullptr) << core::LockKindName(kind);
    lock->Lock();
    lock->Unlock();
    EXPECT_GT(lock->StateBytes(), 0u);
    EXPECT_EQ(lock->Name(), core::LockKindName(kind));
  }
}

TEST(Mutex, WorksWithStdLockGuard) {
  core::Mutex mu(core::LockKind::kCna);
  int counter = 0;
  {
    std::lock_guard<core::Mutex> guard(mu);
    ++counter;
  }
  EXPECT_EQ(counter, 1);
}

TEST(Mutex, ByNameAndStateBytes) {
  core::Mutex cna_mu("cna");
  EXPECT_EQ(cna_mu.state_bytes(), sizeof(void*));
  EXPECT_EQ(cna_mu.name(), "cna");
  core::Mutex qspin_mu("qspin-cna");
  EXPECT_EQ(qspin_mu.state_bytes(), 4u);
  core::Mutex hmcs_mu("hmcs");
  EXPECT_GT(hmcs_mu.state_bytes(), 8u * 64u);
}

TEST(Mutex, UnknownNameThrows) {
  EXPECT_THROW(core::Mutex bad("bogus"), std::invalid_argument);
}

TEST(Mutex, TryLock) {
  core::Mutex mu(core::LockKind::kCna);
  ASSERT_TRUE(mu.try_lock());
  std::thread t([&] { EXPECT_FALSE(mu.try_lock()); });
  t.join();
  mu.unlock();
}

TEST(Mutex, TryLockUnsupportedKindReturnsFalse) {
  core::Mutex mu(core::LockKind::kHmcs);  // no try-lock in HMCS
  EXPECT_FALSE(mu.try_lock());
  // The failed try_lock must not have poisoned the lock.
  mu.lock();
  mu.unlock();
}

TEST(Mutex, ContendedCounterIsExact) {
  core::Mutex mu(core::LockKind::kCna);
  constexpr int kThreads = 4;
  constexpr int kIters = 1000;
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<core::Mutex> guard(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Mutex, LifoNestingOfDistinctMutexes) {
  core::Mutex a(core::LockKind::kCna);
  core::Mutex b(core::LockKind::kMcs);
  for (int i = 0; i < 100; ++i) {
    a.lock();
    b.lock();
    b.unlock();
    a.unlock();
  }
  SUCCEED();
}

TEST(Mutex, UnlockWithoutLockThrows) {
  core::Mutex mu(core::LockKind::kCna);
  EXPECT_THROW(mu.unlock(), std::logic_error);
}

// ---------- C API ----------

TEST(PthreadApi, CreateLockUnlockDestroy) {
  cna_mutex_t* mu = cna_mutex_create("cna");
  ASSERT_NE(mu, nullptr);
  EXPECT_EQ(cna_mutex_lock(mu), 0);
  EXPECT_EQ(cna_mutex_unlock(mu), 0);
  EXPECT_EQ(cna_mutex_state_bytes(mu), sizeof(void*));
  cna_mutex_destroy(mu);
}

TEST(PthreadApi, DefaultIsCna) {
  cna_mutex_t* mu = cna_mutex_create_default();
  ASSERT_NE(mu, nullptr);
  EXPECT_EQ(cna_mutex_state_bytes(mu), sizeof(void*));
  cna_mutex_destroy(mu);
}

TEST(PthreadApi, TrylockReturnsEbusyWhenHeld) {
  cna_mutex_t* mu = cna_mutex_create("mcs");
  ASSERT_NE(mu, nullptr);
  EXPECT_EQ(cna_mutex_trylock(mu), 0);
  std::thread t([&] { EXPECT_EQ(cna_mutex_trylock(mu), EBUSY); });
  t.join();
  EXPECT_EQ(cna_mutex_unlock(mu), 0);
  cna_mutex_destroy(mu);
}

TEST(PthreadApi, RejectsBadInputs) {
  EXPECT_EQ(cna_mutex_create("definitely-not-a-lock"), nullptr);
  // The socket-tagged queue is every CNA kind's only form, not a kind.
  EXPECT_EQ(cna_mutex_create("cna-tag"), nullptr);
  EXPECT_EQ(cna_mutex_create(nullptr), nullptr);
  EXPECT_EQ(cna_mutex_lock(nullptr), EINVAL);
  EXPECT_EQ(cna_mutex_unlock(nullptr), EINVAL);
  EXPECT_EQ(cna_mutex_trylock(nullptr), EINVAL);
  EXPECT_EQ(cna_mutex_state_bytes(nullptr), 0u);
  cna_mutex_destroy(nullptr);  // must be a no-op
}

TEST(PthreadApi, ContendedUse) {
  cna_mutex_t* mu = cna_mutex_create("cna");
  ASSERT_NE(mu, nullptr);
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        cna_mutex_lock(mu);
        ++counter;
        cna_mutex_unlock(mu);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, 2000u);
  cna_mutex_destroy(mu);
}


// ---------- Parameterized stress over every registry lock ----------

class RegistryLockStress : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryLockStress, ContendedMutualExclusionThroughAnyLock) {
  auto lock = core::MakeLock<RealPlatform>(
      *core::LockKindFromName(GetParam()));
  constexpr int kThreads = 3;
  constexpr int kIters = 400;
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      platform::ThreadContext::Current().SetVirtualSocket(t % 2);
      for (int i = 0; i < kIters; ++i) {
        lock->Lock();
        ++counter;
        lock->Unlock();
      }
      platform::ThreadContext::Current().SetVirtualSocket(
          platform::ThreadContext::kAutoSocket);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST_P(RegistryLockStress, LifoNestingThroughAnyLock) {
  auto a = core::MakeLock<RealPlatform>(*core::LockKindFromName(GetParam()));
  auto b = core::MakeLock<RealPlatform>(*core::LockKindFromName(GetParam()));
  for (int i = 0; i < 50; ++i) {
    a->Lock();
    b->Lock();
    b->Unlock();
    a->Unlock();
  }
  SUCCEED();
}

std::vector<std::string> AllLockNames() {
  std::vector<std::string> names;
  for (auto kind : core::AllLockKinds()) {
    names.emplace_back(core::LockKindName(kind));
  }
  return names;
}

std::string SanitizeName(const ::testing::TestParamInfo<std::string>& info) {
  std::string s = info.param;
  for (char& c : s) {
    if (c == '-') {
      c = '_';
    }
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, RegistryLockStress,
                         ::testing::ValuesIn(AllLockNames()), SanitizeName);

// ---------- Handle-pool behaviour of the adapter ----------

TEST(LockAdapter, HandlePoolIsReusedAcrossAcquisitions) {
  // The per-context pool must not grow without bound: repeated non-nested
  // acquisitions reuse one handle (mirrors the kernel's fixed 4 per CPU).
  core::LockAdapter<RealPlatform, locks::CnaLock<RealPlatform>> adapter("cna");
  for (int i = 0; i < 10'000; ++i) {
    adapter.Lock();
    adapter.Unlock();
  }
  SUCCEED();  // absence of OOM/growth is validated by the run itself
}

TEST(LockAdapter, FailedTryLockReturnsHandleToPool) {
  core::LockAdapter<RealPlatform, locks::CnaLock<RealPlatform>> adapter("cna");
  adapter.Lock();
  std::thread t([&] {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_FALSE(adapter.TryLock());
    }
  });
  t.join();
  adapter.Unlock();
  ASSERT_TRUE(adapter.TryLock());
  adapter.Unlock();
}

// Held handles are kept per OS thread, which is exact only for real threads
// (simulator fibers share one), so the adapters do not instantiate over the
// simulator platform.
template <typename P>
concept ErasableOn =
    requires { typename core::LockAdapter<P, locks::CnaLock<P>>; };
static_assert(ErasableOn<RealPlatform>);
static_assert(!ErasableOn<SimPlatform>);

// An adapter is its lock plus a name and a lockdep class; held handles live
// with the thread that holds them, not in per-thread slots of every lock.
// The per-socket CnaRwLock's own reader indicator is 32 cache lines, so for
// it the bound is on what the adapter adds.
TEST(LockAdapter, FootprintIsTheLockPlusAName) {
  using Cna = locks::CnaLock<RealPlatform>;
  using CnaRw = locks::CnaRwLock<RealPlatform>;
  using CnaRwCompact =
      locks::CnaRwLock<RealPlatform, locks::CnaRwCompactConfig>;
  EXPECT_LE(sizeof(core::LockAdapter<RealPlatform, Cna>), 256u);
  EXPECT_LE(sizeof(core::RwLockAdapter<RealPlatform, CnaRwCompact>), 256u);
  EXPECT_LE(sizeof(core::RwLockAdapter<RealPlatform, CnaRw>) - sizeof(CnaRw),
            256u);
}

// Thread ids are never reused, and held handles were once kept in per-lock
// slots indexed by thread id modulo 1024, so a thread-churning process could
// map a newcomer onto a live holder's slot, where its unlock released the
// holder's lock.  Unlock from any thread that does not hold the lock must
// fail, aliased id or not, and leave the holder holding.
TEST(LockAdapter, UnlockByAThreadWithAnAliasedIdFails) {
  constexpr int kOldSlots = 1024;
  core::Mutex mutex(core::LockKind::kCna);
  core::SharedMutex shared(core::RwLockKind::kCnaRw);
  cna_mutex_t* c_mutex = cna_mutex_create("cna");
  cna_rwlock_t* c_rwlock = cna_rwlock_create("cna-rw");
  ASSERT_NE(c_mutex, nullptr);
  ASSERT_NE(c_rwlock, nullptr);

  std::atomic<int> holder_id{-1};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    mutex.lock();
    shared.lock();
    EXPECT_EQ(cna_mutex_lock(c_mutex), 0);
    EXPECT_EQ(cna_rwlock_wrlock(c_rwlock), 0);
    holder_id.store(platform::ThreadContext::Current().ThreadId());
    while (!release.load()) {
      std::this_thread::yield();
    }
    EXPECT_NO_THROW(mutex.unlock());
    EXPECT_NO_THROW(shared.unlock());
    EXPECT_EQ(cna_mutex_unlock(c_mutex), 0);
    EXPECT_EQ(cna_rwlock_unlock(c_rwlock), 0);
  });
  while (holder_id.load() < 0) {
    std::this_thread::yield();
  }

  // Short-lived threads, one alive at a time, until one shares the holder's
  // id modulo the old slot count.
  bool found = false;
  bool mutex_threw = false;
  bool shared_threw = false;
  int c_mutex_rc = 0;
  int c_rwlock_rc = 0;
  while (!found) {
    std::thread t([&] {
      if (platform::ThreadContext::Current().ThreadId() % kOldSlots !=
          holder_id.load() % kOldSlots) {
        return;
      }
      found = true;
      try {
        mutex.unlock();
      } catch (const std::logic_error&) {
        mutex_threw = true;
      }
      try {
        shared.unlock();
      } catch (const std::logic_error&) {
        shared_threw = true;
      }
      c_mutex_rc = cna_mutex_unlock(c_mutex);
      c_rwlock_rc = cna_rwlock_unlock(c_rwlock);
    });
    t.join();
  }
  EXPECT_TRUE(mutex_threw);
  EXPECT_TRUE(shared_threw);
  EXPECT_EQ(c_mutex_rc, EPERM);
  EXPECT_EQ(c_rwlock_rc, EPERM);

  std::thread probe([&] {
    if (mutex.try_lock()) {
      ADD_FAILURE() << "core::Mutex was released by a non-holder";
      mutex.unlock();
    }
    if (shared.try_lock()) {
      ADD_FAILURE() << "core::SharedMutex was released by a non-holder";
      shared.unlock();
    }
    const int mutex_rc = cna_mutex_trylock(c_mutex);
    EXPECT_EQ(mutex_rc, EBUSY);
    if (mutex_rc == 0) {
      cna_mutex_unlock(c_mutex);
    }
    const int rwlock_rc = cna_rwlock_trywrlock(c_rwlock);
    EXPECT_EQ(rwlock_rc, EBUSY);
    if (rwlock_rc == 0) {
      cna_rwlock_unlock(c_rwlock);
    }
  });
  probe.join();

  release.store(true);
  holder.join();
  cna_rwlock_destroy(c_rwlock);
  cna_mutex_destroy(c_mutex);
}

}  // namespace
}  // namespace cna
