// Type-erased locks: one runtime-selectable handle over every algorithm in
// src/locks/ and src/qspin/.
//
// This is the reproduction of LiTL's role in the paper (Section 7): "all
// locks ... are implemented as dynamic libraries conforming to the pthread
// mutex lock API", selectable at run time so any benchmark can be pointed at
// any lock.  Queue-node management (the per-thread preallocated nodes the
// paper describes in Section 5) is hidden behind this interface: each OS
// thread keeps one list of the handles it holds, keyed by (lock instance,
// mode), plus spare handles for reuse -- the kernel's statically
// preallocated per-CPU nodes, allocated on first use instead.  The lock
// instance itself stays its algorithm's lock word plus a name.
#ifndef CNA_CORE_ANY_LOCK_H_
#define CNA_CORE_ANY_LOCK_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "locks/gcr.h"
#include "locks/lock_api.h"
#include "platform/real_platform.h"
#include "telemetry/lockdep.h"

namespace cna::core {

// Abstract lock; Lock()/Unlock() must pair per thread.  As for std::mutex,
// destroying a lock that some thread holds is undefined.
class AnyLock {
 public:
  virtual ~AnyLock() = default;

  virtual void Lock() = 0;
  // Throws std::logic_error when the calling thread does not hold the lock.
  virtual void Unlock() = 0;
  // Returns false when the lock is busy *or* the algorithm has no try-lock.
  virtual bool TryLock() = 0;
  virtual bool SupportsTryLock() const = 0;

  // sizeof of the shared lock state -- the paper's space argument.
  virtual std::size_t StateBytes() const = 0;
  virtual std::string Name() const = 0;
};

// AnyLock plus the restriction controls of locks::GcrLock, for registry/C-API
// users.  Engage/Disengage/SetActiveLimit are safe to call concurrently with
// Lock/Unlock traffic (that is the whole point: a telemetry callback flips
// them while the workload runs).
class AnyGcrLock : public AnyLock {
 public:
  virtual void Engage() = 0;
  virtual void Disengage() = 0;
  virtual void SetActiveLimit(std::uint32_t n) = 0;
  virtual bool Restricted() const = 0;
  virtual std::uint32_t ActiveLimit() const = 0;
  virtual locks::GcrCountersSnapshot GcrStats() const = 0;
};

// Abstract reader-writer lock: an AnyLock (the exclusive mode) plus the
// shared mode, behind the pthread_rwlock shape so the registry and the C API
// can hand out NUMA-aware rwlocks by name.
class AnyRwLock : public AnyLock {
 public:
  virtual void LockShared() = 0;
  virtual bool TryLockShared() = 0;
  virtual void UnlockShared() = 0;
  // pthread_rwlock_unlock shape: releases the calling thread's most recent
  // acquisition in either mode.
  virtual void UnlockAny() = 0;
};

namespace internal {

enum class Mode { kExclusive, kShared, kAny /* a query only: either mode */ };

// The queue-node handles of one OS thread, across every adapter instance,
// in two intrusive lists: the handles it holds, newest first, keyed by (lock
// instance, mode), and spare handles kept for reuse, keyed by handle type.
// Being per OS thread, it is exact only where an execution context is an OS
// thread -- the reason the adapters below are constrained to RealPlatform
// (simulator fibers share their host thread).
class ThreadHandles {
 public:
  // The list link of one handle; Slot<H> adds the handle itself.
  struct Node {
    Node* next = nullptr;
    const void* lock = nullptr;
    Mode mode = Mode::kExclusive;
    void (*destroy)(Node*) = nullptr;  // also the handle's type key
  };

  template <typename H>
  struct Slot : Node {
    Slot() { this->destroy = &Destroy; }
    static void Destroy(Node* n) { delete static_cast<Slot*>(n); }
    H handle{};
  };

  static ThreadHandles& Current() {
    static thread_local ThreadHandles handles;
    return handles;
  }

  ThreadHandles() = default;
  ThreadHandles(const ThreadHandles&) = delete;
  ThreadHandles& operator=(const ThreadHandles&) = delete;

  // Frees the spares.  A handle still held when its thread exits may still
  // be linked into its lock's queue, so it is leaked, never freed.
  ~ThreadHandles() {
    while (spare_ != nullptr) {
      Node* n = spare_;
      spare_ = n->next;
      n->destroy(n);
    }
  }

  // A slot for a new acquisition: a spare of type H, else a new one.
  template <typename H>
  Slot<H>* CheckOut() {
    for (Node** p = &spare_; *p != nullptr; p = &(*p)->next) {
      if ((*p)->destroy == &Slot<H>::Destroy) {
        Node* n = *p;
        *p = n->next;
        return static_cast<Slot<H>*>(n);
      }
    }
    return new Slot<H>();
  }

  void Hold(Node* n, const void* lock, Mode mode) noexcept {
    n->lock = lock;
    n->mode = mode;
    n->next = held_;
    held_ = n;
  }

  void Return(Node* n) noexcept {
    n->next = spare_;
    spare_ = n;
  }

  // Unlinks and returns this thread's newest hold of `lock` in `mode`;
  // nullptr, changing nothing, when there is none.
  Node* Take(const void* lock, Mode mode) noexcept {
    for (Node** p = &held_; *p != nullptr; p = &(*p)->next) {
      Node* n = *p;
      if (n->lock == lock && (mode == Mode::kAny || n->mode == mode)) {
        *p = n->next;
        return n;
      }
    }
    return nullptr;
  }

 private:
  Node* held_ = nullptr;
  Node* spare_ = nullptr;
};

// Lockdep names per interface: the class prefix and the acquisition sites,
// indexed [shared][trylock].
template <typename I>
struct LockdepNames {
  static constexpr const char* kClassPrefix = "mutex/";
  static constexpr const char* kSites[2][2] = {
      {"AnyLock::Lock", "AnyLock::TryLock"},
      {"AnyLock::Lock", "AnyLock::TryLock"}};  // no shared mode
};
template <>
struct LockdepNames<AnyRwLock> {
  static constexpr const char* kClassPrefix = "rwlock/";
  static constexpr const char* kSites[2][2] = {
      {"AnyRwLock::Lock", "AnyRwLock::TryLock"},
      {"AnyRwLock::LockShared", "AnyRwLock::TryLockShared"}};
};

}  // namespace internal

// AnyLock, or an interface I extending it, over lock L: the one
// acquire/release pipeline of the single-lock adapters, with handles from
// the calling thread's ThreadHandles.
template <typename P, locks::Lockable L, typename I = AnyLock>
  requires std::same_as<P, RealPlatform>
class LockAdapter : public I {
  using Names = internal::LockdepNames<I>;

 public:
  explicit LockAdapter(std::string name)
      : name_(std::move(name)),
        lockdep_cls_(telemetry::lockdep::InternClass(Names::kClassPrefix +
                                                     name_)) {}

  void Lock() override {
    Acquire(Mode::kExclusive, [](L& l, Handle& h) { l.Lock(h); });
  }
  void Unlock() override { Release(Mode::kExclusive); }

  bool TryLock() override {
    if constexpr (locks::TryLockable<L>) {
      return Acquire(Mode::kExclusive,
                     [](L& l, Handle& h) { return l.TryLock(h); });
    } else {
      return false;
    }
  }

  bool SupportsTryLock() const override { return locks::TryLockable<L>; }
  std::size_t StateBytes() const override { return L::kStateBytes; }
  std::string Name() const override { return name_; }

  L& impl() { return impl_; }
  const L& impl() const { return impl_; }

 protected:
  using Handle = typename L::Handle;
  using Mode = internal::Mode;

  // Acquires in `mode` through acquire(impl, handle), a blocking lock call
  // (returning void) or a try-lock (returning whether it took the lock).
  template <typename AcquireFn>
  bool Acquire(Mode mode, AcquireFn acquire) {
    constexpr bool kTry =
        !std::is_void_v<std::invoke_result_t<AcquireFn, L&, Handle&>>;
    internal::ThreadHandles& handles = internal::ThreadHandles::Current();
    auto* slot = handles.CheckOut<Handle>();
    if constexpr (kTry) {
      if (!acquire(impl_, slot->handle)) {
        handles.Return(slot);
        return false;
      }
    } else {
      acquire(impl_, slot->handle);
    }
    handles.Hold(slot, this, mode);
    OnAcquired(mode, kTry);
    return true;
  }

  // Releases the calling thread's newest hold in `mode`; throws
  // std::logic_error, releasing nothing, when it holds none.
  void Release(Mode mode) {
    using Slot = internal::ThreadHandles::Slot<Handle>;
    internal::ThreadHandles& handles = internal::ThreadHandles::Current();
    internal::ThreadHandles::Node* held = handles.Take(this, mode);
    if (held == nullptr) {
      throw std::logic_error(name_ + ": unlock without a matching lock");
    }
    if (telemetry::lockdep::Enabled()) {
      telemetry::lockdep::OnReleased(P::CpuId(), lockdep_cls_, Instance());
    }
    Handle& h = static_cast<Slot*>(held)->handle;
    if constexpr (locks::SharedLockable<L>) {
      if (held->mode == Mode::kShared) {
        impl_.UnlockShared(h);
      } else {
        impl_.Unlock(h);
      }
    } else {
      impl_.Unlock(h);
    }
    handles.Return(held);
  }

 private:
  std::uintptr_t Instance() const {
    return reinterpret_cast<std::uintptr_t>(&impl_);
  }

  void OnAcquired(Mode mode, bool trylock) {
    if (telemetry::lockdep::Enabled()) {
      static const int sites[2][2] = {
          {telemetry::lockdep::InternSite(Names::kSites[0][0]),
           telemetry::lockdep::InternSite(Names::kSites[0][1])},
          {telemetry::lockdep::InternSite(Names::kSites[1][0]),
           telemetry::lockdep::InternSite(Names::kSites[1][1])}};
      const bool shared = mode == Mode::kShared;
      telemetry::lockdep::OnAcquired(P::CpuId(), lockdep_cls_,
                                     sites[shared][trylock], Instance(),
                                     trylock, shared, /*nested=*/false,
                                     /*wait_ns=*/0);
    }
  }

  L impl_;
  std::string name_;
  int lockdep_cls_;  // one class per adapter kind ("mutex/<name>", ...)
};

// AnyGcrLock: lock L wrapped in concurrency restriction.
template <typename P, locks::Lockable L>
class GcrLockAdapter final
    : public LockAdapter<P, locks::GcrLock<P, L>, AnyGcrLock> {
 public:
  using LockAdapter<P, locks::GcrLock<P, L>, AnyGcrLock>::LockAdapter;

  void Engage() override { this->impl().Engage(); }
  void Disengage() override { this->impl().Disengage(); }
  void SetActiveLimit(std::uint32_t n) override {
    this->impl().SetActiveLimit(n);
  }
  bool Restricted() const override { return this->impl().Restricted(); }
  std::uint32_t ActiveLimit() const override {
    return this->impl().ActiveLimit();
  }
  locks::GcrCountersSnapshot GcrStats() const override {
    return this->impl().Stats();
  }
};

// AnyRwLock: reader-writer lock L, whose exclusive mode is LockAdapter's.
template <typename P, locks::SharedTryLockable L>
class RwLockAdapter final : public LockAdapter<P, L, AnyRwLock> {
  using Base = LockAdapter<P, L, AnyRwLock>;
  using typename Base::Handle;
  using typename Base::Mode;

 public:
  using Base::Base;

  void LockShared() override {
    this->Acquire(Mode::kShared, [](L& l, Handle& h) { l.LockShared(h); });
  }
  bool TryLockShared() override {
    return this->Acquire(Mode::kShared,
                         [](L& l, Handle& h) { return l.TryLockShared(h); });
  }
  void UnlockShared() override { this->Release(Mode::kShared); }
  void UnlockAny() override { this->Release(Mode::kAny); }
};

}  // namespace cna::core

#endif  // CNA_CORE_ANY_LOCK_H_
