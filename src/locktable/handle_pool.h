// Per-context handle pools for the lock-table subsystem, backed by
// NUMA-node-local slab arenas.
//
// Queue locks (MCS, CNA, ...) need a Handle per acquisition.  The paper notes
// that "those structures can be reused for different lock acquisitions, and
// between different locks" (Section 5); the kernel keeps 4 statically
// preallocated nodes per CPU.  The fixed tables keep one pool per access
// mode inside their shared core (StripeTable, stripe_table.h).  Their RAII
// guards take the cheap form of that reuse: a guard's lifetime brackets its
// acquisition, so it carries the Handle on the caller's stack, as
// locks::ScopedLock does.  The pool serves only the *handle-free* surface --
// Lock(key)/TryLock(key)/Unlock(key), LockKeysInto/UnlockStripesN, the C
// API, and the combining and resizable tables built on them -- where an
// acquisition and its release are separate calls and the handle has to live
// somewhere in between.  A context checks a handle out when it locks a
// stripe and returns it when it unlocks, so those callers get a plain
// lock(key)/unlock(key) surface with no handle management.  Guard-held
// stripes appear here only as a per-context counter (NoteGuardAcquired/
// NoteGuardReleased), so HeldByThisContext() still counts them.
//
// Storage: handles are carved out of per-socket slab arenas rather than
// allocated one heap object at a time.  A context whose free list runs dry
// grabs a whole slab from its socket's arena -- the slab is touched first by
// that context, so on real hardware first-touch places its pages on the
// context's NUMA node, and a waiter's spin line is always socket-local to
// its spinner.  Each handle sits on its own cache line within the slab.
// Slabs are never freed piecemeal: when the pool dies they are retired as
// whole units through the process-wide epoch domain (epoch/epoch.h).  Note
// what that buys: for callers that hold an epoch pin while they touch
// handles (ResizableLockTable pins across every critical section), a
// straggler racing pool teardown can never spin on freed memory; for the
// fixed tables nothing pins, so their safety rests -- as it always has --
// on the destruction-requires-quiescence contract, and the retire is
// merely deferred freeing.
//
// A lock table permits out-of-order release across stripes (Unlock(key) in
// any order, and UnlockStripesN releases in reverse stripe order, which need
// not be reverse acquisition order), so active handles are tagged with their
// stripe and looked up newest-first on release.  Unlike core::LockAdapter's
// per-OS-thread handle list, the pool is indexed by P::CpuId(), so it serves
// simulator fibers too.
#ifndef CNA_LOCKTABLE_HANDLE_POOL_H_
#define CNA_LOCKTABLE_HANDLE_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "base/cacheline.h"
#include "base/spin_hint.h"
#include "epoch/epoch.h"

namespace cna::locktable {

// Handle pool for one LockTable instance.  Slots are indexed by P::CpuId()
// (dense thread id on hardware, simulated CPU id in the simulator) modulo
// kMaxContexts.  A slot is normally private to one context, but thread ids
// are allocated monotonically and never reused, so a thread-churning process
// can alias two *live* threads onto one slot; each slot therefore carries a
// tiny TAS guard.  It is uncontended (and its line context-private) in the
// common case, and it is a plain std::atomic_flag -- not P::Atomic -- so the
// simulator charges nothing for it and fibers (which never yield inside pool
// bookkeeping) are unaffected.
template <typename P, typename L>
class HandlePool {
 public:
  using Handle = typename L::Handle;

  // Slots per pool; covers the simulator's sim::Machine::kMaxSimCpus (256)
  // with room to spare.
  static constexpr std::size_t kMaxContexts = 1024;

  // Handles per slab: one slab refill amortizes the arena lock over this
  // many checkouts, and matches the deepest plausible per-context demand
  // (kInlineTxnKeys-sized transactions plus nesting).
  static constexpr std::size_t kSlabHandles = 16;

  HandlePool() : slots_(new Slot[kMaxContexts]) {}

  // Teardown retires every slab through the process-wide epoch domain
  // instead of freeing eagerly: handle memory stays valid until every
  // *pinned* context has quiesced (see the header note on what this does
  // and does not guarantee for unpinned users).
  ~HandlePool() {
    for (Arena& arena : arenas_) {
      for (Slab* slab : arena.slabs) {
        epoch::Domain<P>::Global().Retire(slab, &Slab::Delete);
      }
      arena.slabs.clear();
    }
  }

  HandlePool(const HandlePool&) = delete;
  HandlePool& operator=(const HandlePool&) = delete;

  // Checks a handle out of this context's free list (refilling from the
  // socket-local slab arena if empty) and records it as active on `stripe`.
  // The returned handle is stable in memory until the matching TryDetach():
  // queue locks link waiters through handle addresses.
  Handle& Checkout(std::size_t stripe) {
    Slot& slot = ForThisContext();
    BusyGuard g(slot);
    if (slot.free.empty()) {
      RefillFromArena(slot);
    }
    Handle* h = slot.free.back();
    slot.free.pop_back();
    slot.active.push_back(Entry{stripe, P::CpuId(), h});
    return *h;
  }

  // Removes the calling context's most recently checked-out handle for
  // `stripe` from the active list and returns it, or nullptr if this context
  // holds no handle for the stripe (unlock without a matching lock).  The
  // caller must Unlock() through it and then Recycle() it -- the handle has
  // to stay alive until Unlock() returns (it does regardless: handles live
  // in epoch-retired slabs).  Ownership check and removal are one pass over
  // the active list, so a caller that must probe several pools for the
  // holder (the resizable table's Unlock walking current snapshot then
  // migration predecessor) pays one scan per pool.  Entries are matched by
  // stripe AND by the raw (un-modded) context id: an entry is registered
  // *before* its Lock() completes, so an aliased context's still-queued
  // acquisition of the same stripe must never be mistaken for the unlocking
  // holder's handle.
  Handle* TryDetach(std::size_t stripe) noexcept {
    return DetachMatching(stripe, /*exact=*/nullptr);
  }

  // TryDetach() variant matching one specific handle, throwing when this
  // context does not hold it: needed when a context has several outstanding
  // checkouts on one stripe whose completion order is not LIFO (the
  // combining layer's Submit futures, which the caller may Wait on in any
  // order).
  Handle* DetachExact(std::size_t stripe, const Handle* h) {
    Handle* detached = DetachMatching(stripe, h);
    if (detached == nullptr) {
      throw std::logic_error(
          "locktable::HandlePool: detach of a handle this context does not "
          "hold");
    }
    return detached;
  }

  // Returns a handle obtained from Checkout()+TryDetach() to the free list.
  // noexcept: it runs *after* the lock was released (Guard destructors, the
  // C unlock path), where a throw would either terminate or misreport a
  // completed unlock as failed.  If growing the free list fails under memory
  // pressure, the pointer is simply dropped -- safe, because the slab still
  // owns the storage and reclaims it at pool teardown.
  void Recycle(Handle* h) noexcept {
    Slot& slot = ForThisContext();
    BusyGuard g(slot);
    try {
      slot.free.push_back(h);
    } catch (...) {
      // Dropped from the free list, not leaked: the slab owns the memory.
    }
  }

  // Whether this context holds `stripe` (pre-validation for multi-unlock).
  bool HoldsInThisContext(std::size_t stripe) const {
    const Slot& slot = ForThisContext();
    const int self = P::CpuId();
    BusyGuard g(slot);
    for (const Entry& e : slot.active) {
      if (e.stripe == stripe && e.owner == self) {
        return true;
      }
    }
    return false;
  }

  // Stripes held through an RAII guard, which carries its own handle and
  // never touches the free or active lists.  They are counted in one relaxed
  // word per slot that pairs the count with the raw id of the context it
  // belongs to, updated by load + store without the slot guard: the slot's
  // context is its only writer, so a locked instruction would buy nothing
  // on the guard path.  A context finding another id in the word starts a
  // fresh count, and never decrements or reads a count that is not its own.
  // So a count left by an earlier context that mapped to this slot can
  // neither leak into nor be corrupted by a later one.  The one inexact
  // case: if two *live* contexts alias onto one slot and both hold guards
  // of this pool at overlapping times, the one whose count was replaced
  // undercounts until its guards are released.
  void NoteGuardAcquired() noexcept {
    std::atomic<std::uint64_t>& word = ForThisContext().guard_held;
    const std::uint64_t tag = GuardOwnerTag();
    const std::uint64_t w = word.load(std::memory_order_relaxed);
    word.store((w & ~kGuardCountMask) == tag ? w + 1 : tag | 1,
               std::memory_order_relaxed);
  }
  void NoteGuardReleased() noexcept {
    std::atomic<std::uint64_t>& word = ForThisContext().guard_held;
    const std::uint64_t w = word.load(std::memory_order_relaxed);
    if ((w & ~kGuardCountMask) == GuardOwnerTag() &&
        (w & kGuardCountMask) != 0) {
      word.store(w - 1, std::memory_order_relaxed);
    }
  }

  // Number of stripes this context currently holds, through either surface
  // (tests/diagnostics).  Exact for checkouts; for guard-held stripes see
  // the aliasing caveat on NoteGuardAcquired().
  std::size_t ActiveInThisContext() const {
    const Slot& slot = ForThisContext();
    const int self = P::CpuId();
    BusyGuard g(slot);
    const std::uint64_t w = slot.guard_held.load(std::memory_order_relaxed);
    std::size_t n = (w & ~kGuardCountMask) == GuardOwnerTag()
                        ? static_cast<std::size_t>(w & kGuardCountMask)
                        : 0;
    for (const Entry& e : slot.active) {
      n += e.owner == self ? 1 : 0;
    }
    return n;
  }

  // Free-list depth for this context (tests: verifies reuse, not growth).
  std::size_t PooledInThisContext() const {
    const Slot& slot = ForThisContext();
    BusyGuard g(slot);
    return slot.free.size();
  }

 private:
  // Sockets the arenas are grouped by; matches epoch::Domain and CnaRwLock.
  static constexpr std::size_t kMaxSockets = 8;
  // Every handle on its own line inside the slab: the line a waiter spins on
  // is shared with nobody, and the slab's pages are first-touched (and thus
  // NUMA-placed) by the socket that allocates from it.
  static constexpr std::size_t kHandleStride =
      (sizeof(Handle) + kCacheLineSize - 1) / kCacheLineSize * kCacheLineSize;

  // A slab: kSlabHandles constructed handles in one node-local allocation.
  struct Slab {
    std::byte* storage;

    static Slab* New() {
      auto* slab = new Slab;
      slab->storage = static_cast<std::byte*>(::operator new(
          kSlabHandles * kHandleStride,
          std::align_val_t{std::max(alignof(Handle), kCacheLineSize)}));
      std::size_t built = 0;
      try {
        for (; built < kSlabHandles; ++built) {
          new (slab->storage + built * kHandleStride) Handle();
        }
      } catch (...) {
        DestroyHandles(slab, built);
        FreeStorage(slab);
        delete slab;
        throw;
      }
      return slab;
    }

    Handle* HandleAt(std::size_t i) {
      return std::launder(
          reinterpret_cast<Handle*>(storage + i * kHandleStride));
    }

    // Epoch deleter: runs once the domain has quiesced past the retire.
    static void Delete(void* p) {
      Slab* slab = static_cast<Slab*>(p);
      DestroyHandles(slab, kSlabHandles);
      FreeStorage(slab);
      delete slab;
    }

   private:
    static void DestroyHandles(Slab* slab, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        slab->HandleAt(i)->~Handle();
      }
    }
    static void FreeStorage(Slab* slab) {
      ::operator delete(
          slab->storage,
          std::align_val_t{std::max(alignof(Handle), kCacheLineSize)});
    }
  };

  struct Entry {
    std::size_t stripe;
    int owner;  // raw P::CpuId() of the checking-out context (un-modded)
    Handle* handle;
  };

  // Shared matcher behind TryDetach/DetachExact: newest-first by stripe AND
  // by the raw context id (see TryDetach's aliasing note),
  // optionally narrowed to one specific handle; nullptr when nothing
  // matches.
  Handle* DetachMatching(std::size_t stripe, const Handle* exact) noexcept {
    Slot& slot = ForThisContext();
    const int self = P::CpuId();
    BusyGuard g(slot);
    for (std::size_t i = slot.active.size(); i-- > 0;) {
      if (slot.active[i].stripe == stripe && slot.active[i].owner == self &&
          (exact == nullptr || slot.active[i].handle == exact)) {
        Handle* h = slot.active[i].handle;
        slot.active.erase(slot.active.begin() +
                          static_cast<std::ptrdiff_t>(i));
        return h;
      }
    }
    return nullptr;
  }

  // Each slot on its own cache line so contexts do not false-share pool
  // bookkeeping (the handles themselves are already line-aligned).
  struct alignas(kCacheLineSize) Slot {
    mutable std::atomic_flag busy = ATOMIC_FLAG_INIT;
    std::vector<Handle*> free;
    std::vector<Entry> active;
    // Guard-held stripe count: owner id in the high half, count in the low.
    std::atomic<std::uint64_t> guard_held{0};
  };

  static constexpr std::uint64_t kGuardCountMask = 0xffffffffu;

  static std::uint64_t GuardOwnerTag() noexcept {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(P::CpuId()))
           << 32;
  }

  // One arena per socket: owns the slabs carved up by that socket's
  // contexts.  Guarded by the same plain-TAS pattern as the slots (brief,
  // uncontended, invisible to the simulator).
  struct alignas(kCacheLineSize) Arena {
    mutable std::atomic_flag busy = ATOMIC_FLAG_INIT;
    std::vector<Slab*> slabs;
  };

  // Holds a slot's or an arena's `busy` flag for a scope.
  class BusyGuard {
   public:
    template <typename Guarded>
    explicit BusyGuard(const Guarded& g) : busy_(g.busy) {
      while (busy_.test_and_set(std::memory_order_acquire)) {
        SpinHint();
      }
    }
    ~BusyGuard() { busy_.clear(std::memory_order_release); }

    BusyGuard(const BusyGuard&) = delete;
    BusyGuard& operator=(const BusyGuard&) = delete;

   private:
    std::atomic_flag& busy_;
  };

  // Allocates one slab from the calling context's socket arena and hands all
  // of its handles to `slot`'s free list.  Called under the slot guard; the
  // arena guard nests inside it (consistent order everywhere, and neither
  // guard is ever held across a yield point).
  void RefillFromArena(Slot& slot) {
    Arena& arena =
        arenas_[static_cast<unsigned>(P::CurrentSocket()) % kMaxSockets];
    // The slab is built BEFORE taking the arena guard: ::operator new plus
    // kSlabHandles constructions has unbounded latency, and every other
    // refilling context on the socket would spin on the TAS for its whole
    // duration.  Only the registration needs the guard.
    Slab* slab = Slab::New();
    {
      BusyGuard g(arena);
      try {
        arena.slabs.push_back(slab);
      } catch (...) {
        Slab::Delete(slab);
        throw;
      }
    }
    slot.free.reserve(slot.free.size() + kSlabHandles);
    for (std::size_t i = 0; i < kSlabHandles; ++i) {
      slot.free.push_back(slab->HandleAt(i));
    }
  }

  Slot& ForThisContext() {
    return slots_[static_cast<std::size_t>(P::CpuId()) % kMaxContexts];
  }
  const Slot& ForThisContext() const {
    return slots_[static_cast<std::size_t>(P::CpuId()) % kMaxContexts];
  }

  std::unique_ptr<Slot[]> slots_;
  Arena arenas_[kMaxSockets];
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_HANDLE_POOL_H_
