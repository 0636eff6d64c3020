// LockTable<P, L>: a futex-style dynamic lock namespace over one-word locks.
//
// The paper's headline claim is that CNA's shared state is a *single word*,
// which makes it cheap enough to embed a NUMA-aware lock in every fine-
// grained object -- the argument behind per-object lock words in Compact Java
// Monitors and behind Linux's 4-byte qspinlock.  This subsystem exercises
// that claim at scale: it hashes arbitrary 64-bit keys onto a power-of-two
// array of lock stripes, the way the kernel's futex table hashes user
// addresses onto its hash-bucket locks.  With the default compact layout a
// million-stripe CNA table costs exactly one word per stripe (8 MiB total) --
// the same namespace built from cohort or HMCS locks would need O(sockets)
// cache lines per stripe, two orders of magnitude more.
//
// Surface:
//  * Lock(key)/TryLock(key)/Unlock(key) -- handle-free locking through
//    per-context handle pools (handle_pool.h).
//  * Guard        -- RAII single-key critical section.
//  * MultiGuard   -- acquires several keys' stripes in ascending stripe order
//    (deduplicated), giving deadlock-free multi-key transactions; releases in
//    descending order.  Both guards carry their queue nodes and latency
//    stamps on the stack (stripe_guard.h), so the RAII fast path is hash +
//    CNA's SWAP/CAS.
//  * Per-stripe occupancy/contention counters (table_stats.h), off by
//    default so the fast path carries zero instrumentation.
//
// The class is a facade over StripeTable (stripe_table.h), the pipeline it
// shares with RwLockTable, instantiated here in exclusive mode only.
// Stripes are packed at sizeof(L) by default (kCompact -- the space claim)
// or padded to a cache line each (kCacheLine); see stripe_array.h.
#ifndef CNA_LOCKTABLE_LOCK_TABLE_H_
#define CNA_LOCKTABLE_LOCK_TABLE_H_

#include <cstddef>
#include <cstdint>

#include "locks/lock_api.h"
#include "locktable/stripe_guard.h"
#include "locktable/stripe_table.h"

namespace cna::locktable {

template <typename P, locks::Lockable L>
class LockTable : private StripeTable<P, L, MutexFlavor> {
  using Core = StripeTable<P, L, MutexFlavor>;

 public:
  using LockType = L;
  using Handle = typename L::Handle;
  using Core::kInlineTxnKeys;
  using Core::kMaxStripes;

  explicit LockTable(LockTableOptions options = {}) : Core(options) {}

  // --- Namespace geometry (see stripe_array.h) ---

  using Core::LockStateBytes;
  using Core::padding;
  using Core::PerStripeStateBytes;
  using Core::StripeLock;
  using Core::StripeOf;
  using Core::stripes;

  // --- Handle-free locking surface ---

  void Lock(std::uint64_t key) { LockStripe(StripeOf(key)); }
  void Unlock(std::uint64_t key) { UnlockStripe(StripeOf(key)); }
  bool TryLock(std::uint64_t key) { return TryLockStripe(StripeOf(key)); }

  void LockStripe(std::size_t s) { Core::Acquire(ExclusiveAccess{}, s); }
  bool TryLockStripe(std::size_t s) {
    return Core::TryAcquire(ExclusiveAccess{}, s);
  }
  // Throws std::logic_error if this context holds no handle-free
  // acquisition of the stripe (see StripeTable::Release).
  void UnlockStripe(std::size_t s) { Core::Release(ExclusiveAccess{}, s); }
  bool TryUnlockStripe(std::size_t s) {
    return Core::TryRelease(ExclusiveAccess{}, s);
  }

  // --- Multi-key acquisition (used by MultiGuard and the C surface) ---
  //
  // Ascending stripe order, all-or-nothing, heap-free in caller storage; see
  // StripeTable::LockKeysInto.  UnlockKeys checks every stripe is held
  // before releasing any.

  using Core::DistinctStripesInto;
  using Core::LockKeysInto;
  using Core::UnlockKeys;
  using Core::UnlockStripesN;

  // --- RAII surfaces (stripe_guard.h) ---

  using Guard = StripeGuard<LockTable>;
  using MultiGuard = StripeMultiGuard<LockTable>;

  // --- Statistics ---

  using Core::StatsSummary;
  using Core::stats_enabled;
  using Core::StripeStats;

  // Whether this execution context holds stripe `s` through the handle-free
  // surface (pre-validation for callers that must not act before confirming
  // ownership, e.g. the combining layer's checked Unlock).
  bool HoldsStripe(std::size_t s) const {
    return Core::Holds(ExclusiveAccess{}, s);
  }

  // Stripes this execution context currently holds, through either surface
  // (tests/diagnostics; see StripeTable::HeldIn for the slot-aliasing
  // caveat).  PooledHandlesInThisContext() counts the free list, which only
  // handle-free checkouts touch.
  std::size_t HeldByThisContext() const {
    return Core::HeldIn(ExclusiveAccess{});
  }
  using Core::PooledHandlesInThisContext;

 private:
  template <typename, typename>
  friend class StripeGuard;
  template <typename, typename>
  friend class StripeMultiGuard;
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_LOCK_TABLE_H_
