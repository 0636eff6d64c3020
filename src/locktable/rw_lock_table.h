// RwLockTable<P, L>: a read-mostly lock namespace over reader-writer locks.
//
// The reader-writer counterpart of lock_table.h: arbitrary 64-bit keys hash
// onto a power-of-two array of SharedLockable stripes, opening futex-style
// namespaces whose population is read-dominated -- caches, session tables,
// read-mostly KV.  With CnaRwLock's kCompact layout each stripe is one 8-byte
// word (reader count + CNA-ordered writer lock), so a million-stripe
// read-write namespace costs the same 8 MiB as the mutex table; the
// kPerSocket layout trades that compactness for reader counters that keep
// read acquisition socket-local.
//
// Surface:
//  * LockShared/UnlockShared/TryLockShared(key)      -- reader side
//  * LockExclusive/UnlockExclusive/TryLockExclusive(key) -- writer side
//  * Unlock(key)      -- pthread_rwlock_unlock-style mode dispatch (the C
//    surface): releases whichever mode this context holds the stripe in
//  * ReadGuard / WriteGuard -- RAII single-key sections
//  * MultiGuard       -- multi-key *exclusive* transaction in ascending
//    stripe order (deduplicated), deadlock-free like lock_table.h's
//  * Per-stripe read/write/writer-wait counters (table_stats.h), off by
//    default so the fast path carries zero instrumentation.
//
// Like LockTable, the class is a facade over StripeTable (stripe_table.h),
// here instantiated with both access modes: readers (SharedAccess) and
// writers (ExclusiveAccess) run the same pipeline, with one handle pool per
// mode so Unlock(key) can discover the held mode and keep misuse (unlock of
// an unheld stripe) a checked error.
#ifndef CNA_LOCKTABLE_RW_LOCK_TABLE_H_
#define CNA_LOCKTABLE_RW_LOCK_TABLE_H_

#include <cstddef>
#include <cstdint>

#include "locks/lock_api.h"
#include "locktable/stripe_guard.h"
#include "locktable/stripe_table.h"

namespace cna::locktable {

template <typename P, locks::SharedLockable L>
class RwLockTable : private StripeTable<P, L, RwFlavor> {
  using Core = StripeTable<P, L, RwFlavor>;

 public:
  using LockType = L;
  using Handle = typename L::Handle;
  using Core::kInlineTxnKeys;
  using Core::kMaxStripes;

  explicit RwLockTable(LockTableOptions options = {}) : Core(options) {}

  // --- Namespace geometry (see stripe_array.h) ---

  using Core::LockStateBytes;
  using Core::padding;
  using Core::PerStripeStateBytes;
  using Core::StripeLock;
  using Core::StripeOf;
  using Core::stripes;

  // --- Reader side ---

  void LockShared(std::uint64_t key) { LockSharedStripe(StripeOf(key)); }
  void UnlockShared(std::uint64_t key) { UnlockSharedStripe(StripeOf(key)); }
  bool TryLockShared(std::uint64_t key) {
    return TryLockSharedStripe(StripeOf(key));
  }

  void LockSharedStripe(std::size_t s) { Core::Acquire(SharedAccess{}, s); }
  bool TryLockSharedStripe(std::size_t s) {
    return Core::TryAcquire(SharedAccess{}, s);
  }
  // Throws std::logic_error if this context holds no handle-free shared
  // acquisition of the stripe (a ReadGuard's stripe included: only the guard
  // may release it).
  void UnlockSharedStripe(std::size_t s) {
    Core::Release(SharedAccess{}, s);
  }

  // --- Writer side ---

  void LockExclusive(std::uint64_t key) { LockExclusiveStripe(StripeOf(key)); }
  void UnlockExclusive(std::uint64_t key) {
    UnlockExclusiveStripe(StripeOf(key));
  }
  bool TryLockExclusive(std::uint64_t key) {
    return TryLockExclusiveStripe(StripeOf(key));
  }

  void LockExclusiveStripe(std::size_t s) {
    Core::Acquire(ExclusiveAccess{}, s);
  }
  bool TryLockExclusiveStripe(std::size_t s) {
    return Core::TryAcquire(ExclusiveAccess{}, s);
  }
  void UnlockExclusiveStripe(std::size_t s) {
    Core::Release(ExclusiveAccess{}, s);
  }

  // pthread_rwlock_unlock-style release: figures out which mode this context
  // holds the key's stripe in.  Throws std::logic_error if it holds neither.
  void Unlock(std::uint64_t key) {
    const std::size_t s = StripeOf(key);
    if (Core::Holds(ExclusiveAccess{}, s)) {
      UnlockExclusiveStripe(s);
    } else {
      UnlockSharedStripe(s);  // throws if not held in this mode either
    }
  }

  // --- Multi-key exclusive transactions (MultiGuard, C surface) ---
  //
  // Same bodies as LockTable's (StripeTable::LockKeysInto and friends), in
  // exclusive mode.

  using Core::DistinctStripesInto;
  using Core::LockKeysInto;
  using Core::UnlockKeys;
  using Core::UnlockStripesN;

  // --- RAII surfaces (stripe_guard.h) ---

  using ReadGuard = StripeGuard<RwLockTable, SharedAccess>;
  using WriteGuard = StripeGuard<RwLockTable, ExclusiveAccess>;
  // Multi-key exclusive transaction: sorted distinct stripes, heap-free up to
  // kInlineTxnKeys keys.
  using MultiGuard = StripeMultiGuard<RwLockTable, ExclusiveAccess>;

  // --- Statistics / diagnostics ---

  using Core::StatsSummary;
  using Core::stats_enabled;
  using Core::StripeStats;

  // Stripes this context holds in each mode, through either surface
  // (tests/diagnostics; see StripeTable::HeldIn for the slot-aliasing
  // caveat).
  std::size_t SharedHeldByThisContext() const {
    return Core::HeldIn(SharedAccess{});
  }
  std::size_t ExclusiveHeldByThisContext() const {
    return Core::HeldIn(ExclusiveAccess{});
  }

 private:
  template <typename, typename>
  friend class StripeGuard;
  template <typename, typename>
  friend class StripeMultiGuard;
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_RW_LOCK_TABLE_H_
