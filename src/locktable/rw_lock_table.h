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
// The handle-free surface pools handles per execution context exactly as in
// the mutex table (handle_pool.h), one pool per mode: a context may hold a
// stripe in only one mode at a time, but the two pools let Unlock(key)
// discover the mode and keep misuse (unlock of an unheld stripe) a checked
// error.  The guards carry their handles and latency stamps themselves
// (stripe_guard.h) and touch the pools only through a held-stripe counter.
#ifndef CNA_LOCKTABLE_RW_LOCK_TABLE_H_
#define CNA_LOCKTABLE_RW_LOCK_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "locks/lock_api.h"
#include "locktable/handle_pool.h"
#include "locktable/lock_table.h"  // LockTableOptions
#include "locktable/stripe_array.h"
#include "locktable/stripe_guard.h"
#include "locktable/table_latency.h"
#include "locktable/table_stats.h"
#include "parking/parking_lot.h"
#include "telemetry/lockdep.h"
#include "telemetry/metrics.h"

namespace cna::locktable {

template <typename P, locks::SharedLockable L>
class RwLockTable {
 public:
  using LockType = L;
  using Handle = typename L::Handle;

  static constexpr std::size_t kMaxStripes = StripeArray<L>::kMaxStripes;
  static constexpr std::size_t kInlineTxnKeys = 8;

  // Table-level blocking (options.blocking): same wrapper as LockTable --
  // spin a bounded budget, then park keyed on the stripe lock's address with
  // TryLock (writers) / TryLockShared (readers) as the revalidation.  A
  // writer release wakes every waiter (a reader convoy may be queued behind
  // the writer and all of them can now enter); a reader release wakes one
  // (only a writer can be blocked by readers, and only one can win).
  static constexpr bool kTableParks =
      locks::TryLockable<L> && locks::SharedTryLockable<L> &&
      !locks::BlockingConfigurable<L>;

  explicit RwLockTable(LockTableOptions options = {})
      : array_(options.stripes, options.padding),
        blocking_(options.blocking),
        lockdep_cls_(telemetry::lockdep::InternClass(
            std::string(options.metrics_name == nullptr
                            ? "rwtable"
                            : options.metrics_name) +
            "/stripe")) {
    if (options.collect_stats) {
      stats_.Enable(array_.stripes());
    }
    if (options.collect_latency) {
      lat_ = std::make_unique<RwTableLatency>(
          options.metrics_name == nullptr ? "rwtable" : options.metrics_name);
    }
  }

  RwLockTable(const RwLockTable&) = delete;
  RwLockTable& operator=(const RwLockTable&) = delete;

  // --- Namespace geometry (see stripe_array.h) ---

  std::size_t stripes() const { return array_.stripes(); }
  StripePadding padding() const { return array_.padding(); }

  std::size_t StripeOf(std::uint64_t key) const {
    return array_.StripeOf(key);
  }

  std::size_t LockStateBytes() const { return array_.LockStateBytes(); }
  static constexpr std::size_t PerStripeStateBytes() { return L::kStateBytes; }

  L& StripeLock(std::size_t s) { return array_.Stripe(s); }

  // --- Reader side ---

  void LockShared(std::uint64_t key) { LockSharedStripe(StripeOf(key)); }
  void UnlockShared(std::uint64_t key) { UnlockSharedStripe(StripeOf(key)); }
  bool TryLockShared(std::uint64_t key) {
    return TryLockSharedStripe(StripeOf(key));
  }

  void LockSharedStripe(std::size_t s) {
    if (lat_ != nullptr && telemetry::Enabled()) {
      const std::uint64_t t0 = telemetry::NowNs();
      LockSharedWith(s, shared_pool_.Checkout(s));
      const std::uint64_t wait = telemetry::NowNs() - t0;
      lat_->read_wait.RecordAt(P::CurrentSocket(), P::CpuId(), wait);
      LockdepAcquired(s, /*trylock=*/false, /*shared=*/true,
                      /*multi_key=*/false, wait);
      return;
    }
    LockSharedWith(s, shared_pool_.Checkout(s));
    LockdepAcquired(s, /*trylock=*/false, /*shared=*/true, /*multi_key=*/false,
                    0);
  }

  bool TryLockSharedStripe(std::size_t s) {
    static_assert(locks::SharedTryLockable<L>,
                  "TryLockShared requires a shared try-lock path");
    Handle& h = shared_pool_.Checkout(s);
    if (StripeLock(s).TryLockShared(h)) {
      stats_.OnReadAcquire(s, /*was_contended=*/false);
      LockdepAcquired(s, /*trylock=*/true, /*shared=*/true, /*multi_key=*/false,
                      0);
      return true;
    }
    stats_.OnTryLockFailure(s);
    shared_pool_.Recycle(shared_pool_.Detach(s));
    return false;
  }

  // Detach() throws before any state changes if this context holds no
  // handle-free shared acquisition of the stripe (a ReadGuard's stripe
  // included: only the guard may release it).
  void UnlockSharedStripe(std::size_t s) {
    Handle* h = shared_pool_.Detach(s);
    LockdepReleased(s);
    StripeLock(s).UnlockShared(*h);
    shared_pool_.Recycle(h);
    UnparkAfterSharedRelease(s);
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
    AcquireExclusiveStripe(s);
  }

  bool TryLockExclusiveStripe(std::size_t s) {
    static_assert(locks::TryLockable<L>,
                  "TryLockExclusive requires a try-lock path");
    Handle& h = excl_pool_.Checkout(s);
    if (StripeLock(s).TryLock(h)) {
      stats_.OnWriteAcquire(s, /*waited=*/false);
      if (lat_ != nullptr && telemetry::Enabled()) {
        lat_->tracker.Push(P::CpuId(), s, telemetry::NowNs());
      }
      LockdepAcquired(s, /*trylock=*/true, /*shared=*/false,
                      /*multi_key=*/false, 0);
      return true;
    }
    stats_.OnTryLockFailure(s);
    excl_pool_.Recycle(excl_pool_.Detach(s));
    return false;
  }

  void UnlockExclusiveStripe(std::size_t s) {
    Handle* h = excl_pool_.Detach(s);
    LockdepReleased(s);
    if (lat_ != nullptr && telemetry::Enabled()) {
      const std::uint64_t t0 = lat_->tracker.Pop(P::CpuId(), s);
      if (t0 != 0) {
        lat_->write_hold.RecordAt(P::CurrentSocket(), P::CpuId(),
                                  telemetry::NowNs() - t0);
      }
    }
    StripeLock(s).Unlock(*h);
    excl_pool_.Recycle(h);
    UnparkAfterExclusiveRelease(s);
  }

  // pthread_rwlock_unlock-style release: figures out which mode this context
  // holds the key's stripe in.  Throws std::logic_error if it holds neither.
  void Unlock(std::uint64_t key) {
    const std::size_t s = StripeOf(key);
    if (excl_pool_.HoldsInThisContext(s)) {
      UnlockExclusiveStripe(s);
    } else {
      UnlockSharedStripe(s);  // Detach throws if not held in this mode either
    }
  }

  // --- Multi-key exclusive transactions (MultiGuard, C surface) ---

  // Writes the sorted distinct stripes of the key set into out[]; returns how
  // many there are (<= count).  See StripeArray::DistinctStripesInto.
  std::size_t DistinctStripesInto(const std::uint64_t* keys, std::size_t count,
                                  std::size_t* out) const {
    return array_.DistinctStripesInto(keys, count, out);
  }

  // Exclusively locks the key set's distinct stripes in ascending order;
  // all-or-nothing on a mid-transaction throw, like LockTable::LockKeysInto.
  std::size_t LockKeysInto(const std::uint64_t* keys, std::size_t count,
                           std::size_t* out) {
    const std::size_t n = DistinctStripesInto(keys, count, out);
    std::size_t taken = 0;
    try {
      for (; taken < n; ++taken) {
        AcquireExclusiveStripe(out[taken], /*multi_key=*/true);
      }
    } catch (...) {
      UnlockStripesN(out, taken);
      throw;
    }
    return n;
  }

  void UnlockStripesN(const std::size_t* stripes, std::size_t n) {
    for (std::size_t i = n; i-- > 0;) {
      UnlockExclusiveStripe(stripes[i]);
    }
  }

  // Checked release of an exclusive key set: verifies this context holds
  // every distinct stripe exclusively before releasing any, so misuse throws
  // std::logic_error without half-releasing the transaction.
  void UnlockKeys(const std::uint64_t* keys, std::size_t count) {
    if (count <= kInlineTxnKeys) {
      std::size_t stripes[kInlineTxnKeys];
      UnlockDistinct(stripes, DistinctStripesInto(keys, count, stripes));
    } else {
      std::vector<std::size_t> stripes(count);
      stripes.resize(DistinctStripesInto(keys, count, stripes.data()));
      UnlockDistinct(stripes.data(), stripes.size());
    }
  }

  // --- RAII surfaces (stripe_guard.h) ---

  using ReadGuard = StripeGuard<RwLockTable, SharedAccess>;
  using WriteGuard = StripeGuard<RwLockTable, ExclusiveAccess>;
  // Multi-key exclusive transaction: sorted distinct stripes, heap-free up to
  // kInlineTxnKeys keys.
  using MultiGuard = StripeMultiGuard<RwLockTable, ExclusiveAccess>;

  // --- Statistics / diagnostics ---

  bool stats_enabled() const { return stats_.enabled(); }
  RwTableStatsSummary StatsSummary() const { return stats_.Summarize(); }
  const RwStripeCounters* StripeStats(std::size_t s) const {
    return stats_.stripe(s);
  }

  // Stripes this context holds in each mode, through either surface
  // (tests/diagnostics).  Same caveat as LockTable::HeldByThisContext(): two
  // live contexts sharing a pool slot and holding guards at once may
  // undercount their own guards, never count another context's.
  std::size_t SharedHeldByThisContext() const {
    return shared_pool_.ActiveInThisContext();
  }
  std::size_t ExclusiveHeldByThisContext() const {
    return excl_pool_.ActiveInThisContext();
  }

 private:
  template <typename, typename>
  friend class StripeGuard;
  template <typename, typename>
  friend class StripeMultiGuard;

  // --- Guard pipeline (see stripe_guard.h) ---

  std::uint64_t GuardStart() const {
    return lat_ != nullptr && telemetry::Enabled() ? telemetry::NowNs() : 0;
  }

  std::uint64_t GuardAcquire(SharedAccess, std::size_t s, Handle& h,
                             bool /*multi_key*/, std::uint64_t t_prev) {
    LockSharedWith(s, h);
    const std::uint64_t t1 = t_prev != 0 ? telemetry::NowNs() : 0;
    LockdepAcquired(s, /*trylock=*/false, /*shared=*/true, /*multi_key=*/false,
                    t1 - t_prev);
    shared_pool_.NoteGuardAcquired();
    return t1;
  }

  void GuardRelease(SharedAccess, std::size_t s, Handle& h) {
    shared_pool_.NoteGuardReleased();
    LockdepReleased(s);
    StripeLock(s).UnlockShared(h);
    UnparkAfterSharedRelease(s);
  }

  // Readers publish their wait only; read hold time is not collected.
  void GuardRecord(SharedAccess, std::uint64_t t0, std::uint64_t t1,
                   std::uint64_t /*t2*/) {
    lat_->read_wait.RecordAt(P::CurrentSocket(), P::CpuId(), t1 - t0);
  }

  std::uint64_t GuardAcquire(ExclusiveAccess, std::size_t s, Handle& h,
                             bool multi_key, std::uint64_t t_prev) {
    LockExclusiveWith(s, h);
    const std::uint64_t t1 = t_prev != 0 ? telemetry::NowNs() : 0;
    LockdepAcquired(s, /*trylock=*/false, /*shared=*/false, multi_key,
                    t1 - t_prev);
    excl_pool_.NoteGuardAcquired();
    return t1;
  }

  void GuardRelease(ExclusiveAccess, std::size_t s, Handle& h) {
    excl_pool_.NoteGuardReleased();
    LockdepReleased(s);
    StripeLock(s).Unlock(h);
    UnparkAfterExclusiveRelease(s);
  }

  void GuardRecord(ExclusiveAccess, std::uint64_t t0, std::uint64_t t1,
                   std::uint64_t t2) {
    lat_->write_wait.RecordAt(P::CurrentSocket(), P::CpuId(), t1 - t0);
    lat_->write_hold.RecordAt(P::CurrentSocket(), P::CpuId(), t2 - t1);
  }

  // Only a writer can be blocked by a reader, and only one can win the
  // now-free stripe -- wake one, it revalidates with TryLock.
  void UnparkAfterSharedRelease(std::size_t s) {
    if constexpr (kTableParks) {
      if (blocking_) {
        parking::ParkingLot<P>::Global().UnparkOne(&StripeLock(s),
                                                   P::CurrentSocket());
      }
    }
  }

  // A whole reader convoy may have parked behind this writer; all of them
  // can enter now, so wake everything and let them revalidate.
  void UnparkAfterExclusiveRelease(std::size_t s) {
    if constexpr (kTableParks) {
      if (blocking_) {
        parking::ParkingLot<P>::Global().UnparkAll(&StripeLock(s));
      }
    }
  }

  // --- Handle-free pipeline ---

  void UnlockDistinct(const std::size_t* stripes, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!excl_pool_.HoldsInThisContext(stripes[i])) {
        throw std::logic_error(
            "locktable::RwLockTable: UnlockKeys of a stripe this context "
            "does not hold exclusively");
      }
    }
    UnlockStripesN(stripes, n);
  }

  void AcquireExclusiveStripe(std::size_t s, bool multi_key = false) {
    if (lat_ != nullptr && telemetry::Enabled()) {
      const std::uint64_t t0 = telemetry::NowNs();
      LockExclusiveWith(s, excl_pool_.Checkout(s));
      const std::uint64_t t1 = telemetry::NowNs();
      lat_->write_wait.RecordAt(P::CurrentSocket(), P::CpuId(), t1 - t0);
      lat_->tracker.Push(P::CpuId(), s, t1);
      LockdepAcquired(s, /*trylock=*/false, /*shared=*/false, multi_key,
                      t1 - t0);
      return;
    }
    LockExclusiveWith(s, excl_pool_.Checkout(s));
    LockdepAcquired(s, /*trylock=*/false, /*shared=*/false, multi_key, 0);
  }

  // Acquisition bodies: lock stripe s in one mode through handle h, whoever
  // owns it -- a pool checkout or a guard.  As in LockTable::LockWith, the
  // plain acquisition stays small enough to inline into both surfaces, and
  // parking and the stats probe sit out of line.
  bool PlainAcquire() const {
    return !(kTableParks && blocking_) && !stats_.enabled();
  }

  void LockSharedWith(std::size_t s, Handle& h) {
    if (PlainAcquire()) {
      StripeLock(s).LockShared(h);
      return;
    }
    LockSharedWithPolicies(s, h);
  }

  void LockExclusiveWith(std::size_t s, Handle& h) {
    if (PlainAcquire()) {
      StripeLock(s).Lock(h);
      return;
    }
    LockExclusiveWithPolicies(s, h);
  }

  void LockSharedWithPolicies(std::size_t s, Handle& h) {
    L& lock = StripeLock(s);
    if constexpr (kTableParks) {
      if (blocking_) {
        AcquireSharedParked(lock, h, s);
        return;
      }
    }
    if (stats_.enabled()) {
      if constexpr (locks::SharedTryLockable<L>) {
        if (lock.TryLockShared(h)) {
          stats_.OnReadAcquire(s, /*was_contended=*/false);
          return;
        }
        lock.LockShared(h);
        stats_.OnReadAcquire(s, /*was_contended=*/true);
        return;
      }
    }
    lock.LockShared(h);
    stats_.OnReadAcquire(s, /*was_contended=*/false);
  }

  void LockExclusiveWithPolicies(std::size_t s, Handle& h) {
    L& lock = StripeLock(s);
    if constexpr (kTableParks) {
      if (blocking_) {
        AcquireExclusiveParked(lock, h, s);
        return;
      }
    }
    if (stats_.enabled()) {
      // Probe so writer waits (readers to drain, or another writer) are
      // observable; the stats-off path below is the undisturbed acquisition.
      if constexpr (locks::TryLockable<L>) {
        if (lock.TryLock(h)) {
          stats_.OnWriteAcquire(s, /*waited=*/false);
          return;
        }
        lock.Lock(h);
        stats_.OnWriteAcquire(s, /*waited=*/true);
        return;
      }
    }
    lock.Lock(h);
    stats_.OnWriteAcquire(s, /*waited=*/false);
  }

  // Spin-then-park writer acquisition (blocking mode).  Same shape as
  // LockTable::AcquireStripeParked; a woken writer barges with TryLock and
  // re-parks if it loses the race.
  void AcquireExclusiveParked(L& lock, Handle& h, std::size_t s) {
    if (lock.TryLock(h)) {
      stats_.OnWriteAcquire(s, /*waited=*/false);
      return;
    }
    for (std::uint32_t i = 0; i < parking::kBlockingSpinBudget; ++i) {
      P::Pause();
      if (lock.TryLock(h)) {
        stats_.OnWriteAcquire(s, /*waited=*/true);
        return;
      }
    }
    auto& lot = parking::ParkingLot<P>::Global();
    bool acquired = false;
    while (!acquired) {
      lot.ParkConditionally(
          &lock,
          [&] {
            acquired = lock.TryLock(h);
            return !acquired;  // still blocked -> commit the park
          },
          parking::kBlockingParkTimeoutNs);
    }
    stats_.OnWriteAcquire(s, /*waited=*/true);
  }

  // Spin-then-park reader acquisition (blocking mode): identical protocol
  // with TryLockShared as the revalidation.
  void AcquireSharedParked(L& lock, Handle& h, std::size_t s) {
    if (lock.TryLockShared(h)) {
      stats_.OnReadAcquire(s, /*was_contended=*/false);
      return;
    }
    for (std::uint32_t i = 0; i < parking::kBlockingSpinBudget; ++i) {
      P::Pause();
      if (lock.TryLockShared(h)) {
        stats_.OnReadAcquire(s, /*was_contended=*/true);
        return;
      }
    }
    auto& lot = parking::ParkingLot<P>::Global();
    bool acquired = false;
    while (!acquired) {
      lot.ParkConditionally(
          &lock,
          [&] {
            acquired = lock.TryLockShared(h);
            return !acquired;
          },
          parking::kBlockingParkTimeoutNs);
    }
    stats_.OnReadAcquire(s, /*was_contended=*/true);
  }

  // Lockdep: one class for every stripe of this table (see lockdep.h);
  // shared acquisitions are tagged so the witness report distinguishes
  // reader-side from writer-side chains.
  void LockdepAcquired(std::size_t s, bool trylock, bool shared,
                       bool multi_key, std::uint64_t wait_ns) {
    if (telemetry::lockdep::Enabled()) {
      static const int rd_site =
          telemetry::lockdep::InternSite("RwLockTable::LockSharedStripe");
      static const int try_rd_site =
          telemetry::lockdep::InternSite("RwLockTable::TryLockSharedStripe");
      static const int wr_site =
          telemetry::lockdep::InternSite("RwLockTable::LockExclusiveStripe");
      static const int try_wr_site =
          telemetry::lockdep::InternSite("RwLockTable::TryLockExclusiveStripe");
      static const int multi_site =
          telemetry::lockdep::InternSite("RwLockTable::LockKeys");
      const int site =
          multi_key ? multi_site
                    : (shared ? (trylock ? try_rd_site : rd_site)
                              : (trylock ? try_wr_site : wr_site));
      telemetry::lockdep::OnAcquired(
          P::CpuId(), lockdep_cls_, site,
          reinterpret_cast<std::uintptr_t>(&array_.Stripe(s)), trylock, shared,
          multi_key, wait_ns);
    }
  }
  void LockdepReleased(std::size_t s) {
    if (telemetry::lockdep::Enabled()) {
      telemetry::lockdep::OnReleased(
          P::CpuId(), lockdep_cls_,
          reinterpret_cast<std::uintptr_t>(&array_.Stripe(s)));
    }
  }

  StripeArray<L> array_;
  bool blocking_;  // immutable after construction
  int lockdep_cls_;  // lock class shared by every stripe
  HandlePool<P, L> shared_pool_;
  HandlePool<P, L> excl_pool_;
  RwTableStats stats_;
  std::unique_ptr<RwTableLatency> lat_;  // null unless collect_latency
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_RW_LOCK_TABLE_H_
