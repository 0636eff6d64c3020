// StripeTable<P, L, Flavor>: the one acquire/release pipeline behind the
// fixed lock tables.
//
// LockTable (lock_table.h) and RwLockTable (rw_lock_table.h) are thin
// facades over this core: they only give its operations their public names.
// Everything a stripe acquisition can carry lives here once, written against
// the access-mode tags of stripe_guard.h (ExclusiveAccess, SharedAccess):
//  * the plain acquisition, the stats try-probe, and spin-then-park blocking;
//  * try-acquire, and release plus unpark;
//  * the lockdep hooks and the latency sink;
//  * the handle-free surface by stripe, over one HandlePool per access mode;
//  * the all-or-nothing multi-key transaction (exclusive mode);
//  * the four guard hooks stripe_guard.h calls.
// The mode is a compile-time tag, so nothing dispatches at run time: with
// stats and blocking off, a guard's acquisition inlines to the stripe lock's
// own Lock(h) (or LockShared(h)).
//
// A Flavor names what really differs between the facades: the counter type
// (its OnAcquire takes the stripe, contended, multi-key and shared bits), the
// default metrics prefix, the latency histogram names, the lockdep site
// strings, and whether the table has a shared mode.
#ifndef CNA_LOCKTABLE_STRIPE_TABLE_H_
#define CNA_LOCKTABLE_STRIPE_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "locks/lock_api.h"
#include "locktable/handle_pool.h"
#include "locktable/stripe_array.h"
#include "locktable/stripe_guard.h"
#include "locktable/table_stats.h"
#include "parking/parking_lot.h"
#include "telemetry/lockdep.h"
#include "telemetry/metrics.h"

namespace cna::locktable {

struct LockTableOptions {
  // Rounded up to the next power of two; 0 is treated as 1.
  std::size_t stripes = 1024;
  StripePadding padding = StripePadding::kCompact;
  // Allocates the per-stripe counter array and enables counting (the lock
  // words themselves stay untouched; see table_stats.h).
  bool collect_stats = false;
  // Contention sampling: stats mode detects a contended acquisition with a
  // try-lock probe, which costs one extra RMW on the (by definition hot)
  // lock word.  With period N > 1 only ~1/N of acquisitions probe -- chosen
  // by the context-local PRNG, so no shared state -- and `contended` counts
  // become a 1/N sample (multiply by the period to estimate the true rate;
  // the resize policy does).  1 probes every acquisition (exact counts,
  // the historical behavior).  Rounded up to a power of two.
  std::uint32_t stats_probe_period = 1;
  // Acquisition/hold latency telemetry: registers the flavor's
  // "<metrics_name>.*_ns" histograms (StripeLatency below) in the global
  // telemetry registry (src/telemetry/) and records into them whenever
  // telemetry::Enabled().  Off by default: the lock path carries no timing
  // code.  nullptr picks the table flavor's default prefix ("locktable",
  // "rwtable", "combining").
  bool collect_latency = false;
  const char* metrics_name = nullptr;
  // Spin-then-park blocking at oversubscription: acquisitions try-lock for a
  // bounded spin budget, then park in the global parking lot
  // (src/parking/parking_lot.h) keyed by the stripe's lock, and each release
  // wakes one parked waiter preferring the releasing socket -- CNA's
  // socket-local handoff carried into the blocking layer.  Locks that manage
  // their own blocking (BlockingConfigurable, e.g. GcrLock's passive lists)
  // get the flag forwarded instead.  Off by default: the spinning fast path
  // is untouched.
  bool blocking = false;
};

// The core's latency sink, allocated only with collect_latency: acquisition
// latency (entry to ownership) and hold time per access mode -- exclusive at
// index 0, shared at index 1 -- plus a HoldTracker for acquire->release
// pairing on the handle-free surface (the RAII guards carry their own
// stamps, stripe_guard.h).  Each histogram is registered as prefix + the
// flavor's suffix; a null suffix leaves that mode's wait or hold untimed
// (RwLockTable does not time read holds).
struct StripeLatency {
  StripeLatency(const char* prefix, const char* const (&wait_suffix)[2],
                const char* const (&hold_suffix)[2]) {
    for (int m = 0; m < 2; ++m) {
      wait[m] = Register(prefix, wait_suffix[m]);
      hold[m] = Register(prefix, hold_suffix[m]);
    }
  }
  telemetry::Histogram* wait[2];
  telemetry::Histogram* hold[2];
  telemetry::HoldTracker tracker;

 private:
  static telemetry::Histogram* Register(const char* prefix,
                                        const char* suffix) {
    return suffix == nullptr ? nullptr
                             : &telemetry::Registry::Global().GetHistogram(
                                   std::string(prefix) + suffix);
  }
};

// LockTable's flavor: exclusive mode only.  Per-mode tables are indexed
// {exclusive, shared}: the latency histogram suffixes (null = not timed) and
// the lockdep sites {lock, try-lock, multi-key transaction}.
struct MutexFlavor {
  static constexpr bool kHasShared = false;
  static constexpr const char* kDefaultPrefix = "locktable";
  static constexpr const char* kWaitSuffix[2] = {".wait_ns", nullptr};
  static constexpr const char* kHoldSuffix[2] = {".hold_ns", nullptr};
  static constexpr const char* kSites[2][3] = {
      {"LockTable::LockStripe", "LockTable::TryLockStripe",
       "LockTable::LockKeys"}};
  using Stats = TableStats;
};

// RwLockTable's flavor: readers and writers.  Read hold time is not
// collected, and multi-key transactions are writer-side only.
struct RwFlavor {
  static constexpr bool kHasShared = true;
  static constexpr const char* kDefaultPrefix = "rwtable";
  static constexpr const char* kWaitSuffix[2] = {".write_wait_ns",
                                                 ".read_wait_ns"};
  static constexpr const char* kHoldSuffix[2] = {".write_hold_ns", nullptr};
  static constexpr const char* kSites[2][3] = {
      {"RwLockTable::LockExclusiveStripe",
       "RwLockTable::TryLockExclusiveStripe", "RwLockTable::LockKeys"},
      {"RwLockTable::LockSharedStripe", "RwLockTable::TryLockSharedStripe",
       "RwLockTable::LockKeys"}};
  using Stats = RwTableStats;
};

template <typename P, typename L, typename Flavor>
class StripeTable {
  // Index of each access mode into the per-mode pools and latency tables,
  // and its try-lock capability.
  template <typename A>
  static constexpr std::size_t kMode = std::is_same_v<A, SharedAccess>;
  template <typename A>
  static constexpr bool kCanTry = std::is_same_v<A, SharedAccess>
                                      ? locks::SharedTryLockable<L>
                                      : locks::TryLockable<L>;

 public:
  using Handle = typename L::Handle;

  // Upper bound on the namespace (see StripeArray).
  static constexpr std::size_t kMaxStripes = StripeArray<L>::kMaxStripes;

  // Multi-key transactions up to this many keys run heap-free (inline stripe
  // sets in MultiGuard, UnlockKeys, and the type-erased adapters).
  static constexpr std::size_t kInlineTxnKeys = 8;

  explicit StripeTable(const LockTableOptions& options)
      : array_(options.stripes, options.padding),
        probe_mask_(std::bit_ceil(std::max<std::uint32_t>(
                        options.stats_probe_period, 1)) -
                    1),
        blocking_(options.blocking),
        lockdep_cls_(telemetry::lockdep::InternClass(
            std::string(Prefix(options)) + "/stripe")) {
    if (options.collect_stats) {
      stats_.Enable(array_.stripes());
    }
    if (options.collect_latency) {
      lat_ = std::make_unique<StripeLatency>(
          Prefix(options), Flavor::kWaitSuffix, Flavor::kHoldSuffix);
    }
    if constexpr (locks::BlockingConfigurable<L>) {
      if (blocking_) {
        for (std::size_t s = 0; s < array_.stripes(); ++s) {
          array_.Stripe(s).SetBlocking(true);
        }
      }
    }
  }

  StripeTable(const StripeTable&) = delete;
  StripeTable& operator=(const StripeTable&) = delete;

  // --- Namespace geometry (see stripe_array.h) ---

  std::size_t stripes() const { return array_.stripes(); }
  StripePadding padding() const { return array_.padding(); }
  std::size_t StripeOf(std::uint64_t key) const {
    return array_.StripeOf(key);
  }
  // The paper's compactness quantity: a 1M-stripe CNA table is 8 MiB.
  std::size_t LockStateBytes() const { return array_.LockStateBytes(); }
  static constexpr std::size_t PerStripeStateBytes() { return L::kStateBytes; }
  L& StripeLock(std::size_t s) { return array_.Stripe(s); }

  // Sorted distinct stripes of a key set; see StripeArray.
  std::size_t DistinctStripesInto(const std::uint64_t* keys, std::size_t count,
                                  std::size_t* out) const {
    return array_.DistinctStripesInto(keys, count, out);
  }

  // --- Handle-free locking by stripe, in access mode A ---
  //
  // The handle comes from mode A's per-context pool (handle_pool.h), and
  // the latency sink's HoldTracker pairs acquire with release.

  template <typename A>
  void Acquire(A, std::size_t s, bool multi_key = false) {
    const std::uint64_t t0 = GuardStart();
    const std::uint64_t t1 =
        LockTimed(A{}, s, pools_[kMode<A>].Checkout(s), multi_key, t0);
    if (t0 != 0) {
      Record(lat_->wait[kMode<A>], t1 - t0);
      StartHold(A{}, s, t1);
    }
  }

  template <typename A>
  bool TryAcquire(A, std::size_t s) {
    static_assert(kCanTry<A>, "try-lock requires a try-lock path in mode A");
    HandlePool<P, L>& pool = pools_[kMode<A>];
    Handle& h = pool.Checkout(s);
    if (TryLockIn(A{}, StripeLock(s), h)) {
      CountAcquire(A{}, s, /*contended=*/false, /*multi_key=*/false);
      if (const std::uint64_t t = GuardStart(); t != 0) {
        StartHold(A{}, s, t);
      }
      LockdepAcquired(A{}, s, /*trylock=*/true, /*multi_key=*/false, 0);
      return true;
    }
    stats_.OnTryLockFailure(s);
    pool.Recycle(pool.TryDetach(s));
    return false;
  }

  // Throws std::logic_error, before touching any state, if this context
  // holds no handle-free acquisition of the stripe in mode A -- including a
  // stripe it holds through a guard, which only the guard may release.
  template <typename A>
  void Release(A, std::size_t s) {
    if (!TryRelease(A{}, s)) {
      throw std::logic_error(
          "locktable: unlock of a stripe this context does not hold");
    }
  }

  // Release() that reports "not held by this context" as false instead of
  // throwing -- ownership check and release in ONE pass over the pool's
  // active list, for callers that must probe several tables for the holder
  // (the resizable table's Unlock walking current snapshot then migration
  // predecessor).
  template <typename A>
  bool TryRelease(A, std::size_t s) {
    HandlePool<P, L>& pool = pools_[kMode<A>];
    Handle* h = pool.TryDetach(s);
    if (h == nullptr) {
      return false;
    }
    RecordHold(A{}, s);
    ReleaseWith(A{}, s, *h);
    pool.Recycle(h);
    return true;
  }

  // Whether this context holds stripe `s` in mode A through the handle-free
  // surface.
  template <typename A>
  bool Holds(A, std::size_t s) const {
    return pools_[kMode<A>].HoldsInThisContext(s);
  }

  // Stripes this context holds in mode A, through either surface.  Guard-held
  // stripes are counted per pool slot, and context ids map onto slots modulo
  // HandlePool's slot count: if two live contexts share a slot and both hold
  // guards at once, one of them may undercount its guards (never another
  // context's) until they are released.
  template <typename A>
  std::size_t HeldIn(A) const {
    return pools_[kMode<A>].ActiveInThisContext();
  }

  // Free-list depth of the exclusive pool for this context.  Guards never
  // check handles out, so this counts handle-free checkouts only.
  std::size_t PooledHandlesInThisContext() const {
    return pools_[kMode<ExclusiveAccess>].PooledInThisContext();
  }

  // --- Multi-key exclusive transactions (MultiGuard, the C surface) ---
  //
  // Locks the distinct stripes of keys[0..count) in ascending stripe order,
  // a total order, so transactions cannot deadlock against each other; keys
  // sharing a stripe take it once.  Writes the stripes into out[] (capacity
  // >= count) and returns how many, for UnlockStripesN().  All-or-nothing: if
  // an acquisition throws (handle allocation under memory pressure), the
  // stripes already taken are released before the exception propagates.
  std::size_t LockKeysInto(const std::uint64_t* keys, std::size_t count,
                           std::size_t* out) {
    const std::size_t n = DistinctStripesInto(keys, count, out);
    std::size_t taken = 0;
    try {
      for (; taken < n; ++taken) {
        Acquire(ExclusiveAccess{}, out[taken], /*multi_key=*/true);
      }
    } catch (...) {
      UnlockStripesN(out, taken);
      throw;
    }
    return n;
  }

  // Releases stripes obtained from LockKeysInto(), in descending order.
  void UnlockStripesN(const std::size_t* stripes, std::size_t n) {
    for (std::size_t i = n; i-- > 0;) {
      Release(ExclusiveAccess{}, stripes[i]);
    }
  }

  // Checked release of a key set: verifies this context holds *every*
  // distinct stripe exclusively before releasing any, so a misuse throws
  // std::logic_error without half-releasing the transaction.  Heap-free for
  // key sets up to kInlineTxnKeys, mirroring the lock side.
  void UnlockKeys(const std::uint64_t* keys, std::size_t count) {
    std::size_t inline_stripes[kInlineTxnKeys];
    std::vector<std::size_t> spill;
    std::size_t* stripes = inline_stripes;
    if (count > kInlineTxnKeys) {
      spill.resize(count);
      stripes = spill.data();
    }
    const std::size_t n = DistinctStripesInto(keys, count, stripes);
    for (std::size_t i = 0; i < n; ++i) {
      if (!Holds(ExclusiveAccess{}, stripes[i])) {
        throw std::logic_error(
            "locktable: UnlockKeys of a stripe this context does not hold");
      }
    }
    UnlockStripesN(stripes, n);
  }

  // --- Statistics ---

  bool stats_enabled() const { return stats_.enabled(); }
  auto StatsSummary() const { return stats_.Summarize(); }
  auto StripeStats(std::size_t s) const { return stats_.stripe(s); }

  // --- Guard hooks (see stripe_guard.h) ---

  std::uint64_t GuardStart() const {
    return lat_ != nullptr && telemetry::Enabled() ? telemetry::NowNs() : 0;
  }

  template <typename A>
  std::uint64_t GuardAcquire(A, std::size_t s, Handle& h, bool multi_key,
                             std::uint64_t t_prev) {
    const std::uint64_t t1 = LockTimed(A{}, s, h, multi_key, t_prev);
    pools_[kMode<A>].NoteGuardAcquired();
    return t1;
  }

  template <typename A>
  void GuardRelease(A, std::size_t s, Handle& h) {
    pools_[kMode<A>].NoteGuardReleased();
    ReleaseWith(A{}, s, h);
  }

  template <typename A>
  void GuardRecord(A, std::uint64_t t0, std::uint64_t t1, std::uint64_t t2) {
    Record(lat_->wait[kMode<A>], t1 - t0);
    Record(lat_->hold[kMode<A>], t2 - t1);
  }

 private:
  static const char* Prefix(const LockTableOptions& options) {
    return options.metrics_name == nullptr ? Flavor::kDefaultPrefix
                                           : options.metrics_name;
  }

  // True when this table wraps stripe acquisitions in the parking lot's
  // spin-then-park (locks with their own passive layer forward the flag in
  // the constructor instead; kinds without a try-lock path in every mode
  // cannot park at all).
  static constexpr bool kTableParks =
      kCanTry<ExclusiveAccess> &&
      (!Flavor::kHasShared || kCanTry<SharedAccess>) &&
      !locks::BlockingConfigurable<L>;

  // The stripe lock's operations in each mode.
  static void LockIn(ExclusiveAccess, L& l, Handle& h) { l.Lock(h); }
  static void LockIn(SharedAccess, L& l, Handle& h) { l.LockShared(h); }
  static bool TryLockIn(ExclusiveAccess, L& l, Handle& h) {
    return l.TryLock(h);
  }
  static bool TryLockIn(SharedAccess, L& l, Handle& h) {
    return l.TryLockShared(h);
  }
  static void UnlockIn(ExclusiveAccess, L& l, Handle& h) { l.Unlock(h); }
  static void UnlockIn(SharedAccess, L& l, Handle& h) { l.UnlockShared(h); }

  // Locks stripe s in mode A through handle h, whoever owns it (a pool
  // checkout or a guard), and reports it to lockdep.  Returns the ownership
  // stamp, 0 when not timing (t_prev == 0).
  template <typename A>
  std::uint64_t LockTimed(A, std::size_t s, Handle& h, bool multi_key,
                          std::uint64_t t_prev) {
    LockWith(A{}, s, h, multi_key);
    const std::uint64_t t1 = t_prev != 0 ? telemetry::NowNs() : 0;
    LockdepAcquired(A{}, s, /*trylock=*/false, multi_key, t1 - t_prev);
    return t1;
  }

  // The plain case is the undisturbed one-SWAP acquisition, small enough to
  // inline into both surfaces; parking and the stats probe sit out of line
  // in LockWithPolicies.
  template <typename A>
  void LockWith(A, std::size_t s, Handle& h, bool multi_key) {
    if (!(kTableParks && blocking_) && !stats_.enabled()) {
      LockIn(A{}, StripeLock(s), h);
      return;
    }
    LockWithPolicies(A{}, s, h, multi_key);
  }

  template <typename A>
  void LockWithPolicies(A, std::size_t s, Handle& h, bool multi_key) {
    L& lock = StripeLock(s);
    if constexpr (kTableParks) {
      if (blocking_) {
        AcquireParked(A{}, lock, h, s, multi_key);
        return;
      }
    }
    // Stats mode probes with a try-lock first so contention (a writer
    // waiting for readers to drain, or for another writer) is observable,
    // sampled when stats_probe_period > 1.
    if constexpr (kCanTry<A>) {
      if (probe_mask_ == 0 || (P::Random() & probe_mask_) == 0) {
        const bool contended = !TryLockIn(A{}, lock, h);
        if (contended) {
          LockIn(A{}, lock, h);
        }
        CountAcquire(A{}, s, contended, multi_key);
        return;
      }
    }
    // Not sampled, or the lock has no try-lock path to probe with.
    LockIn(A{}, lock, h);
    CountAcquire(A{}, s, /*contended=*/false, multi_key);
  }

  template <typename A>
  void CountAcquire(A, std::size_t s, bool contended, bool multi_key) {
    stats_.OnAcquire(s, contended, multi_key, std::is_same_v<A, SharedAccess>);
  }

  // Spin-then-park acquisition.  The bounded try-lock spin keeps light
  // contention identical to the spinning table; past the budget the waiter
  // parks keyed by the stripe's lock, with the mode's try-lock itself as the
  // publish-then-recheck revalidate -- so the stripe can never sit free with
  // a sleeping waiter (the lost-wakeup proof is in parking_lot.h).  Wakeups
  // barge: a woken waiter retries against concurrent arrivals and re-parks
  // if it loses, trading strict FIFO for the unlock-side fast path.
  template <typename A>
  void AcquireParked(A, L& lock, Handle& h, std::size_t s, bool multi_key) {
    bool acquired = TryLockIn(A{}, lock, h);
    const bool contended = !acquired;
    for (std::uint32_t spin = 0;
         !acquired && spin < parking::kBlockingSpinBudget; ++spin) {
      P::Pause();
      acquired = TryLockIn(A{}, lock, h);
    }
    auto& lot = parking::ParkingLot<P>::Global();
    while (!acquired) {
      lot.ParkConditionally(
          &lock,
          [&] {
            acquired = TryLockIn(A{}, lock, h);
            return !acquired;  // park only while the stripe stays busy
          },
          parking::kBlockingParkTimeoutNs);
    }
    CountAcquire(A{}, s, contended, multi_key);
  }

  // Unlocks stripe s in mode A through handle h and wakes parked waiters.
  // A reader's release wakes one (only a writer can be blocked by readers,
  // and only one can win, preferring the releasing socket); a writer's
  // release in a table with readers wakes every waiter, since a whole reader
  // convoy may have parked behind it and all of them can enter now.
  template <typename A>
  void ReleaseWith(A, std::size_t s, Handle& h) {
    LockdepReleased(s);
    L& lock = StripeLock(s);
    UnlockIn(A{}, lock, h);
    if constexpr (kTableParks) {
      if (blocking_) {
        auto& lot = parking::ParkingLot<P>::Global();
        if constexpr (Flavor::kHasShared &&
                      std::is_same_v<A, ExclusiveAccess>) {
          lot.UnparkAll(&lock);
        } else {
          lot.UnparkOne(&lock, P::CurrentSocket());
        }
      }
    }
  }

  // Latency helpers.  Handle-free hold time runs from ownership
  // (Acquire/TryAcquire completion) to the start of the release, paired
  // through the HoldTracker; a mode whose hold is not timed (null histogram)
  // skips the tracker.  Best-effort: a Pop miss (tracker overflow, telemetry
  // enabled mid-hold) records nothing.
  static void Record(telemetry::Histogram* h, std::uint64_t ns) {
    if (h != nullptr) {
      h->RecordAt(P::CurrentSocket(), P::CpuId(), ns);
    }
  }

  template <typename A>
  void StartHold(A, std::size_t s, std::uint64_t t_owned) {
    if (lat_->hold[kMode<A>] != nullptr) {
      lat_->tracker.Push(P::CpuId(), s, t_owned);
    }
  }

  template <typename A>
  void RecordHold(A, std::size_t s) {
    if (lat_ != nullptr && telemetry::Enabled() &&
        lat_->hold[kMode<A>] != nullptr) {
      const std::uint64_t t0 = lat_->tracker.Pop(P::CpuId(), s);
      if (t0 != 0) {
        Record(lat_->hold[kMode<A>], telemetry::NowNs() - t0);
      }
    }
  }

  // Lockdep hooks (src/telemetry/lockdep.h): stripes of one table share a
  // class keyed by metrics name, the stripe lock's address is the instance
  // (contiguous StripeArray => ascending stripe index == ascending address,
  // which is what makes MultiGuard's sorted order checkable), and shared
  // acquisitions are tagged so the witness report distinguishes reader-side
  // from writer-side chains.  Gated on the lockdep master flag; empty when
  // compiled out.
  template <typename A>
  void LockdepAcquired(A, std::size_t s, bool trylock, bool multi_key,
                       std::uint64_t wait_ns) {
    if (telemetry::lockdep::Enabled()) {
      static const int sites[3] = {
          telemetry::lockdep::InternSite(Flavor::kSites[kMode<A>][0]),
          telemetry::lockdep::InternSite(Flavor::kSites[kMode<A>][1]),
          telemetry::lockdep::InternSite(Flavor::kSites[kMode<A>][2])};
      telemetry::lockdep::OnAcquired(
          P::CpuId(), lockdep_cls_, sites[trylock ? 1 : (multi_key ? 2 : 0)],
          reinterpret_cast<std::uintptr_t>(&array_.Stripe(s)), trylock,
          std::is_same_v<A, SharedAccess>, multi_key, wait_ns);
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
  std::uint32_t probe_mask_;  // stats_probe_period - 1 (period power of two)
  bool blocking_;             // immutable after construction
  int lockdep_cls_;           // lock class shared by every stripe
  // One pool per access mode: exclusive first, then shared when the flavor
  // has it.  A context may hold a stripe in only one mode at a time, and the
  // split pools let a mode-dispatching Unlock(key) discover which.
  HandlePool<P, L> pools_[Flavor::kHasShared ? 2 : 1];
  typename Flavor::Stats stats_;
  std::unique_ptr<StripeLatency> lat_;  // null unless collect_latency
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_STRIPE_TABLE_H_
