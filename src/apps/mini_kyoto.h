// MiniKyotoDb: stand-in for Kyoto Cabinet's kccachetest "wicked" benchmark as
// the paper runs it (Section 7.1.3, Figure 12), on the NUMA simulator
// (sim/machine.h) in place of the real database.
//
// Following Dice [Malthusian locks] and the paper: the DB's internal mutexes
// are replaced by the evaluated POSIX-style lock, the key range is fixed at
// 10M elements, and the run is time-based.  The resulting profile is a single
// heavily contended lock around short hash-table critical sections -- the
// benchmark "does not scale, and in fact becomes worse as contention grows",
// so the best absolute throughput is at one thread and the interesting
// question is how little each lock loses.
//
// Two serving modes share one open-addressed bucket core (detail::
// KyotoBuckets, parameterized on the probe-step policy so the two modes
// cannot drift apart):
//   * MiniKyotoDb         -- the paper's configuration: one global lock,
//     probe chains wrap linearly over the whole table;
//   * MiniKyotoStripedDb  -- the fine-grained contrast: a flat-combining
//     stripe per contiguous bucket range, probe chains wrap within their
//     range so every operation touches exactly one stripe.
#ifndef CNA_APPS_MINI_KYOTO_H_
#define CNA_APPS_MINI_KYOTO_H_

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "locks/lock_api.h"
#include "locktable/combining.h"

namespace cna::apps {

namespace detail {

// Open-addressed key/value bucket array with bounded probe chains and
// cache-DB overwrite semantics (a full chain overwrites the home slot --
// bounded memory, like CacheDB's capped buckets).  The probe-step policy is
// a callable next(home, i) -> slot, the only thing the serving modes differ
// in; data traffic is charged per touched slot via P::OnDataAccess.
template <typename P>
class KyotoBuckets {
 public:
  static constexpr int kMaxProbe = 8;

  explicit KyotoBuckets(std::size_t buckets_log2)
      : mask_((std::size_t{1} << buckets_log2) - 1),
        keys_(mask_ + 1, kEmpty),
        values_(mask_ + 1, 0) {}

  std::size_t mask() const { return mask_; }

  std::size_t Hash(std::uint64_t key) const {
    return static_cast<std::size_t>(key * 0x9e3779b97f4a7c15ull >> 24) & mask_;
  }

  template <typename NextFn>
  bool Set(std::uint64_t key, std::uint64_t value, NextFn&& next) {
    const std::size_t home = Hash(key);
    for (int i = 0; i < kMaxProbe; ++i) {
      const std::size_t slot = next(home, i);
      P::OnDataAccess(kBaseId + slot, /*write=*/false);
      if (keys_[slot] == key || keys_[slot] == kEmpty) {
        keys_[slot] = key;
        values_[slot] = value;
        P::OnDataAccess(kBaseId + slot, /*write=*/true);
        return true;
      }
    }
    keys_[home] = key;
    values_[home] = value;
    P::OnDataAccess(kBaseId + home, /*write=*/true);
    return true;
  }

  template <typename NextFn>
  std::uint64_t Get(std::uint64_t key, NextFn&& next) {
    const std::size_t home = Hash(key);
    for (int i = 0; i < kMaxProbe; ++i) {
      const std::size_t slot = next(home, i);
      P::OnDataAccess(kBaseId + slot, /*write=*/false);
      if (keys_[slot] == key) {
        return values_[slot];
      }
      if (keys_[slot] == kEmpty) {
        return 0;
      }
    }
    return 0;
  }

  template <typename NextFn>
  bool Remove(std::uint64_t key, NextFn&& next) {
    const std::size_t home = Hash(key);
    for (int i = 0; i < kMaxProbe; ++i) {
      const std::size_t slot = next(home, i);
      P::OnDataAccess(kBaseId + slot, /*write=*/false);
      if (keys_[slot] == key) {
        keys_[slot] = kEmpty;
        values_[slot] = 0;
        P::OnDataAccess(kBaseId + slot, /*write=*/true);
        return true;
      }
      if (keys_[slot] == kEmpty) {
        return false;
      }
    }
    return false;
  }

  // The wicked mix's "iterate" case: touch a short run of slots, as the
  // cursor operations do.
  template <typename NextFn>
  void TouchRun(std::uint64_t key, int count, NextFn&& next) {
    const std::size_t home = Hash(key);
    for (int i = 0; i < count; ++i) {
      P::OnDataAccess(kBaseId + next(home, i), /*write=*/false);
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::uint64_t kBaseId = 3ull << 34;

  std::size_t mask_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> values_;
};

}  // namespace detail

struct MiniKyotoOptions {
  std::uint64_t key_range = 10'000'000;  // the paper's fixed 10M
  std::size_t buckets_log2 = 20;         // 1M slots, open addressing
  std::uint64_t cs_compute_ns = 70;      // hashing/serialization inside the CS
  std::uint64_t external_work_ns = 0;    // kccachetest wicked: negligible non-CS work
};

template <typename P, locks::Lockable L>
class MiniKyotoDb {
 public:
  explicit MiniKyotoDb(MiniKyotoOptions options)
      : options_(options), buckets_(options.buckets_log2) {}

  MiniKyotoDb(const MiniKyotoDb&) = delete;
  MiniKyotoDb& operator=(const MiniKyotoDb&) = delete;

  // One iteration of the wicked mix: a random operation on a random key.
  // Returns true if the operation mutated the table.
  bool WickedOp(XorShift64& rng) {
    const std::uint64_t key = 1 + rng.NextBelow(options_.key_range);
    const std::uint64_t pick = rng.NextBelow(8);

    bool mutated = false;
    {
      locks::ScopedLock<L> guard(lock_);
      P::ExternalWork(options_.cs_compute_ns);
      if (pick < 3) {
        mutated = buckets_.Set(key, key * 3, Linear());
      } else if (pick < 6) {
        (void)buckets_.Get(key, Linear());
      } else if (pick == 6) {
        mutated = buckets_.Remove(key, Linear());
      } else {
        buckets_.TouchRun(key, 4, Linear());
      }
    }
    if (options_.external_work_ns > 0) {
      P::ExternalWork(options_.external_work_ns);
    }
    return mutated;
  }

  // Single-key operations (callers must hold no lock; used by tests).
  bool SetLocked(std::uint64_t key, std::uint64_t value) {
    locks::ScopedLock<L> guard(lock_);
    return buckets_.Set(key, value, Linear());
  }
  std::uint64_t GetLocked(std::uint64_t key) {
    locks::ScopedLock<L> guard(lock_);
    return buckets_.Get(key, Linear());
  }
  bool RemoveLocked(std::uint64_t key) {
    locks::ScopedLock<L> guard(lock_);
    return buckets_.Remove(key, Linear());
  }

  L& lock() { return lock_; }
  std::uint64_t external_work_ns() const { return options_.external_work_ns; }

 private:
  // The paper's configuration: probe chains wrap linearly over the whole
  // table.
  auto Linear() const {
    return [mask = buckets_.mask()](std::size_t home, int i) {
      return (home + static_cast<std::size_t>(i)) & mask;
    };
  }

  MiniKyotoOptions options_;
  L lock_;
  detail::KyotoBuckets<P> buckets_;
};

// ---------------------------------------------------------------------------
// Striped bucket path: the same open-addressed core served through a
// locktable::CombiningTable with one stripe per contiguous bucket *range*,
// instead of MiniKyotoDb's single global lock.  This is the fine-grained
// contrast to the paper's Figure 12 configuration: the benchmark that "does
// not scale" under one interposed mutex parallelizes across bucket ranges,
// and the ranges that stay hot are batch-executed by combiners.
//
// Probe chains are confined to their stripe's bucket range (open addressing
// wraps within the range), so every operation touches exactly one stripe and
// runs as one published closure.  With the default 1M buckets and up to a
// few thousand stripes, a range holds >= hundreds of slots -- far above the
// probe bound, so confinement does not measurably change occupancy.
// ---------------------------------------------------------------------------

struct MiniKyotoStripedOptions {
  std::uint64_t key_range = 10'000'000;  // the paper's fixed 10M
  std::size_t buckets_log2 = 20;         // 1M slots, open addressing
  std::size_t lock_stripes = 1024;       // one stripe per bucket range
  bool collect_stats = false;
  // Records op latency + combining batch size under "kyoto.striped.*"
  // (src/telemetry/).
  bool collect_latency = false;
  std::size_t combining_budget = 64;
  std::uint64_t cs_compute_ns = 70;
  std::uint64_t external_work_ns = 0;
};

template <typename P, locks::TryLockable L>
class MiniKyotoStripedDb {
 public:
  using Table = locktable::CombiningTable<P, L>;

  explicit MiniKyotoStripedDb(MiniKyotoStripedOptions options)
      : options_(options),
        buckets_(options.buckets_log2),
        table_({.stripes = options.lock_stripes,
                .collect_stats = options.collect_stats,
                .combining_budget = options.combining_budget,
                .collect_latency = options.collect_latency,
                .metrics_name = "kyoto.striped"}),
        // The table rounds stripes up to a power of two; a range must hold
        // at least one slot.
        range_mask_(((buckets_.mask() + 1) / table_.stripes() == 0
                         ? 1
                         : (buckets_.mask() + 1) / table_.stripes()) -
                    1) {}

  MiniKyotoStripedDb(const MiniKyotoStripedDb&) = delete;
  MiniKyotoStripedDb& operator=(const MiniKyotoStripedDb&) = delete;

  // One iteration of the wicked mix, published against the home slot's
  // stripe.  Returns true if the operation mutated the table.
  bool WickedOp(XorShift64& rng) {
    const std::uint64_t key = 1 + rng.NextBelow(options_.key_range);
    const std::uint64_t pick = rng.NextBelow(8);

    bool mutated = false;
    table_.ApplyStripe(StripeOfKey(key), [this, key, pick, &mutated] {
      P::ExternalWork(options_.cs_compute_ns);
      if (pick < 3) {
        mutated = buckets_.Set(key, key * 3, InRange());
      } else if (pick < 6) {
        (void)buckets_.Get(key, InRange());
      } else if (pick == 6) {
        mutated = buckets_.Remove(key, InRange());
      } else {
        buckets_.TouchRun(key, 4, InRange());
      }
    });
    if (options_.external_work_ns > 0) {
      P::ExternalWork(options_.external_work_ns);
    }
    return mutated;
  }

  // Single-key operations through the same combining path (tests).
  bool SetStriped(std::uint64_t key, std::uint64_t value) {
    bool mutated = false;
    table_.ApplyStripe(StripeOfKey(key), [this, key, value, &mutated] {
      mutated = buckets_.Set(key, value, InRange());
    });
    return mutated;
  }
  std::uint64_t GetStriped(std::uint64_t key) {
    std::uint64_t v = 0;
    table_.ApplyStripe(StripeOfKey(key), [this, key, &v] {
      v = buckets_.Get(key, InRange());
    });
    return v;
  }
  bool RemoveStriped(std::uint64_t key) {
    bool removed = false;
    table_.ApplyStripe(StripeOfKey(key), [this, key, &removed] {
      removed = buckets_.Remove(key, InRange());
    });
    return removed;
  }

  // The stripe guarding `key`'s bucket range.
  std::size_t StripeOfKey(std::uint64_t key) const {
    return buckets_.Hash(key) / (range_mask_ + 1);
  }

  Table& table() { return table_; }
  std::uint64_t external_work_ns() const { return options_.external_work_ns; }

 private:
  // Probe chains wrap within the home slot's bucket range so they never
  // cross a stripe boundary.
  auto InRange() const {
    return [range_mask = range_mask_](std::size_t home, int i) {
      return (home & ~range_mask) |
             ((home + static_cast<std::size_t>(i)) & range_mask);
    };
  }

  MiniKyotoStripedOptions options_;
  detail::KyotoBuckets<P> buckets_;
  Table table_;
  std::size_t range_mask_;
};

}  // namespace cna::apps

#endif  // CNA_APPS_MINI_KYOTO_H_
