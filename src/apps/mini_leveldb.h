// MiniLevelDb: stand-in for leveldb 1.20's db_bench readrandom workload
// (Section 7.1.2, Figure 11), on the NUMA simulator (sim/machine.h) in place
// of the real database.
//
// What matters for the paper's experiment is the locking profile of Get():
//   1. "Each Get operation acquires a global database lock in order to take a
//      consistent snapshot of pointers to internal database structures (and
//      increment reference counters ...)."            -> global_lock_, short CS
//   2. "The search operation itself, however, executes without holding the
//      database lock"                                 -> lock-free binary
//      search over the pre-filled sorted table (real work, real data traffic)
//   3. "but acquires locks protecting (sharded) LRU cache as it seeks to
//      update the cache structure with the accessed key."  -> shard locks
//      striped through a locktable::RwLockTable (leveldb's default 16 ways).
//      Cache lookups are read-dominated, so the shard table is reader-writer:
//      a hit takes the stripe in *shared* mode and records recency in a
//      per-entry reference bit (second-chance/CLOCK, the classic way to keep
//      a cache's hit path read-only); only inserts and evictions take the
//      stripe exclusively.
//   4. Releasing the snapshot re-acquires the global lock to drop the refs.
//
// Pre-filled DB (1M keys): long step 2 => moderate global-lock contention,
// Figure 11(a).  Empty DB: step 2 vanishes => the global lock is pounded,
// Figure 11(b), "similar to the microbenchmark results with no external
// work".
#ifndef CNA_APPS_MINI_LEVELDB_H_
#define CNA_APPS_MINI_LEVELDB_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/cacheline.h"
#include "base/rng.h"
#include "locks/cna_rwlock.h"
#include "locks/lock_api.h"
#include "locktable/rw_lock_table.h"

namespace cna::apps {

struct MiniLevelDbOptions {
  // db_bench default: 1M key-value pairs.  0 reproduces the empty-DB run.
  std::uint64_t prefill_keys = 1'000'000;
  // leveldb's LRU block cache is sharded 16 ways by default; the shard locks
  // live in a locktable::LockTable, so the count is a runtime knob (rounded
  // up to a power of two).
  std::size_t cache_shards = 16;
  std::size_t cache_capacity_per_shard = 4096;
  // Enables the shard table's per-stripe read/write counters (tests assert
  // the cache path is read-dominated).
  bool cache_stats = false;
  // Records shard-lock read/write wait + write hold latency into the
  // telemetry registry under "leveldb.cache.*" (src/telemetry/).
  bool cache_latency = false;
  std::uint64_t seed = 7;
  // Instruction-execution cost of the global-lock critical section.
  std::uint64_t snapshot_cs_ns = 40;
};

// L is the swept lock kind: it guards the global DB lock (the line the
// paper's Figure 11 is about).  The cache-shard stripes are reader-writer
// locks and therefore a separate parameter (the swept mutex kinds are not
// SharedLockable); they default to the compact CnaRwLock -- one 8-byte word
// each, the table-embedding layout -- padded to a line per stripe because
// the shard array is small and hot.  Note this means the cache path is
// *fixed* across fig11's lock sweep: the figures compare kinds of the
// global lock only, with identical shard-lock behavior behind them.
template <typename P, locks::Lockable L,
          locks::SharedLockable ShardL =
              locks::CnaRwLock<P, locks::CnaRwCompactConfig>>
class MiniLevelDb {
 public:
  using ShardRwLock = ShardL;
  using ShardLockTable = locktable::RwLockTable<P, ShardRwLock>;

  explicit MiniLevelDb(MiniLevelDbOptions options)
      : options_(options),
        shard_locks_({.stripes = options.cache_shards,
                      .padding = locktable::StripePadding::kCacheLine,
                      .collect_stats = options.cache_stats,
                      .collect_latency = options.cache_latency,
                      .metrics_name = "leveldb.cache"}),
        shards_(shard_locks_.stripes()) {
    table_.reserve(options.prefill_keys);
    for (std::uint64_t i = 0; i < options.prefill_keys; ++i) {
      table_.push_back({i, MixValue(i)});
    }
  }

  MiniLevelDb(const MiniLevelDb&) = delete;
  MiniLevelDb& operator=(const MiniLevelDb&) = delete;

  // db_bench readrandom: Get a uniformly random key.
  std::optional<std::uint64_t> ReadRandomOp(XorShift64& rng) {
    const std::uint64_t range =
        options_.prefill_keys == 0 ? 1'000'000 : options_.prefill_keys;
    return Get(rng.NextBelow(range));
  }

  std::optional<std::uint64_t> Get(std::uint64_t key) {
    // (1) Take the snapshot under the global DB lock: read version pointers
    // and record the reference.  The refcount is sharded into per-context
    // slots keyed by P::CpuId() -- each slot its own cache line and its own
    // modelled line -- so taking a reference no longer bounces one shared
    // refs line through the global lock's critical section (the line that
    // used to ping-pong between sockets alongside the lock word itself).
    const std::size_t ref_slot = RefSlotIndex();
    {
      locks::ScopedLock<L> guard(global_lock_);
      P::ExternalWork(options_.snapshot_cs_ns);
      P::OnDataAccess(kVersionId, /*write=*/false);
      ref_slots_[ref_slot].refs.fetch_add(1, std::memory_order_relaxed);
      P::OnDataAccess(kRefsId + ref_slot, /*write=*/true);
    }

    // (2) Search without the DB lock.
    std::optional<std::uint64_t> result = SearchTable(key);

    // (3) Update the sharded LRU cache.
    TouchCache(key);

    // (4) Release the snapshot.  With sharded refcounts the release is one
    // decrement of this context's own slot: no global-lock reacquisition,
    // no shared line touched.  (The same-slot guarantee holds even if the
    // OS migrated the thread: the slot index was captured at Ref time.)
    ref_slots_[ref_slot].refs.fetch_sub(1, std::memory_order_relaxed);
    P::OnDataAccess(kRefsId + ref_slot, /*write=*/true);
    return result;
  }

  // Writer path (tests/examples; db_bench readrandom does not call it).
  void Put(std::uint64_t key, std::uint64_t value) {
    locks::ScopedLock<L> guard(global_lock_);
    P::ExternalWork(options_.snapshot_cs_ns);
    memtable_[key] = value;
    P::OnDataAccess(kMemtableId + key % 64, /*write=*/true);
  }

  // Outstanding snapshot references, summed over the per-context slots.
  // Exact only at quiescence (like every sum over sharded counters).
  std::uint64_t version_refs() const {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < kRefSlots; ++i) {
      sum += ref_slots_[i].refs.load(std::memory_order_relaxed);
    }
    return static_cast<std::uint64_t>(sum);
  }
  L& global_lock() { return global_lock_; }
  ShardLockTable& cache_shard_locks() { return shard_locks_; }

  // Number of entries cached in shard `s` (tests: capacity bounds).  Call
  // only when no worker is running.
  std::size_t CacheShardSize(std::size_t s) const {
    return shards_[s]->lru.size();
  }

  static std::uint64_t MixValue(std::uint64_t key) {
    return key * 0x9e3779b97f4a7c15ull;
  }

 private:
  static constexpr std::uint64_t kVersionId = 1ull << 34;
  // Base of the per-slot refs lines: kRefsId + slot, one modelled line per
  // slot, in the [128, 192) gap between the memtable and table regions.
  static constexpr std::uint64_t kRefsId = (1ull << 34) + 128;
  static constexpr std::uint64_t kMemtableId = (1ull << 34) + 16;
  static constexpr std::uint64_t kTableId = (1ull << 34) + 256;
  static constexpr std::uint64_t kShardId = (1ull << 34) + (1ull << 30);

  std::optional<std::uint64_t> SearchTable(std::uint64_t key) {
    // Memtable first (empty in readrandom runs; linear in tests' small data).
    {
      auto it = memtable_.find(key);
      P::OnDataAccess(kMemtableId + key % 64, /*write=*/false);
      if (it != memtable_.end()) {
        return it->second;
      }
    }
    // Binary search of the sorted run; each probe is a (mostly cold) read.
    std::size_t lo = 0;
    std::size_t hi = table_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      P::OnDataAccess(kTableId + mid / 4, /*write=*/false);
      if (table_[mid].first < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < table_.size() && table_[lo].first == key) {
      return table_[lo].second;
    }
    return std::nullopt;
  }

  void TouchCache(std::uint64_t key) {
    // The lock table's hash picks the shard; data shards are indexed by the
    // same stripe so a shard's lock and its recency state stay 1:1.
    //
    // Hit path (the common case under readrandom): the stripe is taken in
    // *shared* mode -- the lookup mutates nothing structural, it only sets
    // the entry's reference bit, so concurrent hits on one shard proceed in
    // parallel.  Only a miss (insert + possible eviction) upgrades to the
    // stripe's exclusive mode.
    const std::size_t s = shard_locks_.StripeOf(key);
    Shard& shard = *shards_[s];
    const std::uint64_t base = kShardId + (static_cast<std::uint64_t>(s) << 20);
    {
      typename ShardLockTable::ReadGuard guard(shard_locks_, key);
      auto it = shard.index.find(key);
      P::OnDataAccess(base, /*write=*/false);
      if (it != shard.index.end()) {
        // Second-chance promotion: the flag write is the hit path's only
        // store, confined to the entry's own line.
        it->second->referenced.store(true, std::memory_order_relaxed);
        P::OnDataAccess(base + 1 + key % 32, /*write=*/true);
        return;
      }
    }

    // Miss: insert under the exclusive mode.  Re-probe first -- another
    // writer may have inserted the key between the guards.
    typename ShardLockTable::WriteGuard guard(shard_locks_, key);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->referenced.store(true, std::memory_order_relaxed);
      return;
    }
    shard.lru.emplace_front(key);
    // Admit with the reference bit set (standard CLOCK admission): otherwise
    // a full shard of referenced entries would rotate in front of the new
    // entry and evict the very key the caller just accessed.
    shard.lru.front().referenced.store(true, std::memory_order_relaxed);
    shard.index.emplace(key, shard.lru.begin());
    P::OnDataAccess(base, /*write=*/true);
    P::OnDataAccess(base + 1 + key % 32, /*write=*/true);
    // Evict with second chance: a referenced tail entry gets its bit cleared
    // and one more trip through the list (bounded to one full scan).
    std::size_t scanned = shard.lru.size();
    while (shard.lru.size() > options_.cache_capacity_per_shard) {
      CacheEntry& victim = shard.lru.back();
      if (scanned-- > 0 &&
          victim.referenced.load(std::memory_order_relaxed)) {
        victim.referenced.store(false, std::memory_order_relaxed);
        shard.lru.splice(shard.lru.begin(), shard.lru,
                         std::prev(shard.lru.end()));
        continue;
      }
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      P::OnDataAccess(base + 2, /*write=*/true);
    }
  }

  // One cached key plus its CLOCK reference bit.  List nodes are stable in
  // memory, so readers may set the (atomic) bit while other readers scan.
  struct CacheEntry {
    explicit CacheEntry(std::uint64_t k) : key(k) {}
    std::uint64_t key;
    std::atomic<bool> referenced{false};
  };

  struct Shard {
    std::list<CacheEntry> lru;
    std::unordered_map<std::uint64_t,
                       typename std::list<CacheEntry>::iterator>
        index;
  };

  // Per-context version-reference slot: one cache line each so Ref/Unref
  // from different contexts never share a line.  Signed: a context may
  // Unref a snapshot another context's slot Ref'd only if thread ids alias
  // (mod kRefSlots), which keeps each slot's value small but possibly
  // negative in between; the sum is the true count.
  struct alignas(kCacheLineSize) RefSlot {
    std::atomic<std::int64_t> refs{0};
  };
  static constexpr std::size_t kRefSlots = 64;

  std::size_t RefSlotIndex() const {
    return static_cast<std::size_t>(static_cast<unsigned>(P::CpuId())) %
           kRefSlots;
  }

  MiniLevelDbOptions options_;
  L global_lock_;
  ShardLockTable shard_locks_;
  std::vector<CacheAligned<Shard>> shards_;  // indexed by lock-table stripe
  std::vector<std::pair<std::uint64_t, std::uint64_t>> table_;  // sorted
  std::unordered_map<std::uint64_t, std::uint64_t> memtable_;
  std::unique_ptr<RefSlot[]> ref_slots_{new RefSlot[kRefSlots]};
};

}  // namespace cna::apps

#endif  // CNA_APPS_MINI_LEVELDB_H_
