// CombiningTable<P, L>: flat-combining batch execution over LockTable
// stripes.
//
// The paper's CNA keeps the *lock word* compact by moving contention
// management into the waiters' queue nodes.  This layer takes the same idea
// one step further, in the direction of flat combining [Hendler et al.] and
// of "Avoiding Scalability Collapse by Restricting Concurrency" [Dice &
// Kogan]: instead of handing a hot stripe from waiter to waiter -- one lock
// handover (and one critical-section cache-line migration) per operation --
// a thread that fails the stripe's fast path *publishes* its operation as a
// closure record, and whoever holds the stripe lock (the combiner) drains and
// applies pending records in one acquisition before releasing.  The hot
// stripe's data stays in the combiner's cache across the whole batch, the
// lock word changes hands once per batch instead of once per op, and the
// number of threads actively pounding the lock shrinks to one.
//
// Composition follows Fissile-style fast-path/slow-path splitting: an
// uncontended stripe is acquired with one try-lock and pays nothing for the
// combining machinery (the publication list is not touched unless the drain
// finds it, and the drain of an empty list is one load).
//
// Mechanics:
//  * Per stripe, a Treiber-style push-only publication list of Records.
//    Records are pooled per execution context by the same HandlePool that
//    pools queue-lock nodes, so steady-state publication allocates nothing.
//  * A waiter that fails the stripe try-lock publishes a record, makes one
//    help attempt (if the stripe is free it becomes the combiner and serves
//    itself), and then spins only on its own record's state word -- it never
//    touches the lock word again, which is what shrinks the set of threads
//    pounding the lock to one.  Liveness comes from the release protocol: a
//    releasing combiner re-checks the publication list after unlocking and
//    re-acquires if records remain, unless a concurrent acquirer won the
//    lock -- in which case that acquirer's own release runs the same
//    protocol.  A failed post-publication try-lock therefore proves a
//    current holder whose release check happens after the publication, so
//    no record is ever stranded.
//  * The combiner grabs the whole list with one exchange, partitions it
//    NUMA-aware -- records published from the combiner's own socket first,
//    mirroring CNA's secondary-queue policy, each class in arrival (FIFO)
//    order -- and applies up to `combining_budget` records on others'
//    behalf.  Leftover records are re-published still pending and the lock
//    is released between chunks, so Guard users and fresh fast paths can
//    interleave (and take over combining duty) rather than the combiner
//    being locked into unbounded servitude within one acquisition.
//  * A record is marked done only after its closure ran and only after it is
//    off the shared list for good; the publisher may therefore detach and
//    recycle it the moment it observes done.  Every record is executed
//    exactly once: only the list owner (the lock holder) executes records,
//    a record enters the list exactly once per operation, and only
//    un-executed records are ever re-published.
//
// Surface:
//  * Apply(key, fn)        -- execute fn() under key's stripe, possibly on a
//    combiner's context; returns after fn ran (happens-before established).
//  * ApplyBatch(keys, n, fn) -- group keys by stripe and execute fn(key) for
//    each, one stripe acquisition per distinct stripe.
//  * Submit(key, fn) -> Future -- asynchronous publication; Wait()/Ready()
//    for completion.  Wait must run on the submitting thread.
//  * Lock/Unlock/Guard     -- plain critical sections that coexist with
//    Apply users; release drains the publication list first, so lock users
//    are combiners too.
//  * Per-stripe combined/pass-through counters (table_stats.h), off by
//    default.
#ifndef CNA_LOCKTABLE_COMBINING_H_
#define CNA_LOCKTABLE_COMBINING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/cacheline.h"
#include "locks/lock_api.h"
#include "locktable/handle_pool.h"
#include "locktable/lock_table.h"
#include "locktable/table_stats.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace cna::locktable {

struct CombiningTableOptions {
  // Rounded up to the next power of two; 0 is treated as 1.
  std::size_t stripes = 1024;
  StripePadding padding = StripePadding::kCompact;
  // Enables both the underlying per-stripe lock counters and the combining
  // combined/pass-through counters.
  bool collect_stats = false;
  // Maximum records a combiner applies on others' behalf per drain class
  // (socket-local and remote are budgeted separately, so neither class can
  // starve the other; worst-case servitude per acquisition is twice this).
  // The combiner's own operation is exempt, so the bound never strands the
  // combiner itself.
  std::size_t combining_budget = 64;
  // Spin-then-park stripe acquisition at oversubscription (see
  // LockTableOptions::blocking).  Publishers still spin on their own record
  // word -- combining already bounds that spin to one batch -- but the
  // combiner's stripe acquisition parks instead of spinning unboundedly.
  bool blocking = false;
  // Operation latency (submit to completion) and batch-size telemetry:
  // registers "<metrics_name>.wait_ns" and "<metrics_name>.batch_size"
  // histograms (src/telemetry/).  Off by default; nullptr metrics_name means
  // "combining".
  bool collect_latency = false;
  const char* metrics_name = nullptr;
};

// Latency sink, allocated only with collect_latency: operation latency
// (submit to completion) and the size of each combining batch -- the
// distribution behind CombiningStatsSummary's MeanBatchSize().
struct CombiningLatency {
  explicit CombiningLatency(const char* prefix)
      : wait(telemetry::Registry::Global().GetHistogram(std::string(prefix) +
                                                        ".wait_ns")),
        batch(telemetry::Registry::Global().GetHistogram(std::string(prefix) +
                                                         ".batch_size")) {}
  telemetry::Histogram& wait;
  telemetry::Histogram& batch;
};

template <typename P, locks::TryLockable L>
class CombiningTable {
 public:
  using Table = LockTable<P, L>;
  using LockType = L;

  // One published operation.  A full cache line each: the state word is
  // spun on by its publisher while the combiner writes it, and neighbouring
  // records belong to different publishers.
  struct alignas(kCacheLineSize) Record {
    // Publication-list link.  Written by the publisher before the push CAS
    // and by the list owner during drains; never both at once.
    typename P::template Atomic<Record*> next{nullptr};
    // kPending from publish until the closure ran; kDone after.  The done
    // store is the release that publishes the closure's side effects to the
    // waiting publisher.
    typename P::template Atomic<std::uint32_t> state{0};
    // Socket the publisher ran on, for the NUMA-aware drain order.
    int socket = 0;
    // Synchronous Apply: closure on the publisher's stack (alive until it
    // observes kDone).
    void (*invoke)(void*) = nullptr;
    void* ctx = nullptr;
    // Asynchronous Submit: owned closure, moved out before execution so the
    // record carries no captures once done.
    std::function<void()> owned;
  };

  static constexpr std::uint32_t kPending = 1;
  static constexpr std::uint32_t kDone = 2;

  explicit CombiningTable(CombiningTableOptions options = {})
      : table_({.stripes = options.stripes,
                .padding = options.padding,
                .collect_stats = options.collect_stats,
                // Forward the name so the inner table's lockdep class is
                // "combining/stripe" (or the caller's name), not "locktable".
                .metrics_name = options.metrics_name == nullptr
                                    ? "combining"
                                    : options.metrics_name,
                .blocking = options.blocking}),
        budget_(options.combining_budget == 0 ? 1 : options.combining_budget),
        pub_(new PubStripe[table_.stripes()]) {
    if (options.collect_stats) {
      cstats_.Enable(table_.stripes());
    }
    if (options.collect_latency) {
      lat_ = std::make_unique<CombiningLatency>(
          options.metrics_name == nullptr ? "combining"
                                          : options.metrics_name);
    }
  }

  CombiningTable(const CombiningTable&) = delete;
  CombiningTable& operator=(const CombiningTable&) = delete;

  // --- Namespace geometry (delegated to the underlying table) ---

  std::size_t stripes() const { return table_.stripes(); }
  StripePadding padding() const { return table_.padding(); }
  std::size_t StripeOf(std::uint64_t key) const { return table_.StripeOf(key); }
  std::size_t LockStateBytes() const { return table_.LockStateBytes(); }
  static constexpr std::size_t PerStripeStateBytes() {
    return Table::PerStripeStateBytes();
  }
  // What combining adds on top of the lock words: one publication-list head
  // line per stripe.  This is the price of batching -- the combining layer
  // is for small hot tables, not for the million-stripe compactness regime.
  std::size_t CombiningStateBytes() const {
    return table_.stripes() * sizeof(PubStripe);
  }
  std::size_t combining_budget() const { return budget_; }
  Table& table() { return table_; }

  // --- Keyed execution surface ---

  // Executes fn() under the stripe key hashes to.  fn may run on this
  // context (fast path / self-combining) or on another context's combiner;
  // either way it has run -- exactly once -- before Apply returns, and its
  // side effects happen-before the return.  fn must not re-enter this table
  // on the same stripe and should not throw (a throwing closure is swallowed
  // so an arbitrary combiner victim is never unwound through user code).
  template <typename F>
  void Apply(std::uint64_t key, F&& fn) {
    ApplyStripe(StripeOf(key), std::forward<F>(fn));
  }

  // Same, addressed by stripe: for callers that manage their own key ->
  // stripe mapping (mini_kyoto's bucket ranges).
  template <typename F>
  void ApplyStripe(std::size_t s, F&& fn) {
    if (lat_ != nullptr && telemetry::Enabled()) {
      const std::uint64_t t0 = telemetry::NowNs();
      ApplyStripeImpl(s, std::forward<F>(fn));
      lat_->wait.RecordAt(P::CurrentSocket(), P::CpuId(),
                          telemetry::NowNs() - t0);
      return;
    }
    ApplyStripeImpl(s, std::forward<F>(fn));
  }

  // Batches up to this many keys run heap-free (inline grouping buffer),
  // mirroring LockTable::kInlineTxnKeys for multi-key transactions.
  static constexpr std::size_t kInlineBatchKeys = Table::kInlineTxnKeys;

  // Groups keys by stripe and executes fn(key) for every key (duplicates
  // included, in per-stripe arrival order) with one stripe acquisition per
  // distinct stripe.  Not atomic across stripes: each stripe's batch is its
  // own critical section, which is exactly what makes it a batching win
  // rather than a MultiGuard transaction.
  template <typename F>
  void ApplyBatch(const std::uint64_t* keys, std::size_t count, F&& fn) {
    if (count == 0) {
      return;
    }
    std::pair<std::size_t, std::uint64_t> inline_buf[kInlineBatchKeys];
    std::vector<std::pair<std::size_t, std::uint64_t>> overflow;
    std::pair<std::size_t, std::uint64_t>* grouped = inline_buf;
    if (count > kInlineBatchKeys) {
      overflow.resize(count);
      grouped = overflow.data();
    }
    for (std::size_t i = 0; i < count; ++i) {
      grouped[i] = {StripeOf(keys[i]), keys[i]};
    }
    std::stable_sort(grouped, grouped + count,
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (std::size_t i = 0; i < count;) {
      const std::size_t s = grouped[i].first;
      std::size_t end = i;
      while (end < count && grouped[end].first == s) {
        ++end;
      }
      ApplyStripe(s, [grouped, i, end, &fn] {
        for (std::size_t k = i; k < end; ++k) {
          fn(grouped[k].second);
        }
      });
      i = end;
    }
  }

  // --- Asynchronous surface ---

  // Completion handle for one Submit.  Move-only; Wait()/Ready()/~Future
  // must run on the submitting thread (the record returns to that thread's
  // pool slot).  The destructor waits if the caller never did.
  class Future {
   public:
    Future(Future&& o) noexcept
        : table_(std::exchange(o.table_, nullptr)),
          rec_(o.rec_),
          stripe_(o.stripe_) {}
    Future& operator=(Future&& o) noexcept {
      if (this != &o) {
        Finish();
        table_ = std::exchange(o.table_, nullptr);
        rec_ = o.rec_;
        stripe_ = o.stripe_;
      }
      return *this;
    }
    ~Future() { Finish(); }

    Future(const Future&) = delete;
    Future& operator=(const Future&) = delete;

    // True once the operation has been applied (acquire: observing true
    // also makes its side effects visible).
    bool Ready() const {
      return table_ == nullptr ||
             rec_->state.load(std::memory_order_acquire) == kDone;
    }

    // Blocks until the operation has been applied, combining on the way if
    // the stripe lock frees up.  Idempotent.
    void Wait() { Finish(); }

    std::size_t stripe() const { return stripe_; }

   private:
    friend class CombiningTable;
    Future(CombiningTable* table, Record* rec, std::size_t stripe)
        : table_(table), rec_(rec), stripe_(stripe) {}

    void Finish() {
      if (table_ == nullptr) {
        return;
      }
      table_->AwaitRecord(stripe_, rec_);
      table_->record_pool_.Recycle(
          table_->record_pool_.DetachExact(stripe_, rec_));
      table_ = nullptr;
    }

    CombiningTable* table_;
    Record* rec_;
    std::size_t stripe_;
  };

  // Publishes fn for execution under key's stripe and returns immediately.
  // The closure is owned by the record until it runs; completion is observed
  // through the Future.
  Future Submit(std::uint64_t key, std::function<void()> fn) {
    const std::size_t s = StripeOf(key);
    Record& r = record_pool_.Checkout(s);
    r.socket = P::CurrentSocket();
    r.invoke = nullptr;
    r.ctx = nullptr;
    r.owned = std::move(fn);
    r.state.store(kPending, std::memory_order_relaxed);
    Push(s, &r);
    return Future(this, &r, s);
  }

  // --- Plain critical sections (coexist with Apply users) ---

  void Lock(std::uint64_t key) { table_.LockStripe(StripeOf(key)); }

  // Releasing a plain critical section makes the releaser a combiner first:
  // lock users passing through a hot stripe serve its published backlog, so
  // a stream of Guard holders can never starve publishers.  Ownership is
  // validated before anything else: draining executes other threads'
  // closures, which only the stripe holder may do, so an unlock-without-lock
  // misuse must throw before touching the publication list.
  void Unlock(std::uint64_t key) {
    const std::size_t s = StripeOf(key);
    if (!table_.HoldsStripe(s)) {
      throw std::logic_error(
          "locktable::CombiningTable: Unlock of a stripe this context does "
          "not hold");
    }
    DrainLocked(s, nullptr);
    ReleaseStripe(s);
  }

  class Guard {
   public:
    Guard(CombiningTable& table, std::uint64_t key)
        : table_(table), stripe_(table.StripeOf(key)) {
      table_.table_.LockStripe(stripe_);
    }
    ~Guard() {
      table_.DrainLocked(stripe_, nullptr);
      table_.ReleaseStripe(stripe_);
    }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    std::size_t stripe() const { return stripe_; }

   private:
    CombiningTable& table_;
    std::size_t stripe_;
  };

  // --- Statistics / diagnostics ---

  bool stats_enabled() const { return cstats_.enabled(); }
  TableStatsSummary StatsSummary() const { return table_.StatsSummary(); }
  CombiningStatsSummary CombiningSummary() const {
    return cstats_.Summarize();
  }
  const StripeCounters* StripeStats(std::size_t s) const {
    return table_.StripeStats(s);
  }
  const CombiningStripeCounters* CombiningStripeStats(std::size_t s) const {
    return cstats_.stripe(s);
  }

  // Records this context currently has outstanding (tests/diagnostics).
  std::size_t PendingInThisContext() const {
    return record_pool_.ActiveInThisContext();
  }
  std::size_t PooledRecordsInThisContext() const {
    return record_pool_.PooledInThisContext();
  }

 private:
  // Publication-list head, one line per stripe so hot stripes do not
  // false-share their lists.
  struct alignas(kCacheLineSize) PubStripe {
    typename P::template Atomic<Record*> head{nullptr};
  };

  // Adapter so the record pool reuses HandlePool verbatim (it only consumes
  // the nested Handle type).
  struct RecordBinder {
    using Handle = Record;
  };

  template <typename F>
  void ApplyStripeImpl(std::size_t s, F&& fn) {
    if (table_.TryLockStripe(s)) {
      RunOwn(s, fn);
      ReleaseStripe(s);
      return;
    }
    Record& r = PublishRecord(s, +[](void* c) {
      (*static_cast<std::remove_reference_t<F>*>(c))();
    }, std::addressof(fn));
    AwaitRecord(s, &r);
    record_pool_.Recycle(record_pool_.DetachExact(s, &r));
  }

  Record& PublishRecord(std::size_t s, void (*invoke)(void*), void* ctx) {
    Record& r = record_pool_.Checkout(s);
    r.socket = P::CurrentSocket();
    r.invoke = invoke;
    r.ctx = ctx;
    r.owned = nullptr;
    r.state.store(kPending, std::memory_order_relaxed);
    Push(s, &r);
    return r;
  }

  // seq_cst on the push CAS pairs with the seq_cst post-unlock check in
  // ReleaseStripe: a publication completed before a failed try-lock is
  // globally ordered before the holder's release-time list check, which is
  // the no-stranded-record liveness argument.
  void Push(std::size_t s, Record* r) {
    auto& head = pub_[s].head;
    Record* h = head.load(std::memory_order_relaxed);
    do {
      r->next.store(h, std::memory_order_relaxed);
    } while (!head.compare_exchange_weak(h, r, std::memory_order_seq_cst));
  }

  // Waits for `r` (published on stripe `s`) to be applied.  One help
  // attempt first: if the stripe is free, become the combiner and serve
  // ourselves (while we hold the lock no other combiner is active, so a
  // pending record is necessarily on the list we grab).  If the stripe is
  // held, spin on the record state alone -- never on the lock word: the
  // failed try-lock proves a current holder, whose release protocol
  // (ReleaseStripe) re-checks the publication list after our push and
  // either serves us or hands the duty to the acquirer that beat it to the
  // lock.  Local spinning on a private line is also what the simulator can
  // park, and what real hardware keeps off the interconnect.
  void AwaitRecord(std::size_t s, Record* r) {
    if (r->state.load(std::memory_order_acquire) != kDone &&
        table_.TryLockStripe(s)) {
      DrainLocked(s, r);
      ReleaseStripe(s);
    }
    while (r->state.load(std::memory_order_acquire) != kDone) {
      P::Pause();
    }
  }

  // Common release path: unlock, then make sure nobody is stranded.  If
  // records remain published after the release, re-acquire and serve
  // another budgeted chunk -- unless the try-lock fails, which means a new
  // holder exists and its own release runs this same protocol.  Unlocking
  // between chunks is what keeps combining duty rotating: Guard users and
  // fresh fast paths acquire in the gaps and inherit the backlog.
  void ReleaseStripe(std::size_t s) {
    for (;;) {
      table_.UnlockStripe(s);
      if (pub_[s].head.load(std::memory_order_seq_cst) == nullptr) {
        return;
      }
      if (!table_.TryLockStripe(s)) {
        return;
      }
      DrainLocked(s, nullptr);
    }
  }

  void RunOwn(std::size_t s, auto& fn) {
    try {
      fn();
    } catch (...) {
      // Closures must not throw; swallow so the lock is always released.
    }
    cstats_.OnPassThrough(s);
  }

  // Executes one popped record and marks it done.  After the done store the
  // publisher may detach and recycle the record at any moment, so everything
  // the combiner needs (including the successor pointer) is read before it.
  void RunRecord(std::size_t s, Record* r, bool own) {
    void (*invoke)(void*) = r->invoke;
    void* ctx = r->ctx;
    std::function<void()> owned;
    if (invoke == nullptr) {
      owned = std::move(r->owned);
    }
    try {
      if (invoke != nullptr) {
        invoke(ctx);
      } else if (owned) {
        owned();
      }
    } catch (...) {
      // See Apply: a combiner must never be unwound through a victim's
      // closure.  The record still counts as applied.
    }
    if (own) {
      cstats_.OnPassThrough(s);
    } else {
      cstats_.OnCombined(s);
    }
    r->state.store(kDone, std::memory_order_release);
  }

  // Drains the publication list of stripe `s`.  Caller holds the stripe
  // lock.  `self`, if non-null, is this context's own pending record: it is
  // applied outside the budget, so becoming a combiner always serves the
  // combiner's own operation.
  //
  // Drain order mirrors CNA's secondary-queue policy: records published
  // from the combiner's socket first, then remote ones, each class in
  // arrival order.  At most `budget_` records are applied on others'
  // behalf; leftovers are re-published still pending for the next combiner
  // (or for their own publishers' try-locks).
  void DrainLocked(std::size_t s, Record* self) {
    // Empty-list fast path: one load, no RMW -- an uncontended stripe pays
    // nothing for the combining machinery.  (With a pending own record the
    // list cannot be empty, so the early-out never skips `self`.)
    if (self == nullptr &&
        pub_[s].head.load(std::memory_order_relaxed) == nullptr) {
      return;
    }
    Record* chain = pub_[s].head.exchange(nullptr, std::memory_order_acquire);
    if (chain == nullptr) {
      return;
    }
    // Partition, reversing the LIFO chain so each class ends up in arrival
    // order.  The chain is private to us (single exchange), so plain next
    // rewrites are safe.
    const int my_socket = P::CurrentSocket();
    Record* own = nullptr;
    Record* local = nullptr;
    Record* remote = nullptr;
    while (chain != nullptr) {
      Record* next = chain->next.load(std::memory_order_relaxed);
      Record** bucket = chain == self            ? &own
                        : chain->socket == my_socket ? &local
                                                     : &remote;
      chain->next.store(*bucket, std::memory_order_relaxed);
      *bucket = chain;
      chain = next;
    }
    if (own != nullptr) {
      RunRecord(s, own, /*own=*/true);
    }
    // The budget applies per class, not to the drain as a whole: were the
    // classes to share one budget, a sustained local publication stream
    // could exhaust it every drain and defer the remote class without bound
    // (the starvation CNA's own fairness threshold exists to prevent).
    // Socket-local records still go first -- the locality benefit is the
    // order, not the exclusion.
    std::size_t applied = 0;
    bool cutoff = false;
    for (Record* cls : {local, remote}) {
      std::size_t applied_in_class = 0;
      for (Record* r = cls; r != nullptr;) {
        // The successor must be read before RunRecord: the done store frees
        // the publisher to recycle and even re-publish the record.
        Record* next = r->next.load(std::memory_order_relaxed);
        if (applied_in_class < budget_) {
          RunRecord(s, r, /*own=*/false);
          ++applied_in_class;
        } else {
          cutoff = true;
          Push(s, r);  // still pending; the next combiner picks it up
        }
        r = next;
      }
      applied += applied_in_class;
    }
    if (applied > 0 || own != nullptr) {
      cstats_.OnBatch(s);
      if (lat_ != nullptr && telemetry::Enabled()) {
        const std::uint64_t batch =
            applied + (own != nullptr ? std::uint64_t{1} : std::uint64_t{0});
        lat_->batch.RecordAt(my_socket, P::CpuId(), batch);
        telemetry::TraceEmit(telemetry::TraceEventType::kCombineBatch,
                             my_socket, P::CpuId(), batch);
      }
    }
    if (cutoff) {
      cstats_.OnBudgetCutoff(s);
    }
  }

  Table table_;
  std::size_t budget_;
  std::unique_ptr<PubStripe[]> pub_;
  HandlePool<P, RecordBinder> record_pool_;
  CombiningStats cstats_;
  std::unique_ptr<CombiningLatency> lat_;  // null unless collect_latency
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_COMBINING_H_
