// Unified lock telemetry: sharded counters and log2-bucket histograms.
//
// The paper's evaluation is built on observability -- Section 7.1.1's
// queue-alteration counters and the kernel lockstat tables (Table 1) are what
// make CNA's behavior legible.  This module generalizes the repo's scattered
// diagnostic sinks (cna_stats.h, table_stats.h, kernel/lockstat.h) into one
// named-metric registry with latency distributions and per-socket breakdowns.
//
// Design rules, inherited from cna_stats.h:
//  * Diagnostics, not simulated state.  Every cell is a plain std::atomic
//    (never P::Atomic), so the NUMA simulator charges nothing for recording
//    and schedules identically with telemetry on or off.
//  * Near-zero overhead when off.  Recording is guarded by a single relaxed
//    load of a process-global flag; instrumented slow paths additionally hide
//    behind compile-time config flags so the default build carries no
//    telemetry code at all and no lock grows by a byte.
//  * Sharded cells.  Counters stripe by a dense per-thread id; histograms
//    stripe by (socket, thread) so per-socket latency distributions fall out
//    of the shard geometry for free.
#ifndef CNA_TELEMETRY_METRICS_H_
#define CNA_TELEMETRY_METRICS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cna::telemetry {

// Shard geometry.  kMaxSockets matches the convention used by HandlePool and
// CnaRwLock; histogram sub-shards trade memory for less same-socket
// contention on hot histograms.
inline constexpr int kMaxSockets = 8;
inline constexpr int kCounterShards = 64;
inline constexpr int kHistSubShards = 4;
inline constexpr int kHistBuckets = 48;

// Process-global master switch.  A single relaxed load guards every record
// call; benches flip it around measured regions.
inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag{false};
  return flag;
}
inline bool Enabled() { return EnabledFlag().load(std::memory_order_relaxed); }
inline void SetEnabled(bool on) {
  EnabledFlag().store(on, std::memory_order_relaxed);
}

// Wall-clock nanoseconds (steady).  Telemetry timestamps are real time even
// under the simulator: they measure the host's cost of executing the
// schedule, not simulated NUMA time, and are never fed back into decisions.
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Dense per-thread shard hint for callers outside the platform templates
// (kernel/lockstat.h).  Platform-templated call sites pass P::CpuId()
// instead, which is also correct under the fiber simulator where
// thread_local would alias every fiber onto one slot.
inline int SelfShard() {
  static std::atomic<int> next{0};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> v{0};
};

// Monotone sharded counter.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { AddAt(SelfShard(), n); }
  void AddAt(int shard, std::uint64_t n = 1) {
    cells_[static_cast<unsigned>(shard) % kCounterShards].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const CounterCell& c : cells_) {
      total += c.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (CounterCell& c : cells_) {
      c.v.store(0, std::memory_order_relaxed);
    }
  }

  // Mirror an externally maintained total (used to surface the legacy
  // process-global CNA counters through the registry at snapshot time).
  void StoreTotal(std::uint64_t total) {
    cells_[0].v.store(total, std::memory_order_relaxed);
    for (std::size_t i = 1; i < cells_.size(); ++i) {
      cells_[i].v.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::array<CounterCell, kCounterShards> cells_;
};

// Log2 bucketing: bucket 0 holds value 0; bucket i (i >= 1) holds values in
// [2^(i-1), 2^i - 1]; the last bucket saturates.  Reported percentiles use
// the bucket's inclusive upper bound, which makes p50 <= p90 <= p99 <= p999
// hold by construction.
inline int BucketOf(std::uint64_t value) {
  return std::min(static_cast<int>(std::bit_width(value)), kHistBuckets - 1);
}
inline std::uint64_t BucketUpperBound(int bucket) {
  if (bucket <= 0) {
    return 0;
  }
  return (std::uint64_t{1} << bucket) - 1;
}
inline std::uint64_t BucketLowerBound(int bucket) {
  if (bucket <= 0) {
    return 0;
  }
  return std::uint64_t{1} << (bucket - 1);
}

// Mergeable point-in-time view of a histogram.  Subtraction gives the delta
// between two snapshots of the same histogram (benches bracket measured
// regions with it).
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void Merge(const HistogramSnapshot& other) {
    for (int i = 0; i < kHistBuckets; ++i) {
      buckets[static_cast<std::size_t>(i)] +=
          other.buckets[static_cast<std::size_t>(i)];
    }
    count += other.count;
    sum += other.sum;
  }

  HistogramSnapshot operator-(const HistogramSnapshot& before) const {
    HistogramSnapshot out;
    for (int i = 0; i < kHistBuckets; ++i) {
      const auto s = static_cast<std::size_t>(i);
      out.buckets[s] = buckets[s] - before.buckets[s];
    }
    out.count = count - before.count;
    out.sum = sum - before.sum;
    return out;
  }

  // Value at quantile p in [0, 1]: the upper bound of the bucket containing
  // the ceil(p * count)-th recorded value.  0 when empty.
  std::uint64_t Percentile(double p) const {
    if (count == 0) {
      return 0;
    }
    const double clamped = std::min(std::max(p, 0.0), 1.0);
    const double exact = clamped * static_cast<double>(count);
    // Ceiling rank, per the contract above: p99 of 10 samples is the 10th
    // value (ceil(9.9)), not the 9th that truncation would give.
    std::uint64_t rank = static_cast<std::uint64_t>(exact);
    if (static_cast<double>(rank) < exact) {
      ++rank;
    }
    rank = std::min(std::max<std::uint64_t>(rank, 1), count);
    std::uint64_t seen = 0;
    for (int i = 0; i < kHistBuckets; ++i) {
      seen += buckets[static_cast<std::size_t>(i)];
      if (seen >= rank) {
        return BucketUpperBound(i);
      }
    }
    return BucketUpperBound(kHistBuckets - 1);
  }

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  std::uint64_t P50() const { return Percentile(0.50); }
  std::uint64_t P90() const { return Percentile(0.90); }
  std::uint64_t P99() const { return Percentile(0.99); }
  std::uint64_t P999() const { return Percentile(0.999); }
};

// Sharded log2 histogram.  Cells are striped (socket-major) so the per-socket
// distribution is just the merge of that socket's sub-shards.
class Histogram {
 public:
  // `socket` selects the socket-major stripe; `shard` (a dense thread or
  // context id) spreads same-socket recorders over sub-shards.
  void Record(int socket, std::uint64_t value) {
    RecordAt(socket, SelfShard(), value);
  }

  void RecordAt(int socket, int shard, std::uint64_t value) {
    Shard& cell = cells_[CellIndex(socket, shard)];
    cell.buckets[static_cast<std::size_t>(BucketOf(value))].fetch_add(
        1, std::memory_order_relaxed);
    cell.sum.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot out;
    for (int s = 0; s < kMaxSockets; ++s) {
      out.Merge(SocketSnapshot(s));
    }
    return out;
  }

  // `count` is the sum of the buckets read, not a separate cell: a snapshot
  // taken while values are being recorded stays self-consistent, so a
  // percentile always lands in a bucket that holds a recorded value.
  HistogramSnapshot SocketSnapshot(int socket) const {
    HistogramSnapshot out;
    const std::size_t base =
        static_cast<std::size_t>(ClampSocket(socket)) * kHistSubShards;
    for (int sub = 0; sub < kHistSubShards; ++sub) {
      const Shard& cell = cells_[base + static_cast<std::size_t>(sub)];
      for (int i = 0; i < kHistBuckets; ++i) {
        const std::uint64_t n = cell.buckets[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed);
        out.buckets[static_cast<std::size_t>(i)] += n;
        out.count += n;
      }
      out.sum += cell.sum.load(std::memory_order_relaxed);
    }
    return out;
  }

  void Reset() {
    for (Shard& cell : cells_) {
      for (auto& b : cell.buckets) {
        b.store(0, std::memory_order_relaxed);
      }
      cell.sum.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
  };

  static int ClampSocket(int socket) {
    return socket < 0 ? 0 : socket % kMaxSockets;
  }
  static std::size_t CellIndex(int socket, int shard) {
    return static_cast<std::size_t>(ClampSocket(socket)) * kHistSubShards +
           static_cast<unsigned>(shard) % kHistSubShards;
  }

  std::array<Shard, static_cast<std::size_t>(kMaxSockets) * kHistSubShards>
      cells_;
};

// Point-in-time view of a whole registry.
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramSample {
  std::string name;
  HistogramSnapshot total;
  std::array<HistogramSnapshot, kMaxSockets> by_socket;
};

struct RegistrySnapshot {
  std::vector<CounterSample> counters;     // sorted by name
  std::vector<HistogramSample> histograms;  // sorted by name
};

// `after - before`, matched by metric name.  Metrics absent from `before`
// keep their `after` values (they were registered mid-interval).
RegistrySnapshot Delta(const RegistrySnapshot& before,
                       const RegistrySnapshot& after);

// Named-metric registry.  Registration (first GetCounter/GetHistogram for a
// name) takes a mutex; call sites cache the returned reference, so steady
// state never touches the lock.  Metric addresses are stable for the life of
// the registry.
class Registry {
 public:
  Counter& GetCounter(std::string_view name) {
    std::lock_guard<std::mutex> g(mu_);
    auto& slot = counters_[std::string(name)];
    if (slot == nullptr) {
      slot = std::make_unique<Counter>();
    }
    return *slot;
  }

  Histogram& GetHistogram(std::string_view name) {
    std::lock_guard<std::mutex> g(mu_);
    auto& slot = histograms_[std::string(name)];
    if (slot == nullptr) {
      slot = std::make_unique<Histogram>();
    }
    return *slot;
  }

  RegistrySnapshot Snapshot() const {
    RegistrySnapshot out;
    std::lock_guard<std::mutex> g(mu_);
    out.counters.reserve(counters_.size());
    for (const auto& [name, counter] : counters_) {
      out.counters.push_back(CounterSample{name, counter->Value()});
    }
    out.histograms.reserve(histograms_.size());
    for (const auto& [name, hist] : histograms_) {
      HistogramSample sample;
      sample.name = name;
      for (int s = 0; s < kMaxSockets; ++s) {
        sample.by_socket[static_cast<std::size_t>(s)] =
            hist->SocketSnapshot(s);
        sample.total.Merge(sample.by_socket[static_cast<std::size_t>(s)]);
      }
      out.histograms.push_back(std::move(sample));
    }
    return out;
  }

  void ResetAll() {
    std::lock_guard<std::mutex> g(mu_);
    for (auto& [name, counter] : counters_) {
      counter->Reset();
    }
    for (auto& [name, hist] : histograms_) {
      hist->Reset();
    }
  }

  static Registry& Global() {
    static Registry registry;
    return registry;
  }

 private:
  mutable std::mutex mu_;
  // std::map: deterministic name order for snapshots and exporters.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

inline RegistrySnapshot Delta(const RegistrySnapshot& before,
                              const RegistrySnapshot& after) {
  RegistrySnapshot out;
  std::map<std::string_view, const CounterSample*> prev_counters;
  for (const CounterSample& c : before.counters) {
    prev_counters[c.name] = &c;
  }
  std::map<std::string_view, const HistogramSample*> prev_hists;
  for (const HistogramSample& h : before.histograms) {
    prev_hists[h.name] = &h;
  }
  for (const CounterSample& c : after.counters) {
    CounterSample d = c;
    auto it = prev_counters.find(c.name);
    if (it != prev_counters.end()) {
      d.value -= it->second->value;
    }
    out.counters.push_back(std::move(d));
  }
  for (const HistogramSample& h : after.histograms) {
    HistogramSample d = h;
    auto it = prev_hists.find(h.name);
    if (it != prev_hists.end()) {
      d.total = h.total - it->second->total;
      for (int s = 0; s < kMaxSockets; ++s) {
        const auto idx = static_cast<std::size_t>(s);
        d.by_socket[idx] = h.by_socket[idx] - it->second->by_socket[idx];
      }
    }
    out.histograms.push_back(std::move(d));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Well-known metrics.  Instrumented slow paths cache these function-local
// static references, so steady-state recording never touches the registry
// mutex.
// ---------------------------------------------------------------------------
inline Histogram& CnaWaitHistogram() {
  static Histogram& h = Registry::Global().GetHistogram("cna.lock.wait_ns");
  return h;
}
inline Histogram& RwWriterWaitHistogram() {
  static Histogram& h =
      Registry::Global().GetHistogram("cna.rwlock.writer_wait_ns");
  return h;
}
inline Histogram& RwReaderWaitHistogram() {
  static Histogram& h =
      Registry::Global().GetHistogram("cna.rwlock.reader_wait_ns");
  return h;
}
inline Histogram& EpochGraceHistogram() {
  static Histogram& h = Registry::Global().GetHistogram("epoch.grace_ns");
  return h;
}
inline Histogram& ResizeDrainHistogram() {
  static Histogram& h =
      Registry::Global().GetHistogram("resizable.resize_drain_ns");
  return h;
}
inline Counter& ParkingParksCounter() {
  static Counter& c = Registry::Global().GetCounter("parking.parks");
  return c;
}
inline Counter& ParkingUnparksCounter() {
  static Counter& c = Registry::Global().GetCounter("parking.unparks");
  return c;
}
inline Counter& ParkingTimeoutsCounter() {
  static Counter& c = Registry::Global().GetCounter("parking.timeouts");
  return c;
}
inline Histogram& ParkingParkedHistogram() {
  static Histogram& h = Registry::Global().GetHistogram("parking.parked_ns");
  return h;
}

// ---------------------------------------------------------------------------
// HoldTracker: remembers the acquisition timestamp of (context, key) pairs so
// the release path can compute hold time.  Follows the HandlePool idiom:
// padded slots indexed by context id (thread_local is wrong under the fiber
// simulator), guarded by a plain std::atomic_flag that is never held across a
// yield point.  Bounded depth; overflowing entries are dropped (Pop returns 0
// and the caller records nothing) -- hold-time telemetry is best-effort.
// ---------------------------------------------------------------------------
class HoldTracker {
 public:
  static constexpr int kSlots = 256;
  static constexpr int kDepth = 12;

  void Push(int ctx, std::uint64_t key, std::uint64_t ts_ns) {
    Slot& slot = slots_[static_cast<unsigned>(ctx) % kSlots];
    Guard g(slot);
    if (slot.n >= kDepth) {
      return;
    }
    slot.e[slot.n].key = key;
    slot.e[slot.n].ts_ns = ts_ns;
    ++slot.n;
  }

  // Returns the pushed timestamp, or 0 if the entry overflowed or the ctx
  // collided with another context's slot activity.
  std::uint64_t Pop(int ctx, std::uint64_t key) {
    Slot& slot = slots_[static_cast<unsigned>(ctx) % kSlots];
    Guard g(slot);
    for (int i = slot.n - 1; i >= 0; --i) {
      if (slot.e[i].key == key) {
        const std::uint64_t ts = slot.e[i].ts_ns;
        slot.e[i] = slot.e[slot.n - 1];
        --slot.n;
        return ts;
      }
    }
    return 0;
  }

 private:
  struct alignas(64) Slot {
    std::atomic_flag busy = ATOMIC_FLAG_INIT;
    int n = 0;
    struct Entry {
      std::uint64_t key = 0;
      std::uint64_t ts_ns = 0;
    } e[kDepth];
  };

  // Straight-line TAS guard; contention is rare (only ctx-id collisions).
  class Guard {
   public:
    explicit Guard(Slot& slot) : slot_(slot) {
      while (slot_.busy.test_and_set(std::memory_order_acquire)) {
      }
    }
    ~Guard() { slot_.busy.clear(std::memory_order_release); }

   private:
    Slot& slot_;
  };

  std::array<Slot, kSlots> slots_;
};

}  // namespace cna::telemetry

#endif  // CNA_TELEMETRY_METRICS_H_
