// Real-thread workloads: apps::ShardedKv over locktable::LockTable<CnaLock>.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "apps/sharded_kv.h"
#include "locks/cna.h"
#include "platform/real_platform.h"
#include "platform/thread_context.h"
#include "stats.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace perfbench {

std::uint64_t HostNowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::uint64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

// CPUs this process may run on.  Read by the main thread, before any worker
// narrows its own affinity.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

}  // namespace

int HostCpus() { return std::max<int>(1, static_cast<int>(AllowedCpus().size())); }

// Workload definitions.  Both use 64 Ki keys and a 70/20/10 Get/Add/Transfer
// mix; they differ in what they make the stack pay for (see BENCHMARK.json).
// Neither adds critical-section work: the library's ExternalWork spin is
// calibrated once per process, so its length would vary from run to run.
KvSpec KvUncontended() {
  return KvSpec{"kv_uncontended", 1, 1, 4096, 0.0, false, 0};
}

KvSpec KvHotContended() {
  return KvSpec{"kv_hot_contended", std::max(1, HostCpus() - 1), 2, 16, 0.99, true, 100};
}

namespace {

using Cna = cna::locks::CnaLock<cna::RealPlatform>;
using Kv = cna::apps::ShardedKv<cna::RealPlatform, Cna>;

constexpr std::uint64_t kKeys = 1 << 16;
// Per worker, replayed cyclically.  Odd, so the power-of-two sampling periods
// below visit every position of the stream rather than a fixed subset.
constexpr std::size_t kStreamLen = (1 << 14) + 1;
constexpr std::uint64_t kSamplePeriod = 16;  // ops per latency sample
constexpr std::uint64_t kSpanPeriod = 512;   // ops per traced op
constexpr std::size_t kSpanCapacity = 1 << 18;
constexpr int kWarmupWindow = -1;
constexpr int kStopWindow = -2;

enum OpKind : std::uint8_t { kGet, kAdd, kTransfer };

struct KvOp {
  std::uint16_t a;
  std::uint16_t b;
  OpKind kind;
  std::uint8_t amount;
};
static_assert(kKeys - 1 <= UINT16_MAX, "keys must fit the packed op");

std::vector<KvOp> GenerateStream(const Zipf* zipf, std::uint64_t seed, int worker) {
  SeedRng rng(SubSeed(seed, 100 + static_cast<std::uint64_t>(worker)));
  auto key = [&] { return zipf != nullptr ? zipf->Sample(rng) : rng.Below(kKeys); };
  std::vector<KvOp> ops(kStreamLen);
  for (KvOp& op : ops) {
    op.a = static_cast<std::uint16_t>(key());
    const std::uint64_t roll = rng.Below(100);
    op.kind = roll < 70 ? kGet : (roll < 90 ? kAdd : kTransfer);
    op.b = static_cast<std::uint16_t>(op.kind == kTransfer ? key() : 0);
    op.amount = static_cast<std::uint8_t>(1 + rng.Below(8));
  }
  return ops;
}

std::uint64_t PrefillValue(std::uint64_t seed, std::uint64_t key) {
  return 1 + SubSeed(seed, 1'000'000 + key) % 1000;
}

struct alignas(64) WorkerState {
  std::vector<std::uint64_t> window_ops;
  std::vector<LatencyHistogram> window_hist;
  std::uint64_t total_ops = 0;
  std::uint64_t add_sum = 0;
  SpanBuffer* spans = nullptr;
};

struct SpanNames {
  std::uint32_t op[3];
  std::uint32_t scrape, snapshot, to_prometheus;
};

// Moves the calling thread to cpus[index % cpus.size()].
void PinToCpu(const std::vector<int>& cpus, std::size_t index) {
  if (cpus.empty()) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

void WorkerLoop(Kv& kv, const std::vector<KvOp>& stream, const std::atomic<int>& window,
                WorkerState& st, const SpanNames& names, const std::vector<int>& cpus, int worker) {
  std::uint64_t i = 0;
  int pinned_for = kStopWindow;
  for (;;) {
    const int w = window.load(std::memory_order_relaxed);
    if (w == kStopWindow) {
      break;
    }
    if (w != pinned_for) {
      // Every window moves each worker on to the next CPU, so a run averages
      // over all CPUs instead of riding one that a co-tenant slows down; on
      // a shared 4-vCPU VM this halved the run-to-run spread.
      PinToCpu(cpus, static_cast<std::size_t>(worker + 1 + std::max(w, 0)));
      pinned_for = w;
    }
    const KvOp& op = stream[i % kStreamLen];
    ++i;
    const bool sample = w >= 0 && i % kSamplePeriod == 0;
    const bool span = st.spans != nullptr && w >= 0 && w % 2 == 1 && i % kSpanPeriod == 0;
    const std::uint64_t t0 = sample || span ? HostNowNs() : 0;
    switch (op.kind) {
      case kGet:
        (void)kv.Get(op.a);
        break;
      case kAdd:
        kv.Add(op.a, op.amount);
        st.add_sum += op.amount;
        break;
      case kTransfer:
        (void)kv.Transfer(op.a, op.b, op.amount);
        break;
    }
    if (sample || span) {
      const std::uint64_t t1 = HostNowNs();
      if (sample) {
        st.window_hist[static_cast<std::size_t>(w)].Record(t1 - t0);
      }
      if (span) {
        st.spans->Add(names.op[op.kind], 0, 0, t0, t1);
      }
    }
    if (w >= 0) {
      ++st.window_ops[static_cast<std::size_t>(w)];
    }
  }
  st.total_ops = i;
}

const cna::telemetry::HistogramSample* FindHistogram(const cna::telemetry::RegistrySnapshot& snap,
                                                     const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) {
      return &h;
    }
  }
  return nullptr;
}

}  // namespace

KvPassResult RunKvPass(const KvSpec& spec, std::uint64_t seed, const KvPassOptions& options) {
  namespace telemetry = cna::telemetry;
  KvPassResult r;
  r.windows = std::max(1, options.windows);

  // Inputs: every worker's op stream and the prefill, from the seed alone.
  std::unique_ptr<Zipf> zipf;
  if (spec.zipf_theta > 0) {
    zipf = std::make_unique<Zipf>(kKeys, spec.zipf_theta);
  }
  std::vector<std::vector<KvOp>> streams;
  for (int w = 0; w < spec.workers; ++w) {
    streams.push_back(GenerateStream(zipf.get(), seed, w));
  }
  std::vector<std::uint64_t> prefill(kKeys);
  std::uint64_t prefill_sum = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    prefill[k] = PrefillValue(seed, k);
    prefill_sum += prefill[k];
  }

  // Set-up: build and prefill the store several times; keep the last.
  cna::apps::ShardedKvOptions kv_options;
  kv_options.key_range = kKeys;
  kv_options.lock_stripes = spec.stripes;
  kv_options.collect_stats = options.collect_stats;
  kv_options.collect_latency = spec.collect_latency;
  kv_options.cs_compute_ns = 0;
  std::unique_ptr<Kv> kv;
  std::vector<double> setup_s;
  for (int s = 0; s < std::max(1, options.setups); ++s) {
    kv.reset();
    const std::uint64_t t0 = HostNowNs();
    kv = std::make_unique<Kv>(kv_options);
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      kv->Put(k, prefill[k]);
    }
    setup_s.push_back(static_cast<double>(HostNowNs() - t0) / 1e9);
  }
  r.setup_s = Median(setup_s);
  r.lock_state_bytes = static_cast<double>(kv->table().LockStateBytes());

  Tracer* tracer = options.tracer;
  SpanNames names{};
  SpanBuffer* main_spans = nullptr;
  if (tracer != nullptr) {
    names.op[kGet] = tracer->Intern("apps.kv.get");
    names.op[kAdd] = tracer->Intern("apps.kv.add");
    names.op[kTransfer] = tracer->Intern("apps.kv.transfer");
    names.scrape = tracer->Intern("bench.scrape");
    names.snapshot = tracer->Intern("telemetry.snapshot_all");
    names.to_prometheus = tracer->Intern("telemetry.to_prometheus");
    main_spans = &tracer->NewBuffer(4096);
  }
  std::vector<WorkerState> states(static_cast<std::size_t>(spec.workers));
  for (WorkerState& st : states) {
    st.window_ops.assign(static_cast<std::size_t>(r.windows), 0);
    st.window_hist.resize(static_cast<std::size_t>(r.windows));
    if (tracer != nullptr) {
      st.spans = &tracer->NewBuffer(kSpanCapacity);
    }
  }

  // Measured region.  Workers run a warm-up, then the main thread opens the
  // windows one after another and scrapes telemetry on its period.
  const bool telemetry_was = telemetry::Enabled();
  telemetry::SetEnabled(spec.collect_latency);
  std::atomic<int> window{kWarmupWindow};
  const std::vector<int> cpus = AllowedCpus();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(spec.workers));
  for (int w = 0; w < spec.workers; ++w) {
    threads.emplace_back([&, w] {
      cna::platform::ThreadContext::Current().SetVirtualSocket(w % spec.virtual_sockets);
      WorkerLoop(*kv, streams[static_cast<std::size_t>(w)], window,
                 states[static_cast<std::size_t>(w)], names, cpus, w);
    });
  }

  std::size_t scrape_bytes = 0;
  auto scrape = [&] {
    const std::uint64_t t0 = HostNowNs();
    const telemetry::RegistrySnapshot snap = telemetry::SnapshotAll();
    const std::uint64_t t1 = HostNowNs();
    scrape_bytes += telemetry::ToPrometheus(snap).size();
    const std::uint64_t t2 = HostNowNs();
    r.scrape_us.push_back(static_cast<double>(t2 - t0) / 1e3);
    if (main_spans != nullptr) {
      const std::uint64_t root = main_spans->Add(names.scrape, 0, 0, t0, t2);
      main_spans->Add(names.snapshot, root, root, t0, t1);
      main_spans->Add(names.to_prometheus, root, root, t1, t2);
    }
  };
  using Clock = std::chrono::steady_clock;
  const auto scrape_period = std::chrono::milliseconds(spec.scrape_period_ms);
  auto next_scrape = Clock::now() + scrape_period;
  auto sleep_until = [&](Clock::time_point deadline) {
    while (spec.scrape_period_ms > 0 && next_scrape < deadline) {
      std::this_thread::sleep_until(next_scrape);
      scrape();
      next_scrape += scrape_period;
    }
    std::this_thread::sleep_until(deadline);
  };

  const auto window_len = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options.seconds / r.windows));
  sleep_until(Clock::now() + std::min<Clock::duration>(window_len, std::chrono::milliseconds(300)));
  const telemetry::RegistrySnapshot before = telemetry::Registry::Global().Snapshot();
  std::vector<std::uint64_t> t(static_cast<std::size_t>(r.windows) + 1);
  std::vector<std::uint64_t> cpu(static_cast<std::size_t>(r.windows) + 1);
  auto deadline = Clock::now();
  for (int w = 0; w < r.windows; ++w) {
    t[static_cast<std::size_t>(w)] = HostNowNs();
    cpu[static_cast<std::size_t>(w)] = ProcessCpuNs();
    window.store(w, std::memory_order_relaxed);
    deadline += window_len;
    sleep_until(deadline);
  }
  t.back() = HostNowNs();
  cpu.back() = ProcessCpuNs();
  window.store(kStopWindow, std::memory_order_relaxed);
  for (std::thread& th : threads) {
    th.join();
  }
  const telemetry::RegistrySnapshot delta =
      telemetry::Delta(before, telemetry::Registry::Global().Snapshot());
  telemetry::SetEnabled(telemetry_was);
  if (spec.scrape_period_ms > 0 && scrape_bytes == 0) {
    r.failure = "telemetry scrape produced no Prometheus text";
  }

  // Aggregation: rates and latency percentiles per window, then the median
  // over windows, which keeps a burst of host noise from moving the result.
  std::vector<double> rate, cpu_per_op, p50, p99, even_rate, odd_rate;
  std::vector<std::uint64_t> per_worker;
  for (const WorkerState& st : states) {
    per_worker.push_back(st.total_ops);
    r.ops += st.total_ops;
  }
  for (int w = 0; w < r.windows; ++w) {
    const auto wi = static_cast<std::size_t>(w);
    std::uint64_t ops = 0;
    LatencyHistogram hist;
    for (const WorkerState& st : states) {
      ops += st.window_ops[wi];
      hist.Merge(st.window_hist[wi]);
    }
    const double secs = static_cast<double>(t[wi + 1] - t[wi]) / 1e9;
    if (ops == 0 || secs <= 0) {
      continue;
    }
    rate.push_back(static_cast<double>(ops) / secs);
    (w % 2 == 0 ? even_rate : odd_rate).push_back(rate.back());
    cpu_per_op.push_back(static_cast<double>(cpu[wi + 1] - cpu[wi]) / static_cast<double>(ops));
    p50.push_back(hist.Percentile(0.50));
    p99.push_back(hist.Percentile(0.99));
    r.latency_samples += hist.count();
  }
  if (rate.empty()) {
    r.failure = "no op completed in any measured window";
  }
  r.ops_per_s = Median(rate);
  r.untraced_ops_per_s = Median(even_rate);
  r.traced_ops_per_s = Median(odd_rate);
  r.cpu_ns_per_op = Median(cpu_per_op);
  r.latency_p50_ns = Median(p50);
  r.latency_p99_ns = Median(p99);
  r.fairness = FairnessFactor(per_worker);

  if (const auto* h = FindHistogram(delta, "locktable.wait_ns")) {
    r.wait_samples = h->total.count;
    r.wait_p50_ns = Log2BucketPercentile(h->total.buckets, h->total.count, 0.50);
    r.wait_p99_ns = Log2BucketPercentile(h->total.buckets, h->total.count, 0.99);
  }
  if (const auto* h = FindHistogram(delta, "locktable.hold_ns")) {
    r.hold_samples = h->total.count;
    r.hold_p50_ns = Log2BucketPercentile(h->total.buckets, h->total.count, 0.50);
    r.hold_p99_ns = Log2BucketPercentile(h->total.buckets, h->total.count, 0.99);
  }
  if (options.collect_stats) {
    r.contended_ratio = kv->table().StatsSummary().ContentionRate();
  }

  // Correctness: Gets and Transfers conserve the total, so the final sum is
  // the prefill plus every completed Add's delta.
  if (options.inject_fault) {
    kv->Add(0, 1);  // a write the accounting does not know about
  }
  std::uint64_t expected = prefill_sum;
  for (const WorkerState& st : states) {
    expected += st.add_sum;
  }
  const std::uint64_t actual = kv->TotalValue();
  if (actual != expected) {
    r.failure = "value sum " + std::to_string(actual) + " != prefill + Add deltas " +
                std::to_string(expected);
  }
  return r;
}

}  // namespace perfbench
