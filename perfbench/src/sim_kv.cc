// Simulated workload: the paper's Figure 6 key-value map (an AVL tree under
// one CNA lock, 1024 keys, 80/20 lookup/update) on the two-socket machine
// model, with the simulated CPUs scattered across the sockets.
#include <memory>
#include <string>
#include <vector>

#include "apps/kv_bench.h"
#include "locks/cna.h"
#include "locks/lock_api.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

// The simulated window is milliseconds, not the paper's seconds, so the
// secondary queue is flushed with probability 1/256 instead of 1/65536 to
// keep the ratio of local stint to run length (as bench/bench_common.h does).
struct SimCnaConfig : cna::locks::CnaDefaultConfig {
  static constexpr std::uint64_t kKeepLocalMask = 0xff;
};
// Same lock with the Section 7.1.1 event counters, which the simulator does
// not charge: it must schedule exactly like SimCnaConfig.
struct SimCnaStatsConfig : SimCnaConfig {
  static constexpr bool kCollectStats = true;
};

constexpr std::int64_t kKeyRange = 1024;
constexpr int kUpdatePct = 20;
constexpr std::size_t kStreamLen = 8191;  // per simulated CPU, replayed; odd, see kv_real.cc
constexpr std::uint64_t kSpanPeriod = 32;  // ops per traced op
constexpr std::size_t kSpanCapacity = 1 << 15;

enum SimOpKind : std::uint8_t { kLookup, kInsert, kErase };
struct SimOp {
  std::int16_t key;
  SimOpKind kind;
};

std::vector<std::vector<SimOp>> GenerateStreams(std::uint64_t seed, int cpus) {
  std::vector<std::vector<SimOp>> streams(static_cast<std::size_t>(cpus));
  for (int c = 0; c < cpus; ++c) {
    SeedRng rng(SubSeed(seed, 200 + static_cast<std::uint64_t>(c)));
    auto& ops = streams[static_cast<std::size_t>(c)];
    ops.resize(kStreamLen);
    for (SimOp& op : ops) {
      op.key = static_cast<std::int16_t>(rng.Below(kKeyRange));
      const bool update = rng.Below(100) < kUpdatePct;
      op.kind = !update ? kLookup : (rng.Next() & 1 ? kInsert : kErase);
    }
  }
  return streams;
}

std::uint64_t Fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}

struct FiberTally {
  std::uint64_t ops = 0;
  std::uint64_t inserted = 0;
  std::uint64_t erased = 0;
  std::uint64_t bad_lookups = 0;
  std::vector<std::uint64_t> latency_ns;
};

template <typename L>
SimPassResult Run(std::uint64_t seed, std::uint64_t window_ns, int setups, bool inject_fault,
                  Tracer* tracer) {
  using Bench = cna::apps::KvBench<cna::SimPlatform, L>;
  SimPassResult r;
  r.window_ns = window_ns;
  r.lock_state_bytes = static_cast<double>(L::kStateBytes);
  const int cpus = SimCpus();
  const auto streams = GenerateStreams(seed, cpus);

  cna::sim::MachineConfig cfg = cna::sim::MachineConfig::TwoSocket();
  cfg.placement = cna::sim::Placement::kScatterAcrossSockets;
  cfg.seed = SubSeed(seed, 1);
  cna::apps::KvBenchOptions kv;
  kv.key_range = kKeyRange;
  kv.update_pct = kUpdatePct;
  kv.seed = SubSeed(seed, 2);

  std::uint32_t n_op[3] = {}, n_wait = 0, n_map[3] = {}, n_release = 0;
  std::vector<SpanBuffer*> spans(static_cast<std::size_t>(cpus), nullptr);
  if (tracer != nullptr) {
    n_op[kLookup] = tracer->Intern("bench.sim.lookup");
    n_op[kInsert] = tracer->Intern("bench.sim.insert");
    n_op[kErase] = tracer->Intern("bench.sim.erase");
    n_wait = tracer->Intern("locks.cna.acquire");
    n_map[kLookup] = tracer->Intern("apps.avl.lookup");
    n_map[kInsert] = tracer->Intern("apps.avl.insert");
    n_map[kErase] = tracer->Intern("apps.avl.erase");
    n_release = tracer->Intern("locks.cna.release");
    for (SpanBuffer*& b : spans) {
      b = &tracer->NewBuffer(kSpanCapacity);
    }
  }

  // Set-up: build the machine, the prefilled map and the fibers; several
  // times, keeping the last build for the run.
  std::unique_ptr<cna::sim::Machine> machine;
  std::unique_ptr<Bench> bench;
  std::vector<FiberTally> tally;
  std::size_t size_before = 0;
  std::vector<double> setup_s;
  for (int s = 0; s < std::max(1, setups); ++s) {
    machine.reset();
    bench.reset();
    const std::uint64_t build_start = HostNowNs();
    machine = std::make_unique<cna::sim::Machine>(cfg);
    bench = std::make_unique<Bench>(kv);
    tally.assign(static_cast<std::size_t>(cpus), FiberTally{});
    for (int c = 0; c < cpus; ++c) {
      machine->Spawn([&, c] {
        cna::sim::Machine& m = *machine;
        Bench& b = *bench;
        FiberTally& t = tally[static_cast<std::size_t>(c)];
        SpanBuffer* sb = spans[static_cast<std::size_t>(c)];
        const std::vector<SimOp>& ops = streams[static_cast<std::size_t>(c)];
        t.latency_ns.reserve(1 << 14);
        while (m.NowNs() < window_ns) {
          const SimOp& op = ops[t.ops % kStreamLen];
          const std::uint64_t t0 = m.NowNs();
          std::uint64_t t1 = 0;
          std::uint64_t t2 = 0;
          {
            cna::locks::ScopedLock<L> guard(b.lock());
            t1 = m.NowNs();
            cna::SimPlatform::ExternalWork(b.options().cs_compute_ns);
            switch (op.kind) {
              case kLookup: {
                const auto v = b.map().Lookup(op.key);
                t.bad_lookups += v.has_value() && *v != op.key;
                break;
              }
              case kInsert:
                t.inserted += b.map().Insert(op.key, op.key);
                break;
              case kErase:
                t.erased += b.map().Erase(op.key);
                break;
            }
            t2 = m.NowNs();
          }
          const std::uint64_t t3 = m.NowNs();
          t.latency_ns.push_back(t3 - t0);
          if (sb != nullptr && t.ops % kSpanPeriod == 0) {
            const std::uint64_t root = sb->Add(n_op[op.kind], 0, 0, t0, t3);
            sb->Add(n_wait, root, root, t0, t1);
            sb->Add(n_map[op.kind], root, root, t1, t2);
            sb->Add(n_release, root, root, t2, t3);
          }
          ++t.ops;
        }
      });
    }
    size_before = bench->map().Size();
    setup_s.push_back(static_cast<double>(HostNowNs() - build_start) / 1e9);
  }
  r.setup_s = Median(setup_s);

  const cna::locks::CnaCountersSnapshot cna_before = cna::locks::SnapshotCnaCounters();
  const std::uint64_t cpu0 = ProcessCpuNs();
  machine->Run();
  r.host_cpu_s = static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
  const cna::locks::CnaCountersSnapshot cna_after = cna::locks::SnapshotCnaCounters();

  // Aggregation over every op of every simulated CPU.
  std::vector<std::uint64_t> per_cpu, latencies;
  std::uint64_t inserted = 0, erased = 0, bad_lookups = 0;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const FiberTally& t : tally) {
    per_cpu.push_back(t.ops);
    r.ops += t.ops;
    inserted += t.inserted;
    erased += t.erased;
    bad_lookups += t.bad_lookups;
    h = Fnv(h, t.ops);
    for (std::uint64_t l : t.latency_ns) {
      h = Fnv(h, l);
    }
    latencies.insert(latencies.end(), t.latency_ns.begin(), t.latency_ns.end());
  }
  const cna::sim::CacheStats& cs = machine->TotalStats();
  const double ops = r.ops == 0 ? 1.0 : static_cast<double>(r.ops);
  r.ops_per_s = static_cast<double>(r.ops) / (static_cast<double>(window_ns) / 1e9);
  r.latency_p50_ns = ExactPercentile(latencies, 0.50);
  r.latency_p99_ns = ExactPercentile(latencies, 0.99);
  r.fairness = FairnessFactor(per_cpu);
  r.remote_misses_per_op = static_cast<double>(cs.remote_misses) / ops;
  r.socket_transfers_per_op = static_cast<double>(cs.socket_transfers) / ops;
  r.local_misses_per_op = static_cast<double>(cs.local_misses) / ops;
  r.spin_parks_per_op = static_cast<double>(cs.parks) / ops;
  const std::uint64_t releases = cna_after.releases - cna_before.releases;
  if (releases > 0) {
    const double rel = static_cast<double>(releases);
    r.local_handover_ratio = static_cast<double>(cna_after.local_handovers - cna_before.local_handovers) / rel;
    r.secondary_flush_ratio =
        static_cast<double>(cna_after.secondary_flushes - cna_before.secondary_flushes) / rel;
    r.queue_alterations_per_release =
        static_cast<double>(cna_after.queue_alterations - cna_before.queue_alterations) / rel;
  }
  r.fingerprint = "ops=" + std::to_string(r.ops) + " end_ns=" + std::to_string(machine->FinalTimeNs()) +
                  " loads=" + std::to_string(cs.loads) + " stores=" + std::to_string(cs.stores) +
                  " rmws=" + std::to_string(cs.rmws) + " hits=" + std::to_string(cs.hits) +
                  " socket_transfers=" + std::to_string(cs.socket_transfers) +
                  " local_misses=" + std::to_string(cs.local_misses) +
                  " remote_misses=" + std::to_string(cs.remote_misses) + " parks=" + std::to_string(cs.parks) +
                  " inserted=" + std::to_string(inserted) + " erased=" + std::to_string(erased) +
                  " latency_hash=" + std::to_string(h);

  // Correctness: the tree is a valid AVL tree whose size agrees with the
  // completed inserts and erases, and every lookup found the key's own value.
  if (inject_fault) {
    for (std::int64_t k = 0; k < kKeyRange && !bench->map().Erase(k); ++k) {
    }  // one erase the tallies do not know about
  }
  const std::size_t expected = size_before + inserted - erased;
  if (!bench->map().CheckInvariants()) {
    r.failure = "AVL invariants violated";
  } else if (bench->map().Size() != expected) {
    r.failure = "map size " + std::to_string(bench->map().Size()) + " != prefill " +
                std::to_string(size_before) + " + inserts - erases = " + std::to_string(expected);
  } else if (bad_lookups != 0) {
    r.failure = std::to_string(bad_lookups) + " lookups returned another key's value";
  }
  return r;
}

}  // namespace

int SimCpus() { return 32; }

SimPassResult RunSimPass(std::uint64_t seed, std::uint64_t window_ns, int setups, bool stats_config,
                         bool inject_fault, Tracer* tracer) {
  if (stats_config) {
    return Run<cna::locks::CnaLock<cna::SimPlatform, SimCnaStatsConfig>>(seed, window_ns, setups,
                                                                          inject_fault, tracer);
  }
  return Run<cna::locks::CnaLock<cna::SimPlatform, SimCnaConfig>>(seed, window_ns, setups, inject_fault,
                                                                   tracer);
}

}  // namespace perfbench
