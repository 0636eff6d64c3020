// The rung ladder: the cost of one uncontended lock + unlock at each layer of
// the stack, from the raw lock word up to the lock table's C surface.  Rungs
// are timed in interleaved rounds (every rung once per round) and each rung
// reports its median round, so slow host phases hit all rungs alike.
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pthread_api.h"
#include "core/registry.h"
#include "locks/cna.h"
#include "locks/cna_rwlock.h"
#include "locks/lock_api.h"
#include "locks/mcs.h"
#include "locktable/lock_table.h"
#include "locktable/rw_lock_table.h"
#include "platform/real_platform.h"
#include "stats.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace {

using P = cna::RealPlatform;
using Cna = cna::locks::CnaLock<P>;
using Mcs = cna::locks::McsLock<P>;
using Table = cna::locktable::LockTable<P, Cna>;
using RwTable = cna::locktable::RwLockTable<P, cna::locks::CnaRwLock<P>>;

constexpr std::size_t kStripes = 4096;
constexpr std::size_t kKeys = 4096;  // power of two: keys[i & (kKeys - 1)]

struct Rung {
  const char* span_name;
  std::function<void(std::size_t)> batch;  // runs `n` lock + unlock pairs
  std::vector<double> ns_per_op;
};

}  // namespace

LadderResult RunLadder(std::uint64_t seed, double seconds, Tracer* tracer) {
  std::vector<std::uint64_t> keys(kKeys);
  SeedRng rng(SubSeed(seed, 300));
  for (std::uint64_t& k : keys) {
    k = rng.Next();
  }
  const std::uint64_t* key = keys.data();

  Cna cna_lock;
  Mcs mcs_lock;
  auto any_lock = cna::core::MakeLock<P>(cna::core::LockKind::kCna);
  std::unique_ptr<cna_mutex_t, void (*)(cna_mutex_t*)> c_mutex(cna_mutex_create_default(), cna_mutex_destroy);
  Table table({.stripes = kStripes});
  Table latency_table({.stripes = kStripes, .collect_latency = true, .metrics_name = "perfbench.ladder"});
  RwTable rw_table({.stripes = kStripes});
  std::unique_ptr<cna_locktable_t, void (*)(cna_locktable_t*)> c_table(cna_locktable_create_default(kStripes),
                                                                         cna_locktable_destroy);

  std::vector<Rung> rungs = {
      {"locks.cna.lock_unlock",
       [&](std::size_t n) {
         Cna::Handle h;
         for (std::size_t i = 0; i < n; ++i) {
           cna_lock.Lock(h);
           cna_lock.Unlock(h);
         }
       }, {}},
      {"locks.mcs.lock_unlock",
       [&](std::size_t n) {
         Mcs::Handle h;
         for (std::size_t i = 0; i < n; ++i) {
           mcs_lock.Lock(h);
           mcs_lock.Unlock(h);
         }
       }, {}},
      {"core.scoped_lock",
       [&](std::size_t n) {
         for (std::size_t i = 0; i < n; ++i) {
           cna::locks::ScopedLock<Cna> g(cna_lock);
         }
       }, {}},
      {"core.any_lock",
       [&](std::size_t n) {
         for (std::size_t i = 0; i < n; ++i) {
           any_lock->Lock();
           any_lock->Unlock();
         }
       }, {}},
      {"core.c_mutex",
       [&](std::size_t n) {
         for (std::size_t i = 0; i < n; ++i) {
           cna_mutex_lock(c_mutex.get());
           cna_mutex_unlock(c_mutex.get());
         }
       }, {}},
      {"locktable.guard",
       [&](std::size_t n) {
         for (std::size_t i = 0; i < n; ++i) {
           Table::Guard g(table, key[i & (kKeys - 1)]);
         }
       }, {}},
      {"locktable.multiguard2",
       [&](std::size_t n) {
         for (std::size_t i = 0; i < n; ++i) {
           Table::MultiGuard g(table, {key[i & (kKeys - 1)], key[(i + 1) & (kKeys - 1)]});
         }
       }, {}},
      {"locktable.rw_shared_guard",
       [&](std::size_t n) {
         for (std::size_t i = 0; i < n; ++i) {
           RwTable::ReadGuard g(rw_table, key[i & (kKeys - 1)]);
         }
       }, {}},
      {"locktable.c_lock_unlock",
       [&](std::size_t n) {
         for (std::size_t i = 0; i < n; ++i) {
           cna_locktable_lock(c_table.get(), key[i & (kKeys - 1)]);
           cna_locktable_unlock(c_table.get(), key[i & (kKeys - 1)]);
         }
       }, {}},
      {"telemetry.guard_latency_on",
       [&](std::size_t n) {
         for (std::size_t i = 0; i < n; ++i) {
           Table::Guard g(latency_table, key[i & (kKeys - 1)]);
         }
       }, {}},
  };

  // Calibrate the batch so a round takes about 1/25 of the ladder's time.
  const double round_s = seconds / 25;
  std::size_t batch = 1024;
  {
    const bool telemetry_was = cna::telemetry::Enabled();
    cna::telemetry::SetEnabled(true);
    const std::uint64_t t0 = HostNowNs();
    for (Rung& r : rungs) {
      r.batch(batch);  // also warms every rung
    }
    cna::telemetry::SetEnabled(telemetry_was);
    const double per_round = static_cast<double>(HostNowNs() - t0) / 1e9;
    if (per_round > 0) {
      batch = std::max<std::size_t>(1024, static_cast<std::size_t>(batch * round_s / per_round));
    }
  }

  std::uint32_t round_name = 0;
  std::vector<std::uint32_t> rung_names;
  SpanBuffer* spans = nullptr;
  if (tracer != nullptr) {
    round_name = tracer->Intern("bench.ladder.round");
    for (const Rung& r : rungs) {
      rung_names.push_back(tracer->Intern(r.span_name));
    }
    spans = &tracer->NewBuffer(4096);
  }

  LadderResult out;
  const std::uint64_t start = HostNowNs();
  while (out.rounds < 5 || static_cast<double>(HostNowNs() - start) / 1e9 < seconds) {
    const std::uint64_t round_t0 = HostNowNs();
    std::vector<std::uint64_t> bounds = {round_t0};
    for (Rung& r : rungs) {
      // Latency recording is gated on the process-global flag, so it is on
      // for the latency-table rung only.
      const bool latency = &r == &rungs.back();
      cna::telemetry::SetEnabled(latency);
      const std::uint64_t t0 = HostNowNs();
      r.batch(batch);
      const std::uint64_t t1 = HostNowNs();
      r.ns_per_op.push_back(static_cast<double>(t1 - t0) / static_cast<double>(batch));
      bounds.push_back(t1);
    }
    cna::telemetry::SetEnabled(false);
    if (spans != nullptr) {
      const std::uint64_t root = spans->Add(round_name, 0, 0, round_t0, bounds.back());
      for (std::size_t i = 0; i < rungs.size(); ++i) {
        spans->Add(rung_names[i], root, root, bounds[i], bounds[i + 1]);
      }
    }
    ++out.rounds;
  }

  out.cna_ns = Median(rungs[0].ns_per_op);
  out.mcs_ns = Median(rungs[1].ns_per_op);
  out.scoped_ns = Median(rungs[2].ns_per_op);
  out.any_lock_ns = Median(rungs[3].ns_per_op);
  out.c_mutex_ns = Median(rungs[4].ns_per_op);
  out.guard_ns = Median(rungs[5].ns_per_op);
  out.multiguard2_ns = Median(rungs[6].ns_per_op);
  out.rw_shared_guard_ns = Median(rungs[7].ns_per_op);
  out.c_table_ns = Median(rungs[8].ns_per_op);
  out.guard_latency_on_ns = Median(rungs[9].ns_per_op);
  return out;
}

}  // namespace perfbench
