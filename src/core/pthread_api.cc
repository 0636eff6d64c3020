#include "core/pthread_api.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/registry.h"
#include "parking/parking_lot.h"
#include "platform/real_platform.h"
#include "telemetry/export.h"
#include "telemetry/lockdep.h"
#include "telemetry/metrics.h"
#include "telemetry/sampler.h"
#include "telemetry/serve.h"
#include "telemetry/trace.h"

namespace {

using cna::RealPlatform;
using namespace cna::core;  // NOLINT(build/namespaces)
using cna::locktable::CombiningTableOptions;
using cna::locktable::LockTableOptions;
using cna::locktable::ResizableLockTableOptions;

std::optional<LockKind> LockKindOf(const char* name) {
  return name == nullptr ? std::nullopt : LockKindFromName(name);
}

std::optional<RwLockKind> RwLockKindOf(const char* name) {
  return name == nullptr ? std::nullopt : RwLockKindFromName(name);
}

// Every create entry point: a Box holding make(kind, args...); nullptr for a
// missing kind (null or unknown name), and nullptr when construction throws
// -- bad_alloc, length_error from an absurd stripe count, invalid_argument
// from a kind without the flavor's fast path -- so no exception crosses
// extern "C".
template <typename Box, typename Kind, typename Make, typename... Args>
Box* Create(std::optional<Kind> kind, Make make, const Args&... args) noexcept {
  if (!kind.has_value()) {
    return nullptr;
  }
  try {
    return new Box{make(*kind, args...)};
  } catch (...) {
    return nullptr;
  }
}

// Every operation entry point: EINVAL for a null handle, else
// (box->impl->*Op)(args...) behind the exception barrier.  Void operations
// return 0, bool ones (try-locks, resize) 0 or EBUSY.  Exceptions map to
// pthread-style codes: unlock-without-lock (logic_error) -> EPERM,
// oversized requests (length_error -- caught first, it derives from
// logic_error) -> EINVAL, allocation failure (handles, multi-key scratch
// space) -> ENOMEM, anything else -> EINVAL.
template <auto Op, typename Box, typename... Args>
int Call(Box* box, Args... args) noexcept {
  if (box == nullptr) {
    return EINVAL;
  }
  try {
    auto& impl = *box->impl;
    if constexpr (std::is_void_v<decltype((impl.*Op)(args...))>) {
      (impl.*Op)(args...);
      return 0;
    } else {
      return (impl.*Op)(args...) ? 0 : EBUSY;
    }
  } catch (const std::length_error&) {
    return EINVAL;
  } catch (const std::logic_error&) {
    return EPERM;
  } catch (const std::bad_alloc&) {
    return ENOMEM;
  } catch (...) {
    return EINVAL;
  }
}

// Multi-key operations: also EINVAL for a null key array with a nonzero
// count.  An unlock of a key set some stripe of which this thread does not
// hold is EPERM; the checked release verifies the whole set first, so
// nothing is half-released.
template <auto Op, typename Box>
int CallMany(Box* box, const uint64_t* keys, size_t count) noexcept {
  if (keys == nullptr && count != 0) {
    return EINVAL;
  }
  return Call<Op>(box, keys, count);
}

// Every string-returning entry point: make()'s text in a malloc'd copy the
// caller frees with cna_telemetry_free; nullptr when make() or the copy
// fails.
template <typename Make>
char* MallocString(Make make) noexcept {
  try {
    const std::string s = make();
    char* buf = static_cast<char*>(std::malloc(s.size() + 1));
    if (buf != nullptr) {
      std::memcpy(buf, s.c_str(), s.size() + 1);
    }
    return buf;
  } catch (...) {
    return nullptr;
  }
}

}  // namespace

// Each opaque C handle boxes one type-erased object.
struct cna_mutex { std::unique_ptr<AnyLock> impl; };
struct cna_gcr { std::unique_ptr<AnyGcrLock> impl; };
struct cna_locktable { std::unique_ptr<AnyLockTable> impl; };
struct cna_resizable { std::unique_ptr<AnyResizableLockTable> impl; };
struct cna_combining { std::unique_ptr<AnyCombiningTable> impl; };
struct cna_rwlock { std::unique_ptr<AnyRwLock> impl; };
struct cna_rwlocktable { std::unique_ptr<AnyRwLockTable> impl; };

extern "C" {

cna_mutex_t* cna_mutex_create(const char* lock_name) {
  return Create<cna_mutex>(LockKindOf(lock_name), MakeLock<RealPlatform>);
}

cna_mutex_t* cna_mutex_create_default(void) {
  return cna_mutex_create("cna");
}

void cna_mutex_destroy(cna_mutex_t* mutex) { delete mutex; }

int cna_mutex_lock(cna_mutex_t* mutex) { return Call<&AnyLock::Lock>(mutex); }

int cna_mutex_trylock(cna_mutex_t* mutex) {
  return Call<&AnyLock::TryLock>(mutex);
}

int cna_mutex_unlock(cna_mutex_t* mutex) {
  return Call<&AnyLock::Unlock>(mutex);
}

size_t cna_mutex_state_bytes(const cna_mutex_t* mutex) {
  return mutex == nullptr ? 0 : mutex->impl->StateBytes();
}

cna_gcr_t* cna_gcr_create(const char* lock_name) {
  return Create<cna_gcr>(LockKindOf(lock_name), MakeGcrLock<RealPlatform>);
}

cna_gcr_t* cna_gcr_create_default(void) {
  return cna_gcr_create("cna");
}

void cna_gcr_destroy(cna_gcr_t* gcr) { delete gcr; }

int cna_gcr_lock(cna_gcr_t* gcr) { return Call<&AnyGcrLock::Lock>(gcr); }

int cna_gcr_trylock(cna_gcr_t* gcr) {
  return Call<&AnyGcrLock::TryLock>(gcr);
}

int cna_gcr_unlock(cna_gcr_t* gcr) { return Call<&AnyGcrLock::Unlock>(gcr); }

int cna_gcr_engage(cna_gcr_t* gcr) { return Call<&AnyGcrLock::Engage>(gcr); }

int cna_gcr_disengage(cna_gcr_t* gcr) {
  return Call<&AnyGcrLock::Disengage>(gcr);
}

int cna_gcr_set_active_limit(cna_gcr_t* gcr, uint32_t limit) {
  return Call<&AnyGcrLock::SetActiveLimit>(gcr, limit);
}

int cna_gcr_restricted(const cna_gcr_t* gcr) {
  return gcr != nullptr && gcr->impl->Restricted() ? 1 : 0;
}

int cna_gcr_get_stats(const cna_gcr_t* gcr, cna_gcr_stats_t* out) {
  if (gcr == nullptr || out == nullptr) {
    return EINVAL;
  }
  const cna::locks::GcrCountersSnapshot s = gcr->impl->GcrStats();
  out->direct = s.direct;
  out->passivations = s.passivations;
  out->admissions = s.admissions + s.self_admissions;
  out->rotations = s.rotations;
  out->engages = s.engages;
  out->disengages = s.disengages;
  out->max_admission_wait_releases = s.max_admission_wait_releases;
  return 0;
}

size_t cna_gcr_state_bytes(const cna_gcr_t* gcr) {
  return gcr == nullptr ? 0 : gcr->impl->StateBytes();
}

cna_locktable_t* cna_locktable_create(const char* lock_name, size_t stripes) {
  return Create<cna_locktable>(LockKindOf(lock_name),
                               MakeLockTable<RealPlatform>,
                               LockTableOptions{.stripes = stripes});
}

cna_locktable_t* cna_locktable_create_default(size_t stripes) {
  return cna_locktable_create("cna", stripes);
}

cna_locktable_t* cna_locktable_create_blocking(const char* lock_name,
                                               size_t stripes) {
  return Create<cna_locktable>(
      LockKindOf(lock_name), MakeLockTable<RealPlatform>,
      LockTableOptions{.stripes = stripes, .blocking = true});
}

void cna_locktable_destroy(cna_locktable_t* table) { delete table; }

int cna_locktable_lock(cna_locktable_t* table, uint64_t key) {
  return Call<&AnyLockTable::Lock>(table, key);
}

int cna_locktable_trylock(cna_locktable_t* table, uint64_t key) {
  return Call<&AnyLockTable::TryLock>(table, key);
}

int cna_locktable_unlock(cna_locktable_t* table, uint64_t key) {
  return Call<&AnyLockTable::Unlock>(table, key);
}

int cna_locktable_lock_many(cna_locktable_t* table, const uint64_t* keys,
                            size_t count) {
  return CallMany<&AnyLockTable::LockMany>(table, keys, count);
}

int cna_locktable_unlock_many(cna_locktable_t* table, const uint64_t* keys,
                              size_t count) {
  return CallMany<&AnyLockTable::UnlockMany>(table, keys, count);
}

size_t cna_locktable_stripes(const cna_locktable_t* table) {
  return table == nullptr ? 0 : table->impl->Stripes();
}

size_t cna_locktable_stripe_of(const cna_locktable_t* table, uint64_t key) {
  return table == nullptr ? 0 : table->impl->StripeOf(key);
}

size_t cna_locktable_state_bytes(const cna_locktable_t* table) {
  return table == nullptr ? 0 : table->impl->LockStateBytes();
}

// ----------------------------- resizable table -----------------------------

cna_resizable_t* cna_resizable_create(const char* lock_name,
                                      size_t initial_stripes) {
  return Create<cna_resizable>(
      LockKindOf(lock_name), MakeResizableLockTable<RealPlatform>,
      ResizableLockTableOptions{.stripes = initial_stripes, .policy = {}});
}

cna_resizable_t* cna_resizable_create_default(size_t initial_stripes) {
  return cna_resizable_create("cna", initial_stripes);
}

void cna_resizable_destroy(cna_resizable_t* table) { delete table; }

int cna_resizable_lock(cna_resizable_t* table, uint64_t key) {
  return Call<&AnyResizableLockTable::Lock>(table, key);
}

int cna_resizable_trylock(cna_resizable_t* table, uint64_t key) {
  return Call<&AnyResizableLockTable::TryLock>(table, key);
}

int cna_resizable_unlock(cna_resizable_t* table, uint64_t key) {
  return Call<&AnyResizableLockTable::Unlock>(table, key);
}

int cna_resizable_lock_many(cna_resizable_t* table, const uint64_t* keys,
                            size_t count) {
  return CallMany<&AnyResizableLockTable::LockMany>(table, keys, count);
}

int cna_resizable_unlock_many(cna_resizable_t* table, const uint64_t* keys,
                              size_t count) {
  return CallMany<&AnyResizableLockTable::UnlockMany>(table, keys, count);
}

int cna_resizable_resize(cna_resizable_t* table, size_t stripes) {
  return Call<&AnyResizableLockTable::TryResize>(table, stripes);
}

size_t cna_resizable_stripes(const cna_resizable_t* table) {
  return table == nullptr ? 0 : table->impl->Stripes();
}

size_t cna_resizable_stripe_of(const cna_resizable_t* table, uint64_t key) {
  return table == nullptr ? 0 : table->impl->StripeOf(key);
}

size_t cna_resizable_state_bytes(const cna_resizable_t* table) {
  return table == nullptr ? 0 : table->impl->LockStateBytes();
}

uint64_t cna_resizable_grows(const cna_resizable_t* table) {
  return table == nullptr ? 0 : table->impl->Summary().grows;
}

uint64_t cna_resizable_shrinks(const cna_resizable_t* table) {
  return table == nullptr ? 0 : table->impl->Summary().shrinks;
}

uint64_t cna_resizable_epoch_retired(const cna_resizable_t* table) {
  return table == nullptr ? 0 : table->impl->Summary().epoch.retired;
}

uint64_t cna_resizable_epoch_reclaimed(const cna_resizable_t* table) {
  return table == nullptr ? 0 : table->impl->Summary().epoch.reclaimed;
}

// ----------------------------- combining table -----------------------------

cna_combining_t* cna_combining_create(const char* lock_name, size_t stripes) {
  return Create<cna_combining>(
      LockKindOf(lock_name), MakeCombiningTable<RealPlatform>,
      CombiningTableOptions{.stripes = stripes, .collect_stats = true});
}

cna_combining_t* cna_combining_create_default(size_t stripes) {
  return cna_combining_create("cna", stripes);
}

void cna_combining_destroy(cna_combining_t* table) { delete table; }

int cna_combining_apply(cna_combining_t* table, uint64_t key,
                        cna_combining_fn fn, void* ctx) {
  if (fn == nullptr) {
    return EINVAL;
  }
  return Call<&AnyCombiningTable::Apply>(table, key, fn, ctx);
}

int cna_combining_apply_batch(cna_combining_t* table, const uint64_t* keys,
                              size_t count, cna_combining_key_fn fn,
                              void* ctx) {
  if (fn == nullptr || (keys == nullptr && count != 0)) {
    return EINVAL;
  }
  return Call<&AnyCombiningTable::ApplyBatch>(table, keys, count, fn, ctx);
}

int cna_combining_lock(cna_combining_t* table, uint64_t key) {
  return Call<&AnyCombiningTable::Lock>(table, key);
}

int cna_combining_unlock(cna_combining_t* table, uint64_t key) {
  return Call<&AnyCombiningTable::Unlock>(table, key);
}

size_t cna_combining_stripes(const cna_combining_t* table) {
  return table == nullptr ? 0 : table->impl->Stripes();
}

size_t cna_combining_stripe_of(const cna_combining_t* table, uint64_t key) {
  return table == nullptr ? 0 : table->impl->StripeOf(key);
}

size_t cna_combining_state_bytes(const cna_combining_t* table) {
  return table == nullptr ? 0 : table->impl->LockStateBytes();
}

uint64_t cna_combining_pass_through_ops(const cna_combining_t* table) {
  return table == nullptr ? 0 : table->impl->CombiningSummary().pass_through;
}

uint64_t cna_combining_combined_ops(const cna_combining_t* table) {
  return table == nullptr ? 0 : table->impl->CombiningSummary().combined;
}

// --------------------------- reader-writer lock ----------------------------

cna_rwlock_t* cna_rwlock_create(const char* rwlock_name) {
  return Create<cna_rwlock>(RwLockKindOf(rwlock_name),
                            MakeRwLock<RealPlatform>);
}

cna_rwlock_t* cna_rwlock_create_default(void) {
  return cna_rwlock_create("cna-rw");
}

void cna_rwlock_destroy(cna_rwlock_t* rwlock) { delete rwlock; }

int cna_rwlock_rdlock(cna_rwlock_t* rwlock) {
  return Call<&AnyRwLock::LockShared>(rwlock);
}

int cna_rwlock_tryrdlock(cna_rwlock_t* rwlock) {
  return Call<&AnyRwLock::TryLockShared>(rwlock);
}

int cna_rwlock_wrlock(cna_rwlock_t* rwlock) {
  return Call<&AnyRwLock::Lock>(rwlock);
}

int cna_rwlock_trywrlock(cna_rwlock_t* rwlock) {
  return Call<&AnyRwLock::TryLock>(rwlock);
}

int cna_rwlock_unlock(cna_rwlock_t* rwlock) {
  return Call<&AnyRwLock::UnlockAny>(rwlock);
}

size_t cna_rwlock_state_bytes(const cna_rwlock_t* rwlock) {
  return rwlock == nullptr ? 0 : rwlock->impl->StateBytes();
}

// ------------------------ reader-writer lock table -------------------------

cna_rwlocktable_t* cna_rwlocktable_create(const char* rwlock_name,
                                          size_t stripes) {
  return Create<cna_rwlocktable>(RwLockKindOf(rwlock_name),
                                 MakeRwLockTable<RealPlatform>,
                                 LockTableOptions{.stripes = stripes});
}

cna_rwlocktable_t* cna_rwlocktable_create_default(size_t stripes) {
  return cna_rwlocktable_create("cna-rw-compact", stripes);
}

void cna_rwlocktable_destroy(cna_rwlocktable_t* table) { delete table; }

int cna_rwlocktable_rdlock(cna_rwlocktable_t* table, uint64_t key) {
  return Call<&AnyRwLockTable::LockShared>(table, key);
}

int cna_rwlocktable_tryrdlock(cna_rwlocktable_t* table, uint64_t key) {
  return Call<&AnyRwLockTable::TryLockShared>(table, key);
}

int cna_rwlocktable_wrlock(cna_rwlocktable_t* table, uint64_t key) {
  return Call<&AnyRwLockTable::LockExclusive>(table, key);
}

int cna_rwlocktable_trywrlock(cna_rwlocktable_t* table, uint64_t key) {
  return Call<&AnyRwLockTable::TryLockExclusive>(table, key);
}

int cna_rwlocktable_unlock(cna_rwlocktable_t* table, uint64_t key) {
  return Call<&AnyRwLockTable::Unlock>(table, key);
}

int cna_rwlocktable_wrlock_many(cna_rwlocktable_t* table,
                                const uint64_t* keys, size_t count) {
  return CallMany<&AnyRwLockTable::LockMany>(table, keys, count);
}

int cna_rwlocktable_unlock_many(cna_rwlocktable_t* table,
                                const uint64_t* keys, size_t count) {
  return CallMany<&AnyRwLockTable::UnlockMany>(table, keys, count);
}

size_t cna_rwlocktable_stripes(const cna_rwlocktable_t* table) {
  return table == nullptr ? 0 : table->impl->Stripes();
}

size_t cna_rwlocktable_stripe_of(const cna_rwlocktable_t* table,
                                 uint64_t key) {
  return table == nullptr ? 0 : table->impl->StripeOf(key);
}

size_t cna_rwlocktable_state_bytes(const cna_rwlocktable_t* table) {
  return table == nullptr ? 0 : table->impl->LockStateBytes();
}

int cna_parking_get_stats(cna_parking_stats_t* out) {
  if (out == nullptr) {
    return EINVAL;
  }
  const cna::parking::ParkingLotStats s =
      cna::parking::ParkingLot<cna::RealPlatform>::Global().Stats();
  out->enqueues = s.enqueues;
  out->parks = s.parks;
  out->unparks = s.unparks;
  out->timeouts = s.timeouts;
  out->cancels = s.cancels;
  return 0;
}

size_t cna_parking_waiters(void) {
  return cna::parking::ParkingLot<cna::RealPlatform>::Global()
      .TotalWaitersApprox();
}

void cna_telemetry_enable(int on) { cna::telemetry::SetEnabled(on != 0); }

int cna_telemetry_enabled(void) {
  return cna::telemetry::Enabled() ? 1 : 0;
}

void cna_telemetry_trace_enable(int on) {
  cna::telemetry::SetTraceEnabled(on != 0);
}

void cna_telemetry_reset(void) {
  cna::telemetry::Registry::Global().ResetAll();
  cna::telemetry::ClearTrace();
}

char* cna_telemetry_export(int format) {
  namespace t = cna::telemetry;
  switch (format) {
    case CNA_TELEMETRY_FORMAT_TEXT:
      return MallocString([] { return t::ToLockStatText(t::SnapshotAll()); });
    case CNA_TELEMETRY_FORMAT_JSON:
      return MallocString([] { return t::ToJson(t::SnapshotAll()); });
    case CNA_TELEMETRY_FORMAT_PROMETHEUS:
      return MallocString([] { return t::ToPrometheus(t::SnapshotAll()); });
    case CNA_TELEMETRY_FORMAT_CHROME:
      return MallocString(
          [] { return t::ToChromeTraceJson(t::CollectTrace()); });
    default:
      return nullptr;
  }
}

void cna_telemetry_free(char* exported) { std::free(exported); }

namespace {

// The serve endpoint the C surface manages (the global sampler backs its
// /series route).
cna::telemetry::TelemetryServer& GlobalServer() {
  static cna::telemetry::TelemetryServer server;
  return server;
}

}  // namespace

void cna_sampler_start(long interval_ms) {
  auto& sampler = cna::telemetry::Sampler::Global();
  if (interval_ms > 0) {
    sampler.set_interval_ns(static_cast<uint64_t>(interval_ms) * 1'000'000);
  }
  sampler.Start();
}

void cna_sampler_stop(void) { cna::telemetry::Sampler::Global().Stop(); }

void cna_sampler_tick(uint64_t now_ns) {
  cna::telemetry::Sampler::Global().Tick(now_ns);
}

uint64_t cna_sampler_ticks(void) {
  return cna::telemetry::Sampler::Global().ticks();
}

double cna_sampler_rate(const char* metric, size_t window) {
  if (metric == nullptr) {
    return 0.0;
  }
  return cna::telemetry::Sampler::Global().CounterRate(metric, window);
}

char* cna_sampler_series_json(size_t window) {
  return MallocString(
      [=] { return cna::telemetry::Sampler::Global().SeriesJson(window); });
}

void cna_sampler_rebaseline(void) {
  cna::telemetry::Sampler::Global().Rebaseline();
}

int cna_telemetry_serve_start(uint16_t port) {
  auto& server = GlobalServer();
  if (server.running()) {
    return static_cast<int>(server.port());
  }
  cna::telemetry::ServeOptions options;
  options.port = port;
  options.sampler = &cna::telemetry::Sampler::Global();
  if (!server.Start(options)) {
    return -1;
  }
  return static_cast<int>(server.port());
}

void cna_telemetry_serve_stop(void) { GlobalServer().Stop(); }

uint64_t cna_telemetry_serve_requests(void) {
  return GlobalServer().requests_served();
}

void cna_lockdep_enable(int on) {
  cna::telemetry::lockdep::SetEnabled(on != 0);
}

int cna_lockdep_enabled(void) {
  return cna::telemetry::lockdep::Enabled() ? 1 : 0;
}

uint64_t cna_lockdep_inversions(void) {
  return cna::telemetry::lockdep::InversionCount();
}

uint64_t cna_lockdep_park_while_held(void) {
  return cna::telemetry::lockdep::ParkWhileHeldCount();
}

char* cna_lockdep_report(void) {
  return MallocString(cna::telemetry::lockdep::ReportText);
}

char* cna_lockdep_dot(void) {
  return MallocString(cna::telemetry::lockdep::ReportDot);
}

char* cna_lockdep_folded(int weight_by_wait) {
  return MallocString([=] {
    return cna::telemetry::lockdep::FoldedStacks(weight_by_wait != 0);
  });
}

void cna_lockdep_reset(void) { cna::telemetry::lockdep::Reset(); }

}  // extern "C"
