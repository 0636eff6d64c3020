#include "core/registry.h"

#include "platform/real_platform.h"

namespace cna::core {

namespace {

template <typename Kind>
struct KindInfo {
  Kind kind;
  std::string_view name;
  std::string_view description;
  bool numa_aware = false;  // whether ownership stays within a socket
};

// Every lock kind, in presentation order: the one table the name,
// description and NUMA-awareness lookups read.
constexpr KindInfo<LockKind> kLockKinds[] = {
    {LockKind::kMcs, "mcs",
     "MCS queue lock (Mellor-Crummey & Scott 1991), NUMA-oblivious"},
    {LockKind::kCna, "cna",
     "Compact NUMA-aware lock (Dice & Kogan, EuroSys 2019)", true},
    {LockKind::kCnaOpt, "cna-opt",
     "CNA with shuffle-reduction optimization (Section 6)", true},
    {LockKind::kTas, "tas", "test-and-set spin lock, global spinning"},
    {LockKind::kTtas, "ttas", "test-and-test-and-set spin lock"},
    {LockKind::kBackoffTas, "tas-backoff",
     "test-and-set with randomized exponential backoff"},
    {LockKind::kTicket, "ticket", "ticket lock, FIFO, global spinning"},
    {LockKind::kPartitionedTicket, "ptl",
     "partitioned ticket lock (Dice 2011)"},
    {LockKind::kClh, "clh", "CLH queue lock"},
    {LockKind::kHbo, "hbo",
     "hierarchical backoff lock (Radovic & Hagersten, HPCA 2003)", true},
    {LockKind::kCBoMcs, "c-bo-mcs",
     "Cohort lock: global backoff-TAS over per-socket MCS", true},
    {LockKind::kCTktTkt, "c-tkt-tkt",
     "Cohort lock: ticket over per-socket ticket", true},
    {LockKind::kCPtlTkt, "c-ptl-tkt",
     "Cohort lock: partitioned ticket over per-socket ticket", true},
    {LockKind::kHmcs, "hmcs", "hierarchical MCS (Chabbi et al., PPoPP 2015)",
     true},
    {LockKind::kCst, "cst",
     "CST-style lock with lazily allocated per-socket state", true},
    {LockKind::kMcscr, "mcscr",
     "Malthusian MCS: culling + reinjection (Dice, EuroSys 2017)"},
    {LockKind::kQspinMcs, "qspin-mcs",
     "Linux qspinlock, stock MCS slow path (4-byte word)"},
    {LockKind::kQspinCna, "qspin-cna",
     "Linux qspinlock with CNA slow path (the paper's kernel patch)", true},
    {LockKind::kQspinCnaParked, "qspin-cna-parked",
     "CNA qspinlock whose queued waiters spin-then-park (blocking)", true},
};

constexpr KindInfo<RwLockKind> kRwLockKinds[] = {
    {RwLockKind::kCnaRw, "cna-rw",
     "CNA writer queue + per-socket padded reader counters "
     "(BRAVO/cohort-style read side)"},
    {RwLockKind::kCnaRwCompact, "cna-rw-compact",
     "one-word (8-byte) qrwlock layout: reader count word + 4-byte "
     "qspinlock with the CNA slow path"},
};

template <typename Kind, std::size_t N>
std::vector<Kind> Kinds(const KindInfo<Kind> (&table)[N]) {
  std::vector<Kind> kinds;
  for (const KindInfo<Kind>& info : table) {
    kinds.push_back(info.kind);
  }
  return kinds;
}

// The row of `kind`; an "unknown" row for a value outside the enumeration.
template <typename Kind, std::size_t N>
KindInfo<Kind> Find(const KindInfo<Kind> (&table)[N], Kind kind) {
  for (const KindInfo<Kind>& info : table) {
    if (info.kind == kind) {
      return info;
    }
  }
  return {kind, "unknown", ""};
}

template <typename Kind, std::size_t N>
std::optional<Kind> FromName(const KindInfo<Kind> (&table)[N],
                             std::string_view name) {
  for (const KindInfo<Kind>& info : table) {
    if (info.name == name) {
      return info.kind;
    }
  }
  return std::nullopt;
}

// The one lookup behind every by-name constructor: unknown names throw.
template <typename Kind>
Kind KnownKind(std::optional<Kind> kind, std::string_view name) {
  if (!kind.has_value()) {
    throw std::invalid_argument("cna::core: unknown lock name \"" +
                                std::string(name) + "\"");
  }
  return *kind;
}

}  // namespace

const std::vector<LockKind>& AllLockKinds() {
  static const std::vector<LockKind> kinds = Kinds(kLockKinds);
  return kinds;
}

std::string_view LockKindName(LockKind kind) {
  return Find(kLockKinds, kind).name;
}

std::string_view LockKindDescription(LockKind kind) {
  return Find(kLockKinds, kind).description;
}

std::optional<LockKind> LockKindFromName(std::string_view name) {
  return FromName(kLockKinds, name);
}

bool IsNumaAware(LockKind kind) { return Find(kLockKinds, kind).numa_aware; }

const std::vector<RwLockKind>& AllRwLockKinds() {
  static const std::vector<RwLockKind> kinds = Kinds(kRwLockKinds);
  return kinds;
}

std::string_view RwLockKindName(RwLockKind kind) {
  return Find(kRwLockKinds, kind).name;
}

std::string_view RwLockKindDescription(RwLockKind kind) {
  return Find(kRwLockKinds, kind).description;
}

std::optional<RwLockKind> RwLockKindFromName(std::string_view name) {
  return FromName(kRwLockKinds, name);
}

Mutex::Mutex(LockKind kind) : BasicMutex(MakeLock<RealPlatform>(kind)) {}

Mutex::Mutex(std::string_view name)
    : Mutex(KnownKind(LockKindFromName(name), name)) {}

ShardedMutex::ShardedMutex(LockKind kind, std::size_t stripes)
    : BasicShardedMutex(MakeLockTable<RealPlatform>(
          kind, locktable::LockTableOptions{.stripes = stripes})) {}

ShardedMutex::ShardedMutex(std::string_view name, std::size_t stripes)
    : ShardedMutex(KnownKind(LockKindFromName(name), name), stripes) {}

AdaptiveShardedMutex::AdaptiveShardedMutex(LockKind kind,
                                           std::size_t initial_stripes)
    : AdaptiveShardedMutex(
          kind, locktable::ResizableLockTableOptions{.stripes = initial_stripes,
                                                     .policy = {}}) {}

AdaptiveShardedMutex::AdaptiveShardedMutex(
    LockKind kind, const locktable::ResizableLockTableOptions& options)
    : BasicShardedMutex(MakeResizableLockTable<RealPlatform>(kind, options)) {}

AdaptiveShardedMutex::AdaptiveShardedMutex(std::string_view name,
                                           std::size_t initial_stripes)
    : AdaptiveShardedMutex(KnownKind(LockKindFromName(name), name),
                           initial_stripes) {}

ShardedCombiner::ShardedCombiner(LockKind kind, std::size_t stripes)
    : BasicSharded(MakeCombiningTable<RealPlatform>(
          kind, locktable::CombiningTableOptions{.stripes = stripes,
                                                 .collect_stats = true})) {}

ShardedCombiner::ShardedCombiner(std::string_view name, std::size_t stripes)
    : ShardedCombiner(KnownKind(LockKindFromName(name), name), stripes) {}

SharedMutex::SharedMutex(RwLockKind kind)
    : BasicMutex(MakeRwLock<RealPlatform>(kind)) {}

SharedMutex::SharedMutex(std::string_view name)
    : SharedMutex(KnownKind(RwLockKindFromName(name), name)) {}

ShardedSharedMutex::ShardedSharedMutex(RwLockKind kind, std::size_t stripes)
    : BasicSharded(MakeRwLockTable<RealPlatform>(
          kind, locktable::LockTableOptions{.stripes = stripes})) {}

ShardedSharedMutex::ShardedSharedMutex(std::string_view name,
                                       std::size_t stripes)
    : ShardedSharedMutex(KnownKind(RwLockKindFromName(name), name), stripes) {}

}  // namespace cna::core
