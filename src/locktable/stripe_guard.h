// RAII guards of the fixed lock tables (LockTable, RwLockTable).
//
// A queue lock needs one Handle per acquisition, and the paper notes that
// those nodes can be reused "for different lock acquisitions, and between
// different locks" (Section 5).  A guard's lifetime brackets its acquisition
// exactly, so the guard itself owns everything the acquisition needs, on the
// caller's stack as locks::ScopedLock does: the stripe's queue node and, when
// the table collects latency, the acquisition stamps.  Nothing on the guard
// path touches the table's handle pool lists or its HoldTracker; those serve
// only the handle-free Lock(key)/Unlock(key) surface, where acquisition and
// release are separate calls.
//
// Stamps: stamp 0 is read before the first acquisition (0 when the table is
// not timing) and stamp i+1 is stripe i's ownership stamp.  A timed
// acquisition tries its stripe once first: if the try wins, stamp i+1 is
// stamp i and no clock is read; only an acquisition that waited reads the
// clock once it owns the stripe.  One release stamp is read after the
// release has unlocked every stripe.  So wait_ns = stamp[i+1] - stamp[i] is
// the time stripe i spent queued behind a holder (0 when the first try
// succeeded), and hold_ns runs from stamp[i+1] to the end of the release.
// An acquisition that did not wait reads no clock between taking ownership
// and releasing.  The samples are published after the release too, so
// telemetry's bookkeeping stays out of the critical section -- and a
// guard's wait sample appears at its release, not at its acquisition.
//
// The guards call four hooks on the table, for each access mode it
// supports:
//   std::uint64_t GuardStart() const;   // t0, or 0 when not timing
//   std::uint64_t GuardAcquire(Access, stripe, Handle&, multi_key, t_prev);
//                                       // returns the ownership stamp
//   void GuardRelease(Access, stripe, Handle&);
//   void GuardRecord(Access, t_start, t_owned, t_release);
// StripeTable (stripe_table.h) implements them once, generic over the access
// mode; LockTable and RwLockTable inherit them privately and befriend the
// guard templates, so only guards can reach them.
#ifndef CNA_LOCKTABLE_STRIPE_GUARD_H_
#define CNA_LOCKTABLE_STRIPE_GUARD_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "telemetry/metrics.h"

namespace cna::locktable {

// Access mode a guard holds its stripes in.
struct ExclusiveAccess {};
struct SharedAccess {};

// Single-key critical section.
template <typename Table, typename Access = ExclusiveAccess>
class StripeGuard {
 public:
  StripeGuard(Table& table, std::uint64_t key)
      : table_(table), stripe_(table.StripeOf(key)), t0_(table.GuardStart()) {
    t1_ = table_.GuardAcquire(Access{}, stripe_, handle_, /*multi_key=*/false,
                              t0_);
  }
  ~StripeGuard() {
    table_.GuardRelease(Access{}, stripe_, handle_);
    if (t0_ != 0) {
      table_.GuardRecord(Access{}, t0_, t1_, telemetry::NowNs());
    }
  }

  StripeGuard(const StripeGuard&) = delete;
  StripeGuard& operator=(const StripeGuard&) = delete;

  std::size_t stripe() const { return stripe_; }

 private:
  Table& table_;
  std::size_t stripe_;
  std::uint64_t t0_;
  std::uint64_t t1_ = 0;
  typename Table::Handle handle_;
};

// Multi-key transaction: locks the key set's distinct stripes in ascending
// stripe order (deadlock-free against every other transaction doing the
// same) and releases them in descending order.  Up to kInlineKeys keys the
// stripes, handles and stamps all live inline, so the common 2-key
// transaction is heap-free; a larger key set spills to the heap.
template <typename Table, typename Access = ExclusiveAccess>
class StripeMultiGuard {
 public:
  using Handle = typename Table::Handle;
  static constexpr std::size_t kInlineKeys = Table::kInlineTxnKeys;

  StripeMultiGuard(Table& table, std::initializer_list<std::uint64_t> keys)
      : StripeMultiGuard(table, keys.begin(), keys.size()) {}
  StripeMultiGuard(Table& table, const std::uint64_t* keys, std::size_t count)
      : table_(table) {
    if (count > kInlineKeys) {
      spill_ = std::make_unique<Spill>(count);
      stripes_ = spill_->stripes.data();
      stamps_ = spill_->stamps.data();
      nodes_ = spill_->nodes.get();
    }
    const std::size_t n = table_.DistinctStripesInto(keys, count, stripes_);
    // Handles are built only for the stripes actually taken: a 2-key
    // transaction initializes two queue nodes, not kInlineKeys.
    for (; built_ < n; ++built_) {
      std::construct_at(&nodes_[built_].handle);
    }
    // All-or-nothing: a throwing acquisition releases what was taken.
    stamps_[0] = table_.GuardStart();
    try {
      for (; count_ < n; ++count_) {
        stamps_[count_ + 1] =
            table_.GuardAcquire(Access{}, stripes_[count_],
                                nodes_[count_].handle, /*multi_key=*/true,
                                stamps_[count_]);
      }
    } catch (...) {
      ReleaseAll();
      DestroyNodes();
      throw;
    }
  }
  ~StripeMultiGuard() {
    ReleaseAll();
    if (stamps_[0] != 0) {
      const std::uint64_t t2 = telemetry::NowNs();
      for (std::size_t i = 0; i < count_; ++i) {
        table_.GuardRecord(Access{}, stamps_[i], stamps_[i + 1], t2);
      }
    }
    DestroyNodes();
  }

  StripeMultiGuard(const StripeMultiGuard&) = delete;
  StripeMultiGuard& operator=(const StripeMultiGuard&) = delete;

  // The sorted distinct stripes this transaction holds.
  std::vector<std::size_t> stripes() const {
    return std::vector<std::size_t>(stripes_, stripes_ + count_);
  }
  std::size_t size() const { return count_; }

 private:
  // Raw storage for one queue node: built on demand, so an unused inline
  // slot costs no initialization.
  union Node {
    Node() {}
    ~Node() {}
    Handle handle;
  };

  struct Spill {
    explicit Spill(std::size_t count)
        : stripes(count), stamps(count + 1), nodes(new Node[count]) {}
    std::vector<std::size_t> stripes;
    std::vector<std::uint64_t> stamps;
    std::unique_ptr<Node[]> nodes;
  };

  void ReleaseAll() {
    for (std::size_t i = count_; i-- > 0;) {
      table_.GuardRelease(Access{}, stripes_[i], nodes_[i].handle);
    }
  }

  void DestroyNodes() {
    for (std::size_t i = 0; i < built_; ++i) {
      std::destroy_at(&nodes_[i].handle);
    }
  }

  Table& table_;
  std::size_t count_ = 0;  // stripes held
  std::size_t built_ = 0;  // handles constructed
  std::size_t inline_stripes_[kInlineKeys];
  std::uint64_t inline_stamps_[kInlineKeys + 1];
  Node inline_nodes_[kInlineKeys];
  std::unique_ptr<Spill> spill_;
  std::size_t* stripes_ = inline_stripes_;
  std::uint64_t* stamps_ = inline_stamps_;
  Node* nodes_ = inline_nodes_;
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_STRIPE_GUARD_H_
