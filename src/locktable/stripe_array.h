// StripeArray<L>: the storage/stride/hash core shared by every lock table.
//
// LockTable, RwLockTable (and, through composition, CombiningTable) and the
// resizable table's snapshots all need the same thing: a power-of-two array
// of in-place-constructed lock stripes, packed at sizeof(L) by default (the
// paper's compactness claim -- a million-stripe CNA table is exactly 8 MiB of
// lock words) or padded to a cache line each, plus the SplitMix64 key->stripe
// hash.  This class is that core, extracted so the geometry logic exists
// once: construction, aligned placement, destruction, the kMaxStripes bound,
// the hash, and the sorted stripe set of a multi-key transaction all live
// here, and the tables add their locking surfaces on top.
#ifndef CNA_LOCKTABLE_STRIPE_ARRAY_H_
#define CNA_LOCKTABLE_STRIPE_ARRAY_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <vector>

#include "base/cacheline.h"
#include "base/rng.h"

namespace cna::locktable {

enum class StripePadding {
  kCompact,    // stripes packed at sizeof(L): the paper's space claim
  kCacheLine,  // one cache line per stripe: no false sharing between stripes
};

template <typename L>
class StripeArray {
 public:
  // Upper bound on the namespace: 2^30 stripes (8 GiB of one-word locks) is
  // far past any sane table and keeps stripes_ * stride_ arithmetic safe.
  static constexpr std::size_t kMaxStripes = std::size_t{1} << 30;

  explicit StripeArray(std::size_t requested,
                       StripePadding padding = StripePadding::kCompact)
      : stripes_(std::bit_ceil(ValidatedStripes(requested))),
        mask_(stripes_ - 1),
        stride_(padding == StripePadding::kCacheLine
                    ? RoundUp(sizeof(L), kCacheLineSize)
                    : sizeof(L)),
        padding_(padding) {
    // The base sits on a cache-line boundary in both layouts, so which
    // stripes share a line depends only on their indices, never on where the
    // allocator placed the storage (simulated runs repeat exactly).
    const std::size_t align = std::max(alignof(L), kCacheLineSize);
    storage_.resize(stripes_ * stride_ + align);
    const auto raw = reinterpret_cast<std::uintptr_t>(storage_.data());
    base_ = reinterpret_cast<std::byte*>(RoundUp(raw, align));
    for (std::size_t s = 0; s < stripes_; ++s) {
      new (base_ + s * stride_) L();
    }
  }

  ~StripeArray() {
    for (std::size_t s = 0; s < stripes_; ++s) {
      Stripe(s).~L();
    }
  }

  StripeArray(const StripeArray&) = delete;
  StripeArray& operator=(const StripeArray&) = delete;

  std::size_t stripes() const { return stripes_; }
  StripePadding padding() const { return padding_; }

  // The stripe a key hashes to.  SplitMix64's finalizer: full-avalanche, so
  // sequential keys spread over the whole namespace.  Every array built from
  // the same hash agrees modulo its own mask, which is what makes
  // power-of-two resizing a per-stripe split/merge (resizable_lock_table.h).
  std::size_t StripeOf(std::uint64_t key) const {
    return static_cast<std::size_t>(SplitMix64::Mix(key)) & mask_;
  }

  // Writes the sorted distinct stripes of keys[0..count) into out[]
  // (capacity >= count) and returns how many there are: the ascending order
  // every multi-key transaction acquires in, which makes the lock order
  // total.
  std::size_t DistinctStripesInto(const std::uint64_t* keys, std::size_t count,
                                  std::size_t* out) const {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = StripeOf(keys[i]);
    }
    // GCC 12 inlines std::sort into callers whose out[] is a small inline
    // array and then flags the >16-element branch of its final insertion
    // sort, which such callers never reach (count <= the array's size).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
    std::sort(out, out + count);
#pragma GCC diagnostic pop
    return static_cast<std::size_t>(std::unique(out, out + count) - out);
  }

  // Total bytes of shared lock state backing the namespace -- the quantity
  // the paper's compactness argument is about.
  std::size_t LockStateBytes() const { return stripes_ * stride_; }

  L& Stripe(std::size_t s) {
    return *std::launder(reinterpret_cast<L*>(base_ + s * stride_));
  }

 private:
  static std::size_t ValidatedStripes(std::size_t v) {
    if (v > kMaxStripes) {
      throw std::length_error("locktable::StripeArray: stripe count too large");
    }
    return v == 0 ? 1 : v;
  }
  static constexpr std::uint64_t RoundUp(std::uint64_t v, std::size_t unit) {
    return (v + unit - 1) / unit * unit;
  }

  std::size_t stripes_;
  std::size_t mask_;
  std::size_t stride_;
  StripePadding padding_;
  std::vector<std::byte> storage_;
  std::byte* base_ = nullptr;
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_STRIPE_ARRAY_H_
