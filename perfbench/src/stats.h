// Aggregation helpers for the benchmark: seeded generators, a fine-grained
// latency histogram, percentiles, medians and the paper's fairness factor.
// Header-only and free of library dependencies so the self-test can check
// every formula the reported metrics rest on.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

namespace perfbench {

// SplitMix64: every input stream derives from the run seed through this.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Sub-seed for stream `index` of a run: independent streams per worker.
inline std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t index) {
  return SeedRng(seed * 0x2545f4914f6cdd1dull + index).Next();
}

// Zipf(theta) over ranks [0, n): rank 0 is the hottest key.  The CDF is
// built once; Sample() is a binary search, so generation is exact.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  std::uint64_t Sample(SeedRng& rng) const {
    const double u = rng.Unit();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::uint64_t>(static_cast<std::uint64_t>(it - cdf_.begin()),
                                   cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Log-linear latency histogram: exact below 128 ns, then 64 sub-buckets per
// power of two (<= 1.6% bucket width).  Fixed size, so a worker can record
// into its own copy without allocating; copies merge by addition.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kLinear = 2ull << kSubBits;  // 128
  static constexpr int kBuckets = static_cast<int>(kLinear) + (64 - kSubBits - 1) * (1 << kSubBits);

  static int BucketOf(std::uint64_t v) {
    if (v < kLinear) {
      return static_cast<int>(v);
    }
    const int exp = std::bit_width(v) - 1;  // >= kSubBits + 1
    const int sub = static_cast<int>((v >> (exp - kSubBits)) & ((1 << kSubBits) - 1));
    return static_cast<int>(kLinear) + (exp - kSubBits - 1) * (1 << kSubBits) + sub;
  }
  // Inclusive lower bound and exclusive upper bound of a bucket's values.
  static double BucketLow(int b) {
    if (b < static_cast<int>(kLinear)) {
      return b;
    }
    const int rel = b - static_cast<int>(kLinear);
    const int exp = rel / (1 << kSubBits) + kSubBits + 1;
    const int sub = rel % (1 << kSubBits);
    return std::ldexp(1.0, exp) + sub * std::ldexp(1.0, exp - kSubBits);
  }
  static double BucketHigh(int b) {
    if (b < static_cast<int>(kLinear)) {
      return b + 1;
    }
    const int exp = (b - static_cast<int>(kLinear)) / (1 << kSubBits) + kSubBits + 1;
    return BucketLow(b) + std::ldexp(1.0, exp - kSubBits);
  }

  void Record(std::uint64_t v) {
    ++counts_[static_cast<std::size_t>(BucketOf(v))];
    ++total_;
  }
  void Merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += o.counts_[i];
    }
    total_ += o.total_;
  }
  std::uint64_t count() const { return total_; }

  // Value at quantile q in [0, 1], interpolated linearly inside the bucket
  // holding the rank (rank q*count, as a continuous position).  0 if empty.
  double Percentile(double q) const {
    if (total_ == 0) {
      return 0;
    }
    const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(total_);
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const std::uint64_t c = counts_[static_cast<std::size_t>(b)];
      if (c == 0) {
        continue;
      }
      if (static_cast<double>(seen + c) >= target) {
        const double frac = (target - static_cast<double>(seen)) / static_cast<double>(c);
        return BucketLow(b) + std::clamp(frac, 0.0, 1.0) * (BucketHigh(b) - BucketLow(b));
      }
      seen += c;
    }
    return BucketHigh(kBuckets - 1);
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

// Same interpolation over the library's log2 buckets (bucket 0 = {0},
// bucket i = [2^(i-1), 2^i)), for registry histogram snapshots.
template <typename Buckets>
double Log2BucketPercentile(const Buckets& buckets, std::uint64_t count, double q) {
  if (count == 0) {
    return 0;
  }
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const std::uint64_t c = buckets[b];
    if (c == 0) {
      continue;
    }
    if (static_cast<double>(seen + c) >= target) {
      const double low = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
      const double high = b == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(b));
      const double frac = (target - static_cast<double>(seen)) / static_cast<double>(c);
      return low + std::clamp(frac, 0.0, 1.0) * (high - low);
    }
    seen += c;
  }
  return std::ldexp(1.0, static_cast<int>(buckets.size()) - 1);
}

// Nearest-rank percentile of exact samples (the ceil(q*n)-th smallest).
inline double ExactPercentile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  auto rank = static_cast<std::size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return static_cast<double>(v[rank - 1]);
}

// Median; the mean of the middle pair for even sizes.  0 if empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The paper's fairness factor (Section 7.1.1): ops of the busiest half of the
// threads (rounded up) over all ops.  0.5 is perfectly fair, 1.0 means one
// half did everything; a single thread reads 1.0.
inline double FairnessFactor(std::vector<std::uint64_t> per_thread) {
  const std::uint64_t total = std::accumulate(per_thread.begin(), per_thread.end(), std::uint64_t{0});
  if (total == 0) {
    return 0.5;
  }
  std::sort(per_thread.begin(), per_thread.end(), std::greater<>());
  const std::size_t half = (per_thread.size() + 1) / 2;
  const std::uint64_t top = std::accumulate(per_thread.begin(),
                                            per_thread.begin() + static_cast<std::ptrdiff_t>(half),
                                            std::uint64_t{0});
  return static_cast<double>(top) / static_cast<double>(total);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
