// Self-test of the benchmark's aggregation and reporting: percentiles,
// medians, the fairness factor, the metric catalogue, the final JSON line
// (including the failed-check path) and span bookkeeping.
// Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.h"
#include "stats.h"
#include "trace.h"

namespace {

int g_checks = 0;

#define CHECK(cond)                                                          \
  do {                                                                       \
    ++g_checks;                                                              \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      std::exit(1);                                                          \
    }                                                                        \
  } while (0)

bool Near(double a, double b, double rel) { return std::fabs(a - b) <= rel * std::fabs(b); }

void TestLatencyHistogram() {
  using perfbench::LatencyHistogram;
  // Every value falls inside its bucket's [low, high).
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 129ull, 255ull, 256ull, 1000ull, 123456789ull,
                          (1ull << 62) + 12345}) {
    const int b = LatencyHistogram::BucketOf(v);
    CHECK(b >= 0 && b < LatencyHistogram::kBuckets);
    CHECK(LatencyHistogram::BucketLow(b) <= static_cast<double>(v));
    CHECK(static_cast<double>(v) < LatencyHistogram::BucketHigh(b));
  }
  LatencyHistogram empty;
  CHECK(empty.Percentile(0.5) == 0);

  // Uniform 1..10000: interpolated percentiles within the 1.6% bucket width.
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) {
    h.Record(v);
  }
  CHECK(h.count() == 10000);
  CHECK(Near(h.Percentile(0.50), 5000, 0.02));
  CHECK(Near(h.Percentile(0.99), 9900, 0.02));
  // Exact region: 100 copies each of 10 and 20 -> p50 inside bucket 10.
  LatencyHistogram two;
  for (int i = 0; i < 100; ++i) {
    two.Record(10);
    two.Record(20);
  }
  CHECK(two.Percentile(0.25) >= 10 && two.Percentile(0.25) < 11);
  CHECK(two.Percentile(0.99) >= 20 && two.Percentile(0.99) < 21);
  // Merging is addition.
  LatencyHistogram merged = h;
  merged.Merge(two);
  CHECK(merged.count() == 10200);
}

void TestLog2Percentile() {
  std::vector<std::uint64_t> buckets(48, 0);
  buckets[4] = 50;  // [8, 16)
  buckets[6] = 50;  // [32, 64)
  CHECK(perfbench::Log2BucketPercentile(buckets, 100, 0.25) == 12);  // middle of [8, 16)
  CHECK(perfbench::Log2BucketPercentile(buckets, 100, 0.75) == 48);  // middle of [32, 64)
  CHECK(perfbench::Log2BucketPercentile(buckets, 0, 0.5) == 0);
}

void TestExactPercentileAndMedian() {
  std::vector<std::uint64_t> v = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  CHECK(perfbench::ExactPercentile(v, 0.50) == 5);   // ceil(5) -> 5th smallest
  CHECK(perfbench::ExactPercentile(v, 0.99) == 10);  // ceil(9.9) -> 10th
  CHECK(perfbench::ExactPercentile(v, 0.0) == 1);
  CHECK(perfbench::ExactPercentile({}, 0.5) == 0);
  CHECK(perfbench::Median({3, 1, 2}) == 2);
  CHECK(perfbench::Median({4, 1, 3, 2}) == 2.5);
  CHECK(perfbench::Median({}) == 0);
}

void TestFairness() {
  using perfbench::FairnessFactor;
  CHECK(FairnessFactor({}) == 0.5);
  CHECK(FairnessFactor({7}) == 1.0);
  CHECK(FairnessFactor({5, 5}) == 0.5);
  CHECK(FairnessFactor({1, 3}) == 0.75);
  CHECK(FairnessFactor({2, 4, 2}) == 0.75);  // busiest half of 3 rounds up to 2
  CHECK(FairnessFactor({1, 1, 1, 1}) == 0.5);
  CHECK(FairnessFactor({0, 0, 0, 8}) == 1.0);
}

void TestGenerators() {
  perfbench::SeedRng a(42), b(42), c(43);
  const std::uint64_t x = a.Next();
  CHECK(x == b.Next());
  CHECK(x != c.Next());
  CHECK(perfbench::SubSeed(1, 0) != perfbench::SubSeed(1, 1));
  perfbench::Zipf zipf(1000, 0.99);
  perfbench::SeedRng rng(7);
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    ++hits[zipf.Sample(rng)];
  }
  CHECK(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[999]);
}

void TestCatalogue() {
  std::set<std::string> names;
  int end_to_end = 0;
  bool setup = false;
  for (const perfbench::MetricSpec& m : perfbench::Catalogue()) {
    const std::string name = m.name;
    CHECK(names.insert(name).second);
    CHECK(!name.empty() && name.size() <= 64);
    for (char ch : name) {
      CHECK(std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' || ch == '.' || ch == '-');
    }
    CHECK(std::string(m.unit).size() >= 1 && std::string(m.unit).size() <= 16);
    CHECK(std::string(m.better) == "lower" || std::string(m.better) == "higher");
    end_to_end += m.per_layer ? 0 : 1;
    setup |= name == "setup_s" && std::string(m.unit) == "s" && std::string(m.better) == "lower" && !m.per_layer;
    CHECK(perfbench::FindMetric(name) == &m);
  }
  CHECK(setup);
  CHECK(end_to_end >= 1 && end_to_end <= 16);
  CHECK(perfbench::FindMetric("no.such.metric") == nullptr);
}

void SetAll(perfbench::Report& rep, bool per_layer) {
  for (const perfbench::MetricSpec& m : perfbench::Catalogue()) {
    if (m.per_layer == per_layer) {
      rep.Set(m.name, 1.25);
    }
  }
}

void TestReport() {
  // Unknown metric names and missing metrics are programming errors.
  perfbench::Report rep("selftest");
  bool threw = false;
  try {
    rep.Set("no.such.metric", 1);
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    (void)rep.FinalJson(false);
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);

  // A passing run: failed is 0, units come from the catalogue.
  SetAll(rep, false);
  rep.AddAttempted(1000);
  const std::string ok = rep.FinalJson(false);
  CHECK(ok.rfind("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {", 0) == 0);
  CHECK(ok.find("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}") != std::string::npos);
  CHECK(ok.find("locks.cna.lock_unlock_ns") == std::string::npos);

  // A failed correctness check fails every attempted op.
  rep.Fail("injected");
  CHECK(!rep.correct());
  const std::string bad = rep.FinalJson(false);
  CHECK(bad.rfind("{\"correct\": false, \"attempted\": 1000, \"failed\": 1000,", 0) == 0);

  // The traced line carries exactly the per-layer half.
  perfbench::Report traced("selftest");
  SetAll(traced, true);
  const std::string t = traced.FinalJson(true);
  CHECK(t.find("\"attempted\": 1,") != std::string::npos);  // never 0
  CHECK(t.find("locks.cna.lock_unlock_ns") != std::string::npos);
  CHECK(t.find("\"setup_s\"") == std::string::npos);

  CHECK(perfbench::FormatNumber(0.1) == "0.1");
  CHECK(perfbench::FormatNumber(1234567.875) == "1234567.875");
}

void TestSpans() {
  perfbench::Tracer tracer(0, "selftest", false);
  const std::uint32_t op = tracer.Intern("op");
  const std::uint32_t child = tracer.Intern("child");
  CHECK(tracer.Intern("op") == op);
  perfbench::SpanBuffer& buf = tracer.NewBuffer(3);
  const std::uint64_t root = buf.Add(op, 0, 0, 100, 200);
  CHECK(root != 0);
  const std::uint64_t c = buf.Add(child, root, root, 120, 150);
  CHECK(c != 0 && c != root);
  CHECK(buf.spans()[0].op == root && buf.spans()[1].op == root && buf.spans()[1].parent == root);
  CHECK(buf.Add(op, 0, 0, 300, 310) != 0);
  CHECK(buf.Add(op, 0, 0, 400, 410) == 0);  // full: dropped and counted
  CHECK(tracer.Dropped() == 1 && tracer.SpanCount() == 3);
  const std::vector<std::uint64_t> d = tracer.Durations("op");
  CHECK(d.size() == 2 && d[0] == 100 && d[1] == 10);
  CHECK(tracer.Durations("missing").empty());
}

}  // namespace

int main() {
  TestLatencyHistogram();
  TestLog2Percentile();
  TestExactPercentileAndMedian();
  TestFairness();
  TestGenerators();
  TestCatalogue();
  TestReport();
  TestSpans();
  std::printf("perfbench selftest: %d checks passed\n", g_checks);
  return 0;
}
