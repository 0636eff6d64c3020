// perfbench: the repository's benchmark.
//
//   perfbench --workload <kv_uncontended|kv_hot_contended|sim_numa_kv>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 runs the named workload with tracing off and prints the
// end-to-end metrics.  --trace 1 runs the traced suite, which yields every
// per-layer metric: the rung ladder, a pass of each real-thread workload
// whose odd windows are traced (traced over untraced windows is the tracing
// overhead), a kv_hot_contended pass with contention stats, and an untraced
// and a traced simulator pass, which must agree exactly.  Spans are written
// to --trace-out.  Both modes check the workloads' outputs; a failed check
// fails every op of the run and the exit code is 1.
//
// --inject-fault makes an unaccounted write after the measured region, so
// the correctness checks must fail (used by the self-test).
// --list-metrics prints the metric catalogue, one JSON object per line.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <tuple>

#include "report.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool inject_fault = false;
  bool list_metrics = false;
};

Args Parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + flag);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--inject-fault") {
      a.inject_fault = true;
    } else if (flag == "--list-metrics") {
      a.list_metrics = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!a.list_metrics) {
    if (a.workload != "kv_uncontended" && a.workload != "kv_hot_contended" && a.workload != "sim_numa_kv") {
      throw std::invalid_argument("unknown --workload '" + a.workload + "'");
    }
    if (!have_seed || !(a.seconds > 0) || a.seconds > 120) {
      throw std::invalid_argument("--seed is required and --seconds must be in (0, 120]");
    }
  }
  return a;
}

// Simulated ns per host second of budget: a 32-CPU run simulates roughly
// this much per host second on a 2020s x86 core, so run length follows
// --seconds while the window stays a pure function of the arguments.
constexpr double kSimNsPerHostSecond = 60'000'000;

std::uint64_t SimWindowNs(double host_seconds) {
  return static_cast<std::uint64_t>(host_seconds * kSimNsPerHostSecond);
}

std::string Count(const char* what, std::uint64_t n) { return std::string(what) + "=" + std::to_string(n); }

void ReportKv(Report& rep, const KvSpec& spec, const KvPassResult& r, int setups) {
  rep.AddAttempted(r.ops);
  rep.Set("setup_s", r.setup_s, "median of " + std::to_string(setups) + " store builds + 64Ki-key prefills");
  rep.Set("ops_per_s", r.ops_per_s,
          "median of " + std::to_string(r.windows) + " windows; " + Count("workers", spec.workers) + " " +
              Count("ops", r.ops));
  rep.Set("cpu_ns_per_op", r.cpu_ns_per_op, "user+system CPU per op, median of windows");
  const std::string samples = Count("samples", r.latency_samples) + ", 1 op in 16, median of windows";
  rep.Set("op_latency_p50_ns", r.latency_p50_ns, samples);
  rep.Set("op_latency_p99_ns", r.latency_p99_ns, samples);
  rep.Set("fairness_factor", r.fairness, Count("workers", spec.workers));
  rep.Set("lock_state_bytes", r.lock_state_bytes, Count("stripes", spec.stripes));
  if (spec.scrape_period_ms > 0) {
    rep.Info("telemetry scrapes: " + std::to_string(r.scrape_us.size()) + ", median " +
             FormatNumber(Median(r.scrape_us)) + " us");
  }
  if (!r.failure.empty()) {
    rep.Fail(r.failure);
  }
}

void ReportSim(Report& rep, const SimPassResult& a, const SimPassResult& b, int setups) {
  rep.AddAttempted(a.ops + b.ops);
  rep.Set("setup_s", a.setup_s, "median of " + std::to_string(setups) + " machine + map builds");
  rep.Set("ops_per_s", a.ops_per_s,
          "simulated ops per simulated second; " + Count("ops", a.ops) + " " + Count("window_ns", a.window_ns));
  rep.Info("sim_ops_per_us = " + FormatNumber(a.ops_per_s / 1e6) + " ops/us");
  rep.Set("cpu_ns_per_op",
          static_cast<double>(SimCpus()) * static_cast<double>(a.window_ns) / static_cast<double>(a.ops),
          "simulated CPU time (every simulated CPU for the window) per op");
  rep.Info("host CPU per simulated op = " + FormatNumber(a.host_cpu_s * 1e9 / static_cast<double>(a.ops)) + " ns");
  rep.Set("op_latency_p50_ns", a.latency_p50_ns, "simulated ns, " + Count("samples", a.ops));
  rep.Set("op_latency_p99_ns", a.latency_p99_ns, "simulated ns, " + Count("samples", a.ops));
  rep.Set("fairness_factor", a.fairness, "sim_fairness; " + Count("simulated_cpus", SimCpus()));
  rep.Set("lock_state_bytes", a.lock_state_bytes, "one CNA lock word");
  rep.Info("simulated fingerprint: " + a.fingerprint);
  if (a.fingerprint != b.fingerprint) {
    rep.Fail("two runs with the same seed gave different simulated metrics: " + b.fingerprint);
  }
  for (const std::string& f : {a.failure, b.failure}) {
    if (!f.empty()) {
      rep.Fail(f);
    }
  }
}

void RunEndToEnd(const Args& args, Report& rep) {
  constexpr int kSetups = 31;
  if (args.workload == "sim_numa_kv") {
    // Two identical runs: the second is the determinism guard.
    const std::uint64_t window = SimWindowNs(args.seconds / 2);
    const SimPassResult a = RunSimPass(args.seed, window, kSetups, false, args.inject_fault, nullptr);
    const SimPassResult b = RunSimPass(args.seed, window, 1, false, false, nullptr);
    ReportSim(rep, a, b, kSetups);
  } else {
    const KvSpec spec = args.workload == "kv_uncontended" ? KvUncontended() : KvHotContended();
    KvPassOptions o;
    o.seconds = args.seconds;
    o.windows = 100;
    o.setups = kSetups;
    o.inject_fault = args.inject_fault;
    ReportKv(rep, spec, RunKvPass(spec, args.seed, o), kSetups);
  }
  rep.Set("peak_rss_mb", PeakRssMb(), "ru_maxrss of the whole run");
}

void RunTraced(const Args& args, Report& rep) {
  const double s = args.seconds;

  // Rung ladder.
  Tracer ladder_trace(0, "rung ladder", false);
  const LadderResult lad = RunLadder(args.seed, 0.2 * s, &ladder_trace);
  const std::string rounds = "median of " + std::to_string(lad.rounds) + " interleaved rounds";
  rep.Set("locks.cna.lock_unlock_ns", lad.cna_ns, rounds);
  rep.Set("locks.mcs.lock_unlock_ns", lad.mcs_ns, rounds);
  rep.Set("core.scoped_lock_ns", lad.scoped_ns, rounds);
  rep.Set("core.any_lock_ns", lad.any_lock_ns, rounds);
  rep.Set("core.c_mutex_ns", lad.c_mutex_ns, rounds);
  rep.Set("locktable.guard_ns", lad.guard_ns, rounds);
  rep.Set("locktable.multiguard2_ns", lad.multiguard2_ns, rounds);
  rep.Set("locktable.rw_shared_guard_ns", lad.rw_shared_guard_ns, rounds);
  rep.Set("locktable.c_lock_unlock_ns", lad.c_table_ns, rounds);
  rep.Set("telemetry.guard_tax_ns", lad.guard_latency_on_ns - lad.guard_ns,
          "Guard with latency on (" + FormatNumber(lad.guard_latency_on_ns) + " ns) minus off");

  // Real-thread workloads: one pass each whose odd windows are traced, and a
  // short kv_hot_contended pass with collect_stats for the contention ratio.
  auto pass = [&](const KvSpec& spec, Tracer* tracer, bool collect_stats, double share) {
    KvPassOptions o;
    o.seconds = share * s;
    o.windows = 20;
    o.setups = 1;
    o.collect_stats = collect_stats;
    o.tracer = tracer;
    KvPassResult r = RunKvPass(spec, args.seed, o);
    rep.AddAttempted(r.ops);
    if (!r.failure.empty()) {
      rep.Fail(std::string(spec.name) + ": " + r.failure);
    }
    return r;
  };
  const KvSpec unc = KvUncontended();
  const KvSpec hot = KvHotContended();
  Tracer unc_trace(1, "kv_uncontended (odd windows traced)", false);
  Tracer hot_trace(2, "kv_hot_contended (odd windows traced)", false);
  const KvPassResult unc_run = pass(unc, &unc_trace, false, 0.3);
  const KvPassResult hot_run = pass(hot, &hot_trace, false, 0.3);
  const KvPassResult hot_stats = pass(hot, nullptr, true, 0.1);

  // Span-duration percentiles, interpolated inside the histogram bucket so
  // whole-ns span lengths do not quantize the reading.
  for (const char* op : {"get", "add", "transfer"}) {
    const std::string span = std::string("apps.kv.") + op;
    for (const auto& [trace, q, metric, workload] :
         {std::tuple{&unc_trace, 0.50, span + "_ns_p50", "kv_uncontended"},
          std::tuple{&hot_trace, 0.99, span + "_ns_p99", "kv_hot_contended"}}) {
      LatencyHistogram h;
      for (std::uint64_t d : trace->Durations(span)) {
        h.Record(d);
      }
      rep.Set(metric, h.Percentile(q), std::string(workload) + ", " + Count("spans", h.count()));
    }
  }

  rep.Set("locktable.wait_ns_p50", hot_run.wait_p50_ns, Count("samples", hot_run.wait_samples));
  rep.Set("locktable.wait_ns_p99", hot_run.wait_p99_ns, Count("samples", hot_run.wait_samples));
  rep.Set("locktable.hold_ns_p50", hot_run.hold_p50_ns, Count("samples", hot_run.hold_samples));
  rep.Set("locktable.hold_ns_p99", hot_run.hold_p99_ns, Count("samples", hot_run.hold_samples));
  rep.Set("locktable.contended_ratio", hot_stats.contended_ratio, "collect_stats pass");
  rep.Set("telemetry.scrape_us", Median(hot_run.scrape_us),
          "Registry snapshot + Prometheus text, " + Count("scrapes", hot_run.scrape_us.size()));
  for (const auto& [metric, r] : {std::pair{"trace.kv_uncontended.ops_ratio", &unc_run},
                                  std::pair{"trace.kv_hot_contended.ops_ratio", &hot_run}}) {
    rep.Set(metric, r->traced_ops_per_s / r->untraced_ops_per_s,
            "traced windows " + FormatNumber(r->traced_ops_per_s) + " / untraced windows " +
                FormatNumber(r->untraced_ops_per_s) + " ops/s");
  }

  // Simulator: the default lock untraced, then the stats-collecting config
  // traced; the simulated metrics must agree exactly.
  Tracer sim_trace(3, "sim_numa_kv (traced)", true);
  const std::uint64_t window = SimWindowNs(0.1 * s);
  const SimPassResult plain = RunSimPass(args.seed, window, 1, false, false, nullptr);
  const SimPassResult traced = RunSimPass(args.seed, window, 1, true, false, &sim_trace);
  rep.AddAttempted(plain.ops + traced.ops);
  rep.Set("locks.cna.local_handover_ratio", traced.local_handover_ratio, Count("sim_ops", traced.ops));
  rep.Set("locks.cna.secondary_flush_ratio", traced.secondary_flush_ratio);
  rep.Set("locks.cna.queue_alterations_per_release", traced.queue_alterations_per_release);
  rep.Set("sim.remote_misses_per_op", plain.remote_misses_per_op);
  rep.Set("sim.socket_transfers_per_op", plain.socket_transfers_per_op);
  rep.Set("sim.local_misses_per_op", plain.local_misses_per_op);
  rep.Set("sim.spin_parks_per_op", plain.spin_parks_per_op);
  if (plain.fingerprint != traced.fingerprint) {
    rep.Fail("traced stats-config simulation diverged: " + plain.fingerprint + " vs " + traced.fingerprint);
  }
  for (const std::string& f : {plain.failure, traced.failure}) {
    if (!f.empty()) {
      rep.Fail("sim_numa_kv: " + f);
    }
  }

  const std::vector<const Tracer*> passes = {&ladder_trace, &unc_trace, &hot_trace, &sim_trace};
  std::uint64_t spans = 0, dropped = 0;
  for (const Tracer* t : passes) {
    spans += t->SpanCount();
    dropped += t->Dropped();
  }
  rep.Info("spans recorded: " + std::to_string(spans) + ", dropped (buffer full): " + std::to_string(dropped));
  if (!args.trace_out.empty()) {
    Tracer::WriteChromeJson(args.trace_out, passes);
    rep.Info("spans written to " + args.trace_out);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = Parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (args.list_metrics) {
    for (const MetricSpec& m : Catalogue()) {
      std::printf("{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", \"per_layer\": %s}\n", m.name,
                  m.unit, m.better, m.per_layer ? "true" : "false");
    }
    return 0;
  }
  try {
    Report rep(args.workload);
    if (args.trace) {
      RunTraced(args, rep);
    } else {
      RunEndToEnd(args, rep);
    }
    rep.Info(std::string("failed_op_ratio = ") + (rep.correct() ? "0" : "1"));
    std::printf("%s\n", rep.FinalJson(args.trace).c_str());
    return rep.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
