// The benchmark's workloads and the per-layer rung ladder.
//
// Every key and operation stream is generated from the run seed before its
// timed region starts; the library only ever sees the generated inputs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

// --- Host measurements ---

std::uint64_t HostNowNs();     // steady clock
std::uint64_t ProcessCpuNs();  // user + system CPU of the process (getrusage)
double PeakRssMb();            // ru_maxrss
int HostCpus();                // CPUs this process may run on

// --- Real-thread key-value workloads (apps::ShardedKv over LockTable<CNA>) ---

struct KvSpec {
  const char* name;
  int workers;                // OS threads running ops
  int virtual_sockets;        // workers are spread round-robin over these
  std::size_t stripes;
  double zipf_theta;          // 0 = uniform keys
  bool collect_latency;       // table wait/hold telemetry on
  int scrape_period_ms;       // main thread scrapes Prometheus text; 0 = off
};

KvSpec KvUncontended();
KvSpec KvHotContended();

struct KvPassOptions {
  double seconds = 1;          // measured time, split into windows
  int windows = 10;
  int setups = 5;              // store builds timed; the last one is measured
  bool collect_stats = false;  // table contention counters (traced run)
  bool inject_fault = false;   // an unaccounted write, to prove the check
  // Spans around sampled ops and scrapes.  Only odd windows record spans,
  // so adjacent untraced and traced windows give the tracing overhead.
  Tracer* tracer = nullptr;
};

struct KvPassResult {
  double setup_s = 0;          // median store build + prefill
  double ops_per_s = 0;        // median over windows
  double untraced_ops_per_s = 0, traced_ops_per_s = 0;  // even / odd windows
  double cpu_ns_per_op = 0;    // median over windows
  double latency_p50_ns = 0;   // median over windows of the sampled ops
  double latency_p99_ns = 0;
  std::uint64_t latency_samples = 0;
  double fairness = 0;
  double lock_state_bytes = 0;
  std::uint64_t ops = 0;       // every op run, warm-up included
  int windows = 0;
  // Telemetry-layer readings (kv_hot_contended).
  std::vector<double> scrape_us;
  double wait_p50_ns = 0, wait_p99_ns = 0, hold_p50_ns = 0, hold_p99_ns = 0;
  std::uint64_t wait_samples = 0, hold_samples = 0;
  double contended_ratio = 0;  // collect_stats only
  std::string failure;         // empty when every correctness check held
};

KvPassResult RunKvPass(const KvSpec& spec, std::uint64_t seed, const KvPassOptions& options);

// --- Simulated workload (the paper's Fig. 6 setting) ---

struct SimPassResult {
  double setup_s = 0;          // median machine + map build
  double host_cpu_s = 0;       // host CPU of the simulation run
  std::uint64_t ops = 0;
  std::uint64_t window_ns = 0;
  double ops_per_s = 0;        // simulated ops per simulated second
  double latency_p50_ns = 0;   // simulated ns, exact over every op
  double latency_p99_ns = 0;
  double fairness = 0;
  double lock_state_bytes = 0;
  double remote_misses_per_op = 0, socket_transfers_per_op = 0;
  double local_misses_per_op = 0, spin_parks_per_op = 0;
  // CNA event ratios; only with the stats-collecting lock config.
  double local_handover_ratio = 0, secondary_flush_ratio = 0, queue_alterations_per_release = 0;
  std::string fingerprint;     // every simulated quantity, for exact comparison
  std::string failure;
};

int SimCpus();
// `stats_config` runs the stats-collecting CNA config (which the simulator
// does not charge); a tracer records simulated-clock spans.
SimPassResult RunSimPass(std::uint64_t seed, std::uint64_t window_ns, int setups, bool stats_config,
                         bool inject_fault, Tracer* tracer);

// --- Rung ladder: one uncontended lock+unlock at each layer of the stack ---

struct LadderResult {
  double cna_ns = 0, mcs_ns = 0, scoped_ns = 0, any_lock_ns = 0, c_mutex_ns = 0;
  double guard_ns = 0, multiguard2_ns = 0, rw_shared_guard_ns = 0, c_table_ns = 0;
  double guard_latency_on_ns = 0;
  int rounds = 0;
};

LadderResult RunLadder(std::uint64_t seed, double seconds, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
