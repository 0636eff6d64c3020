#include "report.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>& Catalogue() {
  static const std::vector<MetricSpec> specs = {
      // End to end, on every workload, tracing off.
      {"setup_s", "s", "lower", false},
      {"ops_per_s", "1/s", "higher", false},
      {"cpu_ns_per_op", "ns", "lower", false},
      {"op_latency_p50_ns", "ns", "lower", false},
      {"op_latency_p99_ns", "ns", "lower", false},
      {"fairness_factor", "ratio", "lower", false},
      {"lock_state_bytes", "bytes", "lower", false},
      {"peak_rss_mb", "MB", "lower", false},
      // Per layer, from the traced run.
      {"locks.cna.lock_unlock_ns", "ns", "lower", true},
      {"locks.mcs.lock_unlock_ns", "ns", "lower", true},
      {"locks.cna.local_handover_ratio", "ratio", "higher", true},
      {"locks.cna.secondary_flush_ratio", "ratio", "lower", true},
      {"locks.cna.queue_alterations_per_release", "ratio", "lower", true},
      {"sim.remote_misses_per_op", "count", "lower", true},
      {"sim.socket_transfers_per_op", "count", "lower", true},
      {"sim.local_misses_per_op", "count", "lower", true},
      {"sim.spin_parks_per_op", "count", "lower", true},
      {"core.scoped_lock_ns", "ns", "lower", true},
      {"core.any_lock_ns", "ns", "lower", true},
      {"core.c_mutex_ns", "ns", "lower", true},
      {"locktable.guard_ns", "ns", "lower", true},
      {"locktable.multiguard2_ns", "ns", "lower", true},
      {"locktable.rw_shared_guard_ns", "ns", "lower", true},
      {"locktable.c_lock_unlock_ns", "ns", "lower", true},
      {"locktable.wait_ns_p50", "ns", "lower", true},
      {"locktable.wait_ns_p99", "ns", "lower", true},
      {"locktable.hold_ns_p50", "ns", "lower", true},
      {"locktable.hold_ns_p99", "ns", "lower", true},
      {"locktable.contended_ratio", "ratio", "lower", true},
      {"telemetry.guard_tax_ns", "ns", "lower", true},
      {"telemetry.scrape_us", "us", "lower", true},
      {"apps.kv.get_ns_p50", "ns", "lower", true},
      {"apps.kv.add_ns_p50", "ns", "lower", true},
      {"apps.kv.transfer_ns_p50", "ns", "lower", true},
      {"apps.kv.get_ns_p99", "ns", "lower", true},
      {"apps.kv.add_ns_p99", "ns", "lower", true},
      {"apps.kv.transfer_ns_p99", "ns", "lower", true},
      {"trace.kv_uncontended.ops_ratio", "ratio", "higher", true},
      {"trace.kv_hot_contended.ops_ratio", "ratio", "higher", true},
  };
  return specs;
}

const MetricSpec* FindMetric(const std::string& name) {
  for (const MetricSpec& m : Catalogue()) {
    if (name == m.name) {
      return &m;
    }
  }
  return nullptr;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) {
    throw std::logic_error("perfbench: non-finite metric value");
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void Report::Set(const std::string& name, double value, const std::string& note) {
  const MetricSpec* spec = FindMetric(name);
  if (spec == nullptr) {
    throw std::logic_error("perfbench: metric not in the catalogue: " + name);
  }
  values_[name] = value;
  std::printf("[%s] %s = %s %s%s%s\n", workload_.c_str(), name.c_str(), FormatNumber(value).c_str(),
              spec->unit, note.empty() ? "" : "  # ", note.c_str());
  std::fflush(stdout);
}

void Report::Info(const std::string& line) const {
  std::printf("[%s] %s\n", workload_.c_str(), line.c_str());
  std::fflush(stdout);
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  Info("CORRECTNESS CHECK FAILED: " + why);
}

std::string Report::FinalJson(bool per_layer) const {
  const std::uint64_t attempted = attempted_ == 0 ? 1 : attempted_;
  const std::uint64_t failed = correct_ ? 0 : attempted;
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : Catalogue()) {
    if (m.per_layer != per_layer) {
      continue;
    }
    const auto it = values_.find(m.name);
    if (it == values_.end()) {
      throw std::logic_error(std::string("perfbench: metric not measured: ") + m.name);
    }
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "\"" + std::string(m.name) + "\": {\"value\": " + FormatNumber(it->second) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
