#include "harness/report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace cna::harness {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// JSON number: finite shortest-ish representation (NaN/inf are not JSON --
// clamp to 0, a bench value that is NaN is already a bug the tables show).
void AppendNumber(std::ostringstream& os, double v) {
  if (!(v == v) || v > 1e308 || v < -1e308) {
    os << 0;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  os << buf;
}

// Accumulator behind CNA_BENCH_JSON.  A process runs one bench, so one
// global document; guarded for the real-thread benches that Emit() from
// driver code while a background sampler runs.
struct BenchJsonState {
  std::mutex mu;
  std::string bench_name;
  std::string config;
  std::vector<std::string> tables;       // SeriesTable::ToJson() fragments
  std::vector<std::string> rate_curves;  // pre-rendered curve objects
  std::vector<std::string> phases;       // pre-rendered phase-CPU objects
  bool atexit_registered = false;

  static BenchJsonState& Get() {
    static BenchJsonState state;
    return state;
  }

  // Must be called with mu held.
  void EnsureAtExitLocked() {
    if (!atexit_registered) {
      atexit_registered = true;
      std::atexit([] { FlushBenchJson(); });
    }
  }
};

std::string RenderBenchJsonLocked(BenchJsonState& s) {
  std::ostringstream os;
  os << "{\"schema_version\":1,\"bench\":\"" << JsonEscape(s.bench_name)
     << "\",\"config\":\"" << JsonEscape(s.config) << "\",\"tables\":[";
  for (std::size_t i = 0; i < s.tables.size(); ++i) {
    if (i > 0) {
      os << ',';
    }
    os << s.tables[i];
  }
  os << "],\"rate_curves\":[";
  for (std::size_t i = 0; i < s.rate_curves.size(); ++i) {
    if (i > 0) {
      os << ',';
    }
    os << s.rate_curves[i];
  }
  os << "],\"phases\":[";
  for (std::size_t i = 0; i < s.phases.size(); ++i) {
    if (i > 0) {
      os << ',';
    }
    os << s.phases[i];
  }
  os << "]}";
  return os.str();
}

}  // namespace

std::vector<std::string> WithPercentileColumns(std::vector<std::string> names,
                                               const std::string& prefix) {
  names.push_back(prefix + " p50us");
  names.push_back(prefix + " p99us");
  names.push_back(prefix + " p999us");
  return names;
}

void AppendPercentiles(std::vector<double>& values,
                       const telemetry::HistogramSnapshot& h) {
  values.push_back(static_cast<double>(h.P50()) / 1000.0);
  values.push_back(static_cast<double>(h.P99()) / 1000.0);
  values.push_back(static_cast<double>(h.P999()) / 1000.0);
}

SeriesTable::SeriesTable(std::string title, std::string x_label,
                         std::vector<std::string> series_names)
    : title_(std::move(title)),
      x_label_(std::move(x_label)),
      series_(std::move(series_names)) {}

void SeriesTable::AddRow(double x, const std::vector<double>& values) {
  rows_.emplace_back(x, values);
}

std::string SeriesTable::ToText(int value_precision) const {
  std::ostringstream os;
  os << "# " << title_ << "\n";
  // Columns are 12 wide, wider where a series name needs it, so a long
  // name never runs into its neighbour.
  std::vector<int> widths;
  for (const auto& s : series_) {
    widths.push_back(std::max(12, static_cast<int>(s.size()) + 2));
  }
  os << std::left << std::setw(12) << x_label_;
  for (std::size_t i = 0; i < series_.size(); ++i) {
    os << std::right << std::setw(widths[i]) << series_[i];
  }
  os << "\n";
  os << std::fixed << std::setprecision(value_precision);
  for (const auto& [x, values] : rows_) {
    std::ostringstream xs;
    if (x == static_cast<double>(static_cast<long long>(x))) {
      xs << static_cast<long long>(x);
    } else {
      xs << x;
    }
    os << std::left << std::setw(12) << xs.str();
    for (std::size_t i = 0; i < values.size(); ++i) {
      os << std::right << std::setw(i < widths.size() ? widths[i] : 12)
         << values[i];
    }
    os << "\n";
  }
  return os.str();
}

std::string SeriesTable::ToCsv(int value_precision) const {
  std::ostringstream os;
  os << "figure," << x_label_;
  for (const auto& s : series_) {
    os << "," << s;
  }
  os << "\n";
  for (const auto& [x, values] : rows_) {
    os << '"' << title_ << '"' << ",";
    if (x == static_cast<double>(static_cast<long long>(x))) {
      os << static_cast<long long>(x);
    } else {
      os << x;
    }
    os << std::fixed << std::setprecision(value_precision);
    for (double v : values) {
      os << "," << v;
    }
    os << std::defaultfloat;
    os << "\n";
  }
  return os.str();
}

std::string SeriesTable::ToJson() const {
  std::ostringstream os;
  os << "{\"title\":\"" << JsonEscape(title_) << "\",\"x_label\":\""
     << JsonEscape(x_label_) << "\",\"series\":[";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (i > 0) {
      os << ',';
    }
    os << '"' << JsonEscape(series_[i]) << '"';
  }
  os << "],\"rows\":[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r > 0) {
      os << ',';
    }
    os << '[';
    AppendNumber(os, rows_[r].first);
    for (double v : rows_[r].second) {
      os << ',';
      AppendNumber(os, v);
    }
    os << ']';
  }
  os << "]}";
  return os.str();
}

void SeriesTable::Emit() const {
  std::fputs(ToText().c_str(), stdout);
  std::fputs("\n", stdout);
  std::fflush(stdout);
  if (const char* path = std::getenv("CNA_BENCH_CSV")) {
    std::ofstream out(path, std::ios::app);
    out << ToCsv();
  }
  BenchJsonState& s = BenchJsonState::Get();
  std::lock_guard<std::mutex> g(s.mu);
  s.tables.push_back(ToJson());
  s.EnsureAtExitLocked();
}

void SetBenchInfo(const std::string& name, const std::string& config) {
  BenchJsonState& s = BenchJsonState::Get();
  std::lock_guard<std::mutex> g(s.mu);
  s.bench_name = name;
  s.config = config;
  s.EnsureAtExitLocked();
}

ProcessCpu ProcessCpuNow() {
  ProcessCpu cpu;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    const auto tv_ns = [](const struct timeval& tv) {
      return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
             static_cast<std::uint64_t>(tv.tv_usec) * 1'000ull;
    };
    cpu.user_ns = tv_ns(ru.ru_utime);
    cpu.system_ns = tv_ns(ru.ru_stime);
  }
#endif
  return cpu;
}

void RecordPhaseCpu(const std::string& label, const ProcessCpu& before,
                    const ProcessCpu& after) {
  const std::uint64_t user =
      after.user_ns >= before.user_ns ? after.user_ns - before.user_ns : 0;
  const std::uint64_t sys = after.system_ns >= before.system_ns
                                ? after.system_ns - before.system_ns
                                : 0;
  std::ostringstream os;
  os << "{\"label\":\"" << JsonEscape(label) << "\",\"user_ns\":" << user
     << ",\"system_ns\":" << sys << "}";
  BenchJsonState& s = BenchJsonState::Get();
  std::lock_guard<std::mutex> g(s.mu);
  s.phases.push_back(os.str());
  s.EnsureAtExitLocked();
}

void RecordRateCurve(const std::string& metric, const std::string& label,
                     const std::vector<telemetry::RatePoint>& points) {
  std::ostringstream os;
  os << "{\"metric\":\"" << JsonEscape(metric) << "\",\"label\":\""
     << JsonEscape(label) << "\",\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) {
      os << ',';
    }
    os << '[' << points[i].ts_ns << ',';
    AppendNumber(os, points[i].per_sec);
    os << ']';
  }
  os << "]}";
  BenchJsonState& s = BenchJsonState::Get();
  std::lock_guard<std::mutex> g(s.mu);
  s.rate_curves.push_back(os.str());
  s.EnsureAtExitLocked();
}

std::string BenchJsonDocument() {
  BenchJsonState& s = BenchJsonState::Get();
  std::lock_guard<std::mutex> g(s.mu);
  return RenderBenchJsonLocked(s);
}

bool FlushBenchJson() {
  const char* path = std::getenv("CNA_BENCH_JSON");
  if (path == nullptr || *path == '\0') {
    return false;
  }
  BenchJsonState& s = BenchJsonState::Get();
  std::lock_guard<std::mutex> g(s.mu);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << RenderBenchJsonLocked(s) << '\n';
  return out.good();
}

void ResetBenchJson() {
  BenchJsonState& s = BenchJsonState::Get();
  std::lock_guard<std::mutex> g(s.mu);
  s.bench_name.clear();
  s.config.clear();
  s.tables.clear();
  s.rate_curves.clear();
  s.phases.clear();
}

}  // namespace cna::harness
