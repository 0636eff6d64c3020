// Metric catalogue and result reporting.
//
// Every metric the benchmark can print is listed once here with its unit and
// direction; BENCHMARK.json mirrors this table (the self-test checks that).
// A run prints one human-readable line per metric as it is measured and, as
// its last line, the JSON object the benchmark contract asks for.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
  bool per_layer;      // printed by the traced run; else by the untraced run
};

const std::vector<MetricSpec>& Catalogue();
const MetricSpec* FindMetric(const std::string& name);

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  // Records a catalogued metric and prints it; `note` carries sample counts
  // and other context.  Throws std::logic_error for an unknown name.
  void Set(const std::string& name, double value, const std::string& note = "");
  // Prints a line that is not a metric (aliases, ratios with their bases).
  void Info(const std::string& line) const;

  // Ops attempted and failed: a failed correctness check fails every op of
  // the run.
  void AddAttempted(std::uint64_t n) { attempted_ += n; }
  void Fail(const std::string& why);
  bool correct() const { return correct_; }

  // The final line.  `per_layer` selects which half of the catalogue must be
  // present; a missing metric is a logic error.
  std::string FinalJson(bool per_layer) const;

 private:
  std::string workload_;
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  bool correct_ = true;
};

// Shortest round-trip decimal form of a double, for the JSON line.
std::string FormatNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
