// In-memory span tracing for the traced run.
//
// Spans are recorded by the benchmark's own code around each call it makes
// into a library layer.  Each span has a name, start, end, its parent span
// (0 for a root) and the id of the op it belongs to, so all spans of one op
// share an id.  Every recording thread (or simulated CPU) owns one
// preallocated SpanBuffer and is its only writer; a full buffer drops spans
// and counts them.  Spans are written out as Chrome trace-event JSON when the
// run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t name = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanBuffer {
 public:
  // `id_base` keeps span ids unique across the buffers and passes of a run.
  SpanBuffer(std::uint64_t id_base, std::size_t capacity) : id_base_(id_base) {
    spans_.reserve(capacity);
  }

  // Records a finished span and returns its id (0 when dropped).  A root span
  // (parent 0) passed op 0 starts a new op whose id is the span's own id.
  std::uint64_t Add(std::uint32_t name, std::uint64_t parent, std::uint64_t op,
                    std::uint64_t start_ns, std::uint64_t end_ns) {
    const std::uint64_t id = id_base_ | ++seq_;
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return 0;
    }
    spans_.push_back(Span{name, id, parent, op == 0 ? id : op, start_ns, end_ns});
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint64_t id_base_;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

// The spans of one pass: a workload run or the rung ladder.
class Tracer {
 public:
  // `sim_clock`: timestamps are simulated ns rather than host ns.
  Tracer(std::uint32_t pass, std::string label, bool sim_clock)
      : pass_(pass), label_(std::move(label)), sim_clock_(sim_clock) {}

  // Name and buffer registration happen before the traced region starts.
  std::uint32_t Intern(const std::string& name);
  SpanBuffer& NewBuffer(std::size_t capacity);

  // Durations (end - start) of every recorded span with this name.
  std::vector<std::uint64_t> Durations(const std::string& name) const;
  std::uint64_t SpanCount() const;
  std::uint64_t Dropped() const;

  // Writes the passes as Chrome trace-event JSON, one process per pass and
  // one thread per buffer; ids, parents and op ids go in "args".
  static void WriteChromeJson(const std::string& path, const std::vector<const Tracer*>& passes);

 private:
  std::uint32_t pass_;
  std::string label_;
  bool sim_clock_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
