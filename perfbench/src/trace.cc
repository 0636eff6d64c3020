#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::uint32_t Tracer::Intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<std::uint32_t>(it - names_.begin());
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

SpanBuffer& Tracer::NewBuffer(std::size_t capacity) {
  const std::uint64_t id_base =
      (static_cast<std::uint64_t>(pass_ + 1) << 56) | (static_cast<std::uint64_t>(buffers_.size() + 1) << 40);
  buffers_.push_back(std::make_unique<SpanBuffer>(id_base, capacity));
  return *buffers_.back();
}

std::vector<std::uint64_t> Tracer::Durations(const std::string& name) const {
  std::vector<std::uint64_t> out;
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) {
    return out;
  }
  const auto id = static_cast<std::uint32_t>(it - names_.begin());
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) {
      if (s.name == id) {
        out.push_back(s.end_ns - s.start_ns);
      }
    }
  }
  return out;
}

std::uint64_t Tracer::SpanCount() const {
  std::uint64_t n = 0;
  for (const auto& b : buffers_) {
    n += b->spans().size();
  }
  return n;
}

std::uint64_t Tracer::Dropped() const {
  std::uint64_t n = 0;
  for (const auto& b : buffers_) {
    n += b->dropped();
  }
  return n;
}

void Tracer::WriteChromeJson(const std::string& path, const std::vector<const Tracer*>& passes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("perfbench: cannot write trace file " + path);
  }
  // Host timestamps are shown relative to the earliest host span.
  std::uint64_t origin = ~std::uint64_t{0};
  for (const Tracer* t : passes) {
    for (const auto& b : t->buffers_) {
      for (const Span& s : b->spans()) {
        origin = t->sim_clock_ ? origin : std::min(origin, s.start_ns);
      }
    }
  }
  std::fputs("{\"traceEvents\": [", f);
  const char* sep = "\n";
  for (const Tracer* t : passes) {
    const unsigned pid = t->pass_ + 1;
    std::fprintf(f, "%s{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %u, \"args\": {\"name\": \"%s%s\"}}",
                 sep, pid, t->label_.c_str(), t->sim_clock_ ? " (simulated ns)" : "");
    sep = ",\n";
    const std::uint64_t base = t->sim_clock_ ? 0 : origin;
    for (std::size_t tid = 0; tid < t->buffers_.size(); ++tid) {
      for (const Span& s : t->buffers_[tid]->spans()) {
        std::fprintf(f,
                     ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %u, \"tid\": %zu, \"ts\": %.3f, "
                     "\"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu, \"op\": %llu}}",
                     t->names_[s.name].c_str(), pid, tid, static_cast<double>(s.start_ns - base) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.op));
      }
    }
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) {
    throw std::runtime_error("perfbench: error writing trace file " + path);
  }
}

}  // namespace perfbench
