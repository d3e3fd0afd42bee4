// In-memory spans for the traced run. Spans are recorded only around
// calls into the engine's public entry points, kept in memory, and written
// out when the run ends.
#ifndef BRYQL_PERFBENCH_TRACE_H_
#define BRYQL_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

constexpr int32_t kNoParent = -1;

struct Span {
  const char* name = "";  // a string literal naming the layer boundary
  int32_t parent = kNoParent;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Single-threaded span recorder; concurrent callers use one each and
/// Append them together at the end.
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  int32_t Begin(const char* name, uint64_t request, int32_t parent) {
    spans_.push_back(Span{name, parent, request, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

  /// Moves `other`'s spans in, re-pointing their parent links.
  void Append(Tracer&& other);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Records one span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             int32_t parent = kNoParent)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals (clipped to the span), so children that
/// overlap — parallel work — are not subtracted twice.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

struct SpanTotals {
  size_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

/// Count, total and self time per span name.
std::map<std::string, SpanTotals> Summarize(const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON (one complete event per
/// span, with its parent and request id in "args"). False on I/O error.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // BRYQL_PERFBENCH_TRACE_H_
