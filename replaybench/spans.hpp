// In-memory span recorder for the traced benchmark run. Spans wrap the
// benchmark's own calls into each layer (load, parse, mutate, server start
// and stop, replay(), and the per-call decode/answer pass); nothing inside
// the program is instrumented. Single-threaded: spans nest strictly, so a
// span's parent is whatever was open when it started.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/clock.hpp"
#include "util/result.hpp"

namespace ldp::replaybench {

struct Span {
  std::string name;
  TimeNs start = 0;
  TimeNs end = 0;
  int64_t parent = -1;    ///< index of the enclosing span, -1 at top level
  int64_t query_id = -1;  ///< trace index of the query, -1 when not per query
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Switch recording on or off between spans (used to interleave traced
  /// and untraced set-ups in one run). Ignored while a span is open.
  void set_enabled(bool on) {
    if (open_.empty()) enabled_ = on;
  }

  /// Open a span; returns its id (-1 when disabled).
  int64_t open(const char* name, int64_t query_id = -1);
  void close(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: the summed self time (duration minus the time its
  /// direct children cover), in seconds.
  std::map<std::string, double> self_seconds() const;

  /// One JSON object per line: name, start_ns, end_ns, parent, query_id.
  Result<void> write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, int64_t query_id = -1)
      : rec_(rec), id_(rec.open(name, query_id)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int64_t id_;
};

}  // namespace ldp::replaybench
