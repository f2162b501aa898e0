#include "spans.hpp"

#include <cstdio>
#include <memory>

namespace ldp::replaybench {

int64_t SpanRecorder::open(const char* name, int64_t query_id) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.query_id = query_id;
  s.start = mono_now_ns();
  spans_.push_back(std::move(s));
  auto id = static_cast<int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::close(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = mono_now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::vector<TimeNs> child_ns(spans_.size(), 0);
  for (const auto& s : spans_)
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += ns_to_sec(spans_[i].end - spans_[i].start - child_ns[i]);
  return out;
}

Result<void> SpanRecorder::write_jsonl(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return Err("cannot write " + path);
  for (const auto& s : spans_) {
    std::fprintf(f.get(),
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld,"
                 "\"query_id\":%lld}\n",
                 s.name.c_str(), static_cast<long long>(s.start),
                 static_cast<long long>(s.end), static_cast<long long>(s.parent),
                 static_cast<long long>(s.query_id));
  }
  if (std::fflush(f.get()) != 0) return Err("write failed: " + path);
  return Ok();
}

}  // namespace ldp::replaybench
