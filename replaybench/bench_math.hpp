// The replay benchmark's own maths, kept apart from the main program so the
// self-test can run it on hand-built EngineReports:
//  * per-query timing measured from each query's *due* time (open loop: a
//    stall that delays later sends shows up in their latency);
//  * percentiles in which a lost query counts as missing every limit;
//  * the per-second rate error of Figure 8;
//  * the conservation checks every run must pass before it reports numbers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "replay/engine.hpp"

namespace ldp::replaybench {

/// Latency of a query that was never answered: it misses every limit.
inline constexpr double kMissing = std::numeric_limits<double>::infinity();

/// One scheduled query as seen from outside the engine (monotonic ns).
struct QueryTiming {
  TimeNs due = 0;        ///< when the trace said to send it
  TimeNs sent = 0;       ///< first send
  TimeNs answered = -1;  ///< matched answer; -1 if never answered
};

/// Map the engine's send records onto the due-time timeline:
/// due = replay_start + (trace_time - trace_origin), where trace_origin is
/// the timestamp of the first record handed to replay() (the engine latches
/// its clock there, schedule.hpp).
inline std::vector<QueryTiming> timings_from(const replay::EngineReport& r,
                                             TimeNs trace_origin) {
  std::vector<QueryTiming> out;
  out.reserve(r.sends.size());
  for (const auto& s : r.sends) {
    QueryTiming t;
    t.due = r.replay_start + (s.trace_time - trace_origin);
    t.sent = s.send_time;
    if (s.outcome == replay::QueryOutcome::Answered && s.latency >= 0)
      t.answered = s.send_time + s.latency;
    out.push_back(t);
  }
  return out;
}

/// Due-to-answer latency in ms; kMissing for a lost query.
inline double latency_ms(const QueryTiming& t) {
  return t.answered < 0 ? kMissing : ns_to_ms(t.answered - t.due);
}

/// How far the generator strayed from the schedule, in ms (Fig 6).
inline double send_lag_ms(const QueryTiming& t) {
  return std::abs(ns_to_ms(t.sent - t.due));
}

/// Nearest-rank percentile (q in (0, 1]); NaN for an empty sample. Values
/// may hold kMissing, which sorts last, so a percentile whose rank falls
/// among the lost queries is itself kMissing.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

/// Tail of a noisy host, made steady: split the queries into one-second
/// windows by due time, take the q-percentile of `value` in each window
/// that holds at least `min_samples` values, and return the median of those
/// per-window percentiles. A stall confined to a few windows (a vCPU
/// descheduled, the replay's start-up) moves the whole-run tail but not
/// this one; a slowdown of every second moves both. `value` returns
/// nullopt for a query that does not count.
template <class Value>
double windowed_percentile(const std::vector<QueryTiming>& ts, double q, size_t min_samples,
                           Value value) {
  if (ts.empty()) return std::numeric_limits<double>::quiet_NaN();
  TimeNs origin = ts.front().due;
  for (const auto& t : ts) origin = std::min(origin, t.due);
  std::vector<std::vector<double>> windows;
  for (const auto& t : ts) {
    std::optional<double> v = value(t);
    if (!v.has_value()) continue;
    auto w = static_cast<size_t>((t.due - origin) / kSecond);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(*v);
  }
  std::vector<double> tails;
  for (auto& w : windows)
    if (w.size() >= min_samples) tails.push_back(percentile(std::move(w), q));
  return tails.empty() ? std::numeric_limits<double>::quiet_NaN() : median(std::move(tails));
}

/// Per-second rate error (Fig 8): for each whole one-second window after
/// the first due time, |sends in the window - queries due in it| as a
/// percentage of the queries due in it. The partial last window is left
/// out; windows with nothing due are skipped.
inline std::vector<double> rate_error_pct(const std::vector<QueryTiming>& ts) {
  if (ts.empty()) return {};
  TimeNs origin = ts.front().due;
  TimeNs last_due = origin;
  for (const auto& t : ts) {
    origin = std::min(origin, t.due);
    last_due = std::max(last_due, t.due);
  }
  const auto windows = static_cast<size_t>((last_due - origin) / kSecond);
  std::vector<uint64_t> due(windows, 0), sent(windows, 0);
  auto bump = [&](std::vector<uint64_t>& counts, TimeNs at) {
    if (at < origin) return;
    auto w = static_cast<size_t>((at - origin) / kSecond);
    if (w < windows) ++counts[w];
  };
  for (const auto& t : ts) {
    bump(due, t.due);
    bump(sent, t.sent);
  }
  std::vector<double> out;
  for (size_t w = 0; w < windows; ++w) {
    if (due[w] == 0) continue;
    double diff = std::abs(static_cast<double>(sent[w]) - static_cast<double>(due[w]));
    out.push_back(100.0 * diff / static_cast<double>(due[w]));
  }
  return out;
}

/// Counters the conservation checks read, gathered from the engine report
/// and the server after it stopped.
struct Books {
  uint64_t scheduled = 0;        ///< query records handed to replay()
  uint64_t send_records = 0;     ///< EngineReport::sends.size()
  uint64_t sent = 0;             ///< EngineReport::queries_sent
  uint64_t responses = 0;        ///< EngineReport::responses_received
  uint64_t lost = 0;             ///< EngineReport::lost()
  uint64_t retries = 0;          ///< lifecycle.retries
  uint64_t processed = 0;        ///< impairments.processed
  bool fault_active = false;     ///< a fault spec was configured
  bool connections_consistent = true;  ///< server ConnectionStats::consistent()
  uint64_t server_answered = 0;  ///< ServerStats::responses
};

/// Every broken invariant, as one line each; empty when the books balance.
inline std::vector<std::string> conservation_failures(const Books& b) {
  std::vector<std::string> out;
  auto n = [](uint64_t v) { return std::to_string(v); };
  if (b.responses + b.lost != b.sent)
    out.push_back("responses + lost != sent (" + n(b.responses) + " + " + n(b.lost) +
                  " != " + n(b.sent) + ")");
  if (b.fault_active && b.processed != b.sent + b.retries)
    out.push_back("processed != sent + retries (" + n(b.processed) + " != " + n(b.sent) +
                  " + " + n(b.retries) + ")");
  if (!b.connections_consistent)
    out.push_back("server ConnectionStats inconsistent (accepted != established + closed)");
  if (b.server_answered < b.responses)
    out.push_back("server answered fewer than the client matched (" + n(b.server_answered) +
                  " < " + n(b.responses) + ")");
  if (b.send_records != b.scheduled)
    out.push_back("send records != scheduled queries (" + n(b.send_records) +
                  " != " + n(b.scheduled) + ")");
  return out;
}

}  // namespace ldp::replaybench
