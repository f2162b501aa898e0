// Self-test of the benchmark's own maths on hand-built EngineReports, and of
// the answer check on hand-built replies: the numbers the benchmark reports
// are only as good as these functions.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "bench_math.hpp"
#include "server/auth_server.hpp"
#include "spans.hpp"
#include "workloads.hpp"
#include "zone/parser.hpp"

namespace ldp::replaybench {
namespace {

using replay::EngineReport;
using replay::QueryOutcome;
using replay::SendRecord;

constexpr TimeNs kStart = 1000 * kSecond;  // replay_start (monotonic)
constexpr TimeNs kOrigin = 50 * kSecond;   // first trace timestamp

SendRecord answered(TimeNs trace_offset, TimeNs send_late, TimeNs latency) {
  SendRecord s;
  s.trace_time = kOrigin + trace_offset;
  s.send_time = kStart + trace_offset + send_late;
  s.latency = latency;
  s.outcome = QueryOutcome::Answered;
  return s;
}

SendRecord lost(TimeNs trace_offset) {
  SendRecord s;
  s.trace_time = kOrigin + trace_offset;
  s.send_time = kStart + trace_offset;
  s.outcome = QueryOutcome::TimedOut;
  return s;
}

EngineReport report_of(std::vector<SendRecord> sends) {
  EngineReport r;
  r.replay_start = kStart;
  r.sends = std::move(sends);
  return r;
}

std::vector<double> latencies(const EngineReport& r) {
  std::vector<double> out;
  for (const auto& t : timings_from(r, kOrigin)) out.push_back(latency_ms(t));
  return out;
}

TEST(BenchMath, LostQueriesMissEveryLimit) {
  // 98 answered in 1 ms, 2 lost: p50 and p98 are finite, p99 is missing.
  std::vector<SendRecord> sends;
  for (int i = 0; i < 98; ++i) sends.push_back(answered(i * kMilli, 0, kMilli));
  sends.push_back(lost(98 * kMilli));
  sends.push_back(lost(99 * kMilli));
  auto lat = latencies(report_of(sends));
  EXPECT_DOUBLE_EQ(percentile(lat, 0.50), 1.0);
  EXPECT_DOUBLE_EQ(percentile(lat, 0.98), 1.0);
  EXPECT_TRUE(std::isinf(percentile(lat, 0.99)));
  // Dropping the lost queries instead would hide them.
  lat.resize(98);
  EXPECT_DOUBLE_EQ(percentile(lat, 0.99), 1.0);
}

TEST(BenchMath, PercentileIsNearestRank) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 0.2), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 5);
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
}

TEST(BenchMath, LatencyAndLagCountFromTheDueTime) {
  // Due at +2 s, sent 5 ms late, answered 1 ms after the send: the open-loop
  // latency is 6 ms (the stall counts), the lag 5 ms.
  auto r = report_of({answered(2 * kSecond, 5 * kMilli, kMilli)});
  auto ts = timings_from(r, kOrigin);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].due, kStart + 2 * kSecond);
  EXPECT_DOUBLE_EQ(latency_ms(ts[0]), 6.0);
  EXPECT_DOUBLE_EQ(send_lag_ms(ts[0]), 5.0);
  // An early send is as wrong as a late one.
  auto early = timings_from(report_of({answered(kSecond, -3 * kMilli, kMilli)}), kOrigin);
  EXPECT_DOUBLE_EQ(send_lag_ms(early[0]), 3.0);
  EXPECT_DOUBLE_EQ(latency_ms(early[0]), -2.0);
}

TEST(BenchMath, RateErrorPerSecondWindow) {
  // 100 queries due in each of seconds 0..2 plus one at 3.0 s that closes
  // the third window. Five of second 1's queries slip into second 2.
  std::vector<SendRecord> sends;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 100; ++i) {
      TimeNs off = w * kSecond + i * 10 * kMilli;
      TimeNs late = (w == 1 && i >= 95) ? 60 * kMilli : 0;
      sends.push_back(answered(off, late, kMilli));
    }
  }
  sends.push_back(answered(3 * kSecond, 0, kMilli));
  auto err = rate_error_pct(timings_from(report_of(sends), kOrigin));
  ASSERT_EQ(err.size(), 3u);  // the partial window at 3 s is left out
  EXPECT_DOUBLE_EQ(err[0], 0.0);
  EXPECT_DOUBLE_EQ(err[1], 5.0);
  EXPECT_DOUBLE_EQ(err[2], 5.0);
  EXPECT_DOUBLE_EQ(percentile(err, 0.99), 5.0);
}

TEST(BenchMath, WindowedPercentileIgnoresAStalledWindow) {
  // Five one-second windows of 1000 queries answered in 1 ms; window 2 has
  // a 500 ms stall on 5% of its queries. The whole-run p99 is 1 ms, the
  // stalled window's p99 500 ms, and the median over windows 1 ms.
  std::vector<SendRecord> sends;
  for (int w = 0; w < 5; ++w)
    for (int i = 0; i < 1000; ++i) {
      TimeNs lat = (w == 2 && i < 50) ? 500 * kMilli : kMilli;
      sends.push_back(answered(w * kSecond + i * kMilli, 0, lat));
    }
  auto ts = timings_from(report_of(sends), kOrigin);
  auto lat_of = [](const QueryTiming& t) -> std::optional<double> { return latency_ms(t); };
  EXPECT_DOUBLE_EQ(windowed_percentile(ts, 0.99, 1000, lat_of), 1.0);
  std::vector<double> all;
  for (const auto& t : ts) all.push_back(latency_ms(t));
  EXPECT_DOUBLE_EQ(percentile(all, 0.99), 1.0);
  EXPECT_DOUBLE_EQ(percentile(all, 0.995), 500.0);
  // Windows below the sample floor do not count.
  EXPECT_TRUE(std::isnan(windowed_percentile(ts, 0.99, 1001, lat_of)));
  // Lost queries can be left out (answered-only tails) by returning nullopt.
  sends.push_back(lost(4 * kSecond + 999 * kMilli));
  auto answered_only = [](const QueryTiming& t) -> std::optional<double> {
    if (t.answered < 0) return std::nullopt;
    return latency_ms(t);
  };
  EXPECT_DOUBLE_EQ(
      windowed_percentile(timings_from(report_of(sends), kOrigin), 0.99, 1000, answered_only),
      1.0);
}

Books balanced() {
  Books b;
  b.scheduled = b.send_records = b.sent = 100;
  b.responses = 97;
  b.lost = 3;
  b.server_answered = 99;
  return b;
}

TEST(BenchMath, ConservationHoldsOnBalancedBooks) {
  EXPECT_TRUE(conservation_failures(balanced()).empty());
}

TEST(BenchMath, ConservationFailurePaths) {
  auto one_failure = [](Books b) {
    auto f = conservation_failures(b);
    EXPECT_EQ(f.size(), 1u);
    return f.empty() ? std::string() : f[0];
  };
  Books b = balanced();
  b.lost = 2;
  EXPECT_NE(one_failure(b).find("responses + lost != sent"), std::string::npos);

  b = balanced();
  b.fault_active = true;
  b.retries = 4;
  b.processed = 103;
  EXPECT_NE(one_failure(b).find("processed != sent + retries"), std::string::npos);
  b.processed = 104;
  EXPECT_TRUE(conservation_failures(b).empty());
  b.fault_active = false;  // without a fault spec nothing is processed
  b.processed = 0;
  EXPECT_TRUE(conservation_failures(b).empty());

  b = balanced();
  b.connections_consistent = false;
  EXPECT_NE(one_failure(b).find("ConnectionStats"), std::string::npos);

  b = balanced();
  b.server_answered = 96;
  EXPECT_NE(one_failure(b).find("server answered fewer"), std::string::npos);

  b = balanced();
  b.send_records = 99;
  EXPECT_NE(one_failure(b).find("send records"), std::string::npos);
}

// The server the benchmark runs, answering `qname`/`qtype` uncached: the
// reference reply, plus the query it answers.
struct Asked {
  std::vector<uint8_t> query;
  std::vector<uint8_t> reference;
};

Asked ask(const std::string& qname, dns::RRType qtype) {
  server::AuthServer auth;
  for (const auto& text : zone_texts()) {
    auto zone = zone::parse_zone(text);
    EXPECT_TRUE(zone.ok());
    EXPECT_TRUE(auth.default_zones().add(std::move(*zone)).ok());
  }
  Asked a;
  a.query = dns::Message::make_query(0x1234, *dns::Name::parse(qname), qtype, false).to_wire();
  auto reply = auth.answer_wire(a.query, IpAddr{Ip4{127, 0, 0, 1}}, 512);
  EXPECT_TRUE(reply.has_value());
  if (reply) a.reference = *reply;
  return a;
}

// Re-encode `reference` after `edit` changed it: a reply a faulty server
// (or a faulty cache) might send.
std::vector<uint8_t> edited(const std::vector<uint8_t>& reference,
                            const std::function<void(dns::Message&)>& edit) {
  auto msg = dns::Message::from_wire(reference);
  EXPECT_TRUE(msg.ok());
  edit(*msg);
  return msg->to_wire();
}

void expect_rejected(const Asked& a, const std::vector<uint8_t>& reply, const std::string& why) {
  auto bad = reply_mismatch(a.query, reply, a.reference);
  ASSERT_TRUE(bad.has_value()) << why;
  EXPECT_NE(bad->find(why), std::string::npos) << *bad;
}

TEST(AnswerCheck, AcceptsTheServersOwnAnswers) {
  for (auto [name, type] : {std::pair{"h3.example.com", dns::RRType::A},
                            std::pair{"h3.example.com", dns::RRType::AAAA},
                            std::pair{"www.no-such-tld", dns::RRType::A},
                            std::pair{"www.example.org", dns::RRType::A}}) {
    auto a = ask(name, type);
    EXPECT_EQ(reply_mismatch(a.query, a.reference, a.reference), std::nullopt) << name;
  }
}

TEST(AnswerCheck, RejectsWrongRdataUnderTheRightId) {
  auto a = ask("h3.example.com", dns::RRType::A);
  auto wrong = edited(a.reference, [](dns::Message& m) {
    ASSERT_FALSE(m.answers.empty());
    m.answers[0].rdata = *dns::Rdata::parse(dns::RRType::A, {"192.0.2.99"});
  });
  expect_rejected(a, wrong, "answer section");
}

TEST(AnswerCheck, RejectsEchoesAndWrongHeaders) {
  auto a = ask("h3.example.com", dns::RRType::A);
  expect_rejected(a, a.query, "QR");
  expect_rejected(a, edited(a.reference, [](dns::Message& m) { m.header.id ^= 1; }), "ID");
  expect_rejected(a, edited(a.reference, [](dns::Message& m) {
                    m.questions[0].qtype = dns::RRType::AAAA;
                  }),
                  "question");
  expect_rejected(a, edited(a.reference, [](dns::Message& m) {
                    m.header.rcode = dns::Rcode::NXDomain;
                  }),
                  "rcode");
  expect_rejected(a, edited(a.reference, [](dns::Message& m) { m.answers.clear(); }),
                  "answer section");

  auto nodata = ask("h3.example.com", dns::RRType::AAAA);
  expect_rejected(nodata,
                  edited(nodata.reference, [](dns::Message& m) { m.authorities.clear(); }),
                  "authority section");
  auto referral = ask("www.example.org", dns::RRType::A);
  expect_rejected(referral,
                  edited(referral.reference, [](dns::Message& m) { m.additionals.pop_back(); }),
                  "additional section");

  auto nx = ask("www.no-such-tld", dns::RRType::A);
  expect_rejected(nx, edited(nx.reference, [](dns::Message& m) {
                    m.header.rcode = dns::Rcode::NoError;
                  }),
                  "rcode");
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  SpanRecorder rec(true);
  auto root = rec.open("root");
  auto child = rec.open("child", 7);
  rec.close(child);
  rec.close(root);
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[1].query_id, 7);
  const auto& r = rec.spans()[0];
  const auto& c = rec.spans()[1];
  auto self = rec.self_seconds();
  EXPECT_DOUBLE_EQ(self["root"], ns_to_sec((r.end - r.start) - (c.end - c.start)));
  EXPECT_DOUBLE_EQ(self["child"], ns_to_sec(c.end - c.start));
}

TEST(Spans, DisabledRecorderRecordsNothing) {
  SpanRecorder rec(false);
  { ScopedSpan s(rec, "x"); }
  EXPECT_TRUE(rec.spans().empty());
  rec.set_enabled(true);
  { ScopedSpan s(rec, "y"); }
  EXPECT_EQ(rec.spans().size(), 1u);
}

}  // namespace
}  // namespace ldp::replaybench
