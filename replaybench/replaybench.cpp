// Replay benchmark binary. Two subcommands, run as separate processes so
// trace generation never inflates the measured process's peak RSS:
//
//   replaybench gen --workload W --seed N --seconds S --out FILE [--rate-qps R]
//       Generate the workload's trace from the seed and save it as .ldpb.
//   replaybench run --workload W --in FILE [--traced] [--spans FILE]
//       Load the trace, set up the server and replay it open-loop against
//       an in-process BackgroundServer on loopback; print one JSON object
//       (every metric, the correctness verdict and the run's stamps) as the
//       last line of stdout. Exit 1 when a correctness check fails.
//
// Every number is taken from outside the program: wall time around calls
// into each module's public functions, and the counters those functions
// already return (EngineReport, net::io_counters(), ServerStats,
// ResponseCache::Stats, ConnectionStats) plus /proc/net/snmp.
#include <malloc.h>
#include <poll.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.hpp"
#include "net/socket.hpp"
#include "replay/engine.hpp"
#include "server/background.hpp"
#include "spans.hpp"
#include "trace/binary.hpp"
#include "trace/load.hpp"
#include "workloads.hpp"
#include "zone/parser.hpp"

#ifndef REPLAYBENCH_BUILD_TYPE
#define REPLAYBENCH_BUILD_TYPE "unknown"
#endif

using namespace ldp;
using namespace ldp::replaybench;

namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;
// Queries pushed through the per-call decode/answer pass (traced runs) and
// through the output check (every run), evenly strided over the trace.
constexpr size_t kPerCallSample = 20000;
constexpr size_t kCheckSample = 2000;
// How long the output check waits on a socket before it gives up.
constexpr int kCheckWaitMs = 1000;
// Where the output check's queries come from.
const IpAddr kLoopback{Ip4{127, 0, 0, 1}};
// A one-second window's p99 needs at least ten samples beyond it.
constexpr size_t kMinWindowSamples = 1000;

// Thread layout: the controller is the thread calling replay(); one
// distributor, one querier, one server event loop. Supervision is off, so
// these four are the only threads that do work.
constexpr size_t kDistributors = 1;
constexpr size_t kQueriers = 1;
constexpr size_t kServerShards = 1;
constexpr size_t kWorkingThreads = 1 + kDistributors * (1 + kQueriers) + kServerShards;

// ---------------------------------------------------------------------------
// Output: an ordered list of named values, printed as one JSON object.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Host-wide kernel UDP drop counters (/proc/net/snmp, this network
// namespace): every socket on the host counts, not only ours.

struct UdpSnmp {
  bool ok = false;
  uint64_t rcvbuf_errors = 0;
  uint64_t sndbuf_errors = 0;
};

UdpSnmp read_udp_snmp() {
  UdpSnmp out;
  std::ifstream in("/proc/net/snmp");
  std::string header, values;
  while (std::getline(in, header)) {
    if (header.rfind("Udp:", 0) != 0) continue;
    if (!std::getline(in, values)) break;
    std::istringstream hs(header), vs(values);
    std::string key, val;
    hs >> key;
    vs >> val;
    while (hs >> key && vs >> val) {
      if (key == "RcvbufErrors") out.rcvbuf_errors = std::stoull(val);
      if (key == "SndbufErrors") out.sndbuf_errors = std::stoull(val);
    }
    out.ok = true;
    break;
  }
  return out;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// Peak RSS of one measured round: return freed heap to the kernel and
// reset the high-water mark (clear_refs "5") before the round, read VmHWM
// after it, so earlier set-ups in the same process do not count.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// This process's thread ids (/proc/self/task).
std::set<long> thread_ids() {
  std::set<long> out;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec))
    out.insert(std::stol(e.path().filename().string()));
  return out;
}

// CPU time one thread of this process has run, in ns: the first field of
// /proc/self/task/<tid>/schedstat. -1 when it cannot be read.
TimeNs thread_cpu_ns(long tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  TimeNs ns = -1;
  if (!(in >> ns)) return -1;
  return ns;
}

// Process CPU time sampled once a second while replay() runs, so CPU per
// query can be taken per one-second window like the latency tails. The
// sampler only sleeps and reads getrusage.
class CpuSampler {
 public:
  explicit CpuSampler(TimeNs first) : thread_([this, first] { run(first); }) {}
  ~CpuSampler() { stop(); }
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  /// Stop and return the (monotonic ns, CPU seconds) samples.
  std::vector<std::pair<TimeNs, double>> stop() {
    {
      std::lock_guard lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return samples_;
  }

 private:
  void run(TimeNs first) {
    // steady_clock is the clock behind mono_now_ns().
    auto next = std::chrono::steady_clock::time_point(std::chrono::nanoseconds(first));
    std::unique_lock lock(mu_);
    while (!cv_.wait_until(lock, next, [this] { return done_; })) {
      samples_.emplace_back(mono_now_ns(), cpu_seconds());
      next += std::chrono::seconds(1);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  std::vector<std::pair<TimeNs, double>> samples_;  // written by the sampler until joined
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// One set-up: trace load → zone parse → server start → mutation.

struct Live {
  std::vector<trace::TraceRecord> trace;
  std::unique_ptr<server::BackgroundServer> server;
  long server_tid = -1;  ///< the server's event-loop thread; -1 if not found
  TimeNs t0 = 0;     ///< start of trace load
  TimeNs ready = 0;  ///< set-up done, about to call replay()
};

Result<Live> set_up(const std::string& workload, const std::string& path,
                    SpanRecorder& rec) {
  Live live;
  ScopedSpan setup(rec, "setup");
  live.t0 = mono_now_ns();
  {
    ScopedSpan s(rec, "trace.load");
    live.trace = LDP_TRY(trace::load_trace_file(path));
  }
  server::AuthServer auth;
  {
    ScopedSpan s(rec, "zone.parse");
    for (const auto& text : zone_texts()) {
      auto zone = LDP_TRY(zone::parse_zone(text));
      LDP_TRY_VOID(auth.default_zones().add(std::move(zone)));
    }
  }
  // The server's thread is the one thread start() adds.
  auto before = thread_ids();
  {
    ScopedSpan s(rec, "server.start");
    live.server = LDP_TRY(server::BackgroundServer::start(std::move(auth)));
  }
  std::vector<long> added;
  for (long tid : thread_ids())
    if (!before.contains(tid)) added.push_back(tid);
  if (added.size() == 1) live.server_tid = added.front();
  if (auto mutation = workload_mutation(workload)) {
    ScopedSpan s(rec, "mutate.apply");
    size_t malformed = 0;
    live.trace = mutation->apply_all(std::move(live.trace), &malformed);
    if (malformed > 0) return Err("mutation rejected " + std::to_string(malformed) + " records");
  }
  if (live.trace.empty()) return Err("empty trace");
  live.ready = mono_now_ns();
  return live;
}

void stop_server(Live& live, SpanRecorder& rec) {
  ScopedSpan s(rec, "server.stop");
  live.server->stop();
}

// ---------------------------------------------------------------------------
// Output check, live half: a strided sample of the trace's queries is asked
// again through real sockets, on the transport each query was replayed on,
// while the server still runs and its template cache is warm. The replies
// are compared after the server stops (check_answers).

std::vector<size_t> strided(size_t n, size_t want) {
  std::vector<size_t> idx;
  size_t step = std::max<size_t>(1, n / want);
  for (size_t i = 0; i < n && idx.size() < want; i += step) idx.push_back(i);
  return idx;
}

bool wait_ready(int fd, short events) {
  pollfd p{fd, events, 0};
  int n;
  do {
    n = ::poll(&p, 1, kCheckWaitMs);
  } while (n < 0 && errno == EINTR);
  return n > 0;
}

uint16_t dns_id(std::span<const uint8_t> msg) {
  return msg.size() < 2 ? 0 : static_cast<uint16_t>(msg[0] << 8 | msg[1]);
}

Result<std::vector<uint8_t>> ask_udp(net::UdpSocket& sock, const Endpoint& server,
                                     std::span<const uint8_t> query) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (!LDP_TRY(sock.send_to(server, query))) {
      wait_ready(sock.fd(), POLLOUT);
      continue;
    }
    while (wait_ready(sock.fd(), POLLIN)) {
      auto dgram = LDP_TRY(sock.recv());
      if (dgram && dgram->payload.size() >= 2 && dns_id(dgram->payload) == dns_id(query))
        return std::move(dgram->payload);
    }
  }
  return Err("no UDP answer");
}

// One persistent connection, one query in flight at a time.
Result<std::vector<std::vector<uint8_t>>> ask_tcp(
    const Endpoint& server, const std::vector<std::span<const uint8_t>>& queries) {
  auto stream = LDP_TRY(net::TcpStream::connect(server));
  if (!wait_ready(stream.fd(), POLLOUT)) return Err("TCP connect timed out");
  LDP_TRY_VOID(stream.set_nodelay(true));
  std::vector<std::vector<uint8_t>> replies;
  for (auto query : queries) {
    for (size_t pending = LDP_TRY(stream.send_message(query)); pending > 0;
         pending = LDP_TRY(stream.flush())) {
      if (!wait_ready(stream.fd(), POLLOUT)) return Err("TCP send timed out");
    }
    std::vector<std::vector<uint8_t>> got;
    bool closed = false;
    while (got.empty()) {
      if (closed) return Err("server closed the TCP connection");
      if (!wait_ready(stream.fd(), POLLIN)) return Err("no TCP answer");
      got = LDP_TRY(stream.read_messages(closed));
    }
    if (got.size() != 1) return Err("unasked TCP message");
    replies.push_back(std::move(got.front()));
  }
  return replies;
}

struct LiveReply {
  size_t index;  ///< into the trace
  std::vector<uint8_t> reply;
};

Result<std::vector<LiveReply>> ask_live(const Live& live) {
  std::vector<size_t> udp, tcp;
  for (size_t i : strided(live.trace.size(), kCheckSample)) {
    const auto& rec = live.trace[i];
    if (rec.direction != trace::Direction::Query) continue;
    if (rec.transport == Transport::Udp) udp.push_back(i);
    else if (rec.transport == Transport::Tcp) tcp.push_back(i);
    else return Err("query " + std::to_string(i) + ": transport the check does not speak");
  }
  const Endpoint& server = live.server->endpoint();
  std::vector<LiveReply> out;
  if (!udp.empty()) {
    // Unbound until the first send: the kernel picks a port of its own.
    auto sock = LDP_TRY(net::UdpSocket::create());
    for (size_t i : udp) {
      auto reply = ask_udp(sock, server, live.trace[i].dns_payload);
      if (!reply.ok()) return Err("query " + std::to_string(i) + ": " + reply.error().message);
      out.push_back({i, std::move(*reply)});
    }
  }
  if (!tcp.empty()) {
    std::vector<std::span<const uint8_t>> queries;
    for (size_t i : tcp) queries.emplace_back(live.trace[i].dns_payload);
    auto replies = LDP_TRY(ask_tcp(server, queries));
    for (size_t k = 0; k < tcp.size(); ++k) out.push_back({tcp[k], std::move(replies[k])});
  }
  return out;
}

// ---------------------------------------------------------------------------
// One measured replay and everything read around it.

struct Round {
  Live live;
  replay::EngineReport report;
  TimeNs call = 0;  ///< entering replay()
  TimeNs ret = 0;   ///< replay() returned
  double cpu_s = 0;
  TimeNs server_cpu_ns = -1;  ///< the server thread's share of cpu_s
  std::vector<std::pair<TimeNs, double>> cpu_samples;
  double peak_rss_mb = 0;
  net::IoCounters io;
  UdpSnmp snmp0, snmp1;
  // Read after the server stopped, so they include the output check's
  // queries; server_answered is read before the check.
  uint64_t server_queries = 0, server_responses = 0, server_nxdomain = 0,
           server_bytes = 0;
  uint64_t server_answered = 0;
  server::ConnectionStats conns;
  server::ResponseCache::Stats cache;
  uint64_t scheduled = 0;
  Result<std::vector<LiveReply>> live_replies = Err("not asked");
};

Result<Round> measured_round(const std::string& workload, const std::string& path,
                             SpanRecorder& rec) {
  Round r;
  reset_peak_rss();
  r.live = LDP_TRY(set_up(workload, path, rec));
  for (const auto& q : r.live.trace)
    if (q.direction == trace::Direction::Query) ++r.scheduled;

  replay::EngineConfig cfg;
  cfg.server = r.live.server->endpoint();
  cfg.distributors = kDistributors;
  cfg.queriers_per_distributor = kQueriers;
  cfg.timed = true;
  cfg.supervise = false;
  replay::QueryEngine engine(cfg);

  r.snmp0 = read_udp_snmp();
  auto io0 = net::io_counters();
  double cpu0 = cpu_seconds();
  TimeNs server_cpu0 = thread_cpu_ns(r.live.server_tid);
  r.call = mono_now_ns();
  Result<replay::EngineReport> report = Err("not run");
  {
    CpuSampler sampler(r.call);
    ScopedSpan s(rec, "replay");
    report = engine.replay(r.live.trace);
    r.cpu_samples = sampler.stop();
  }
  r.ret = mono_now_ns();
  r.cpu_s = cpu_seconds() - cpu0;
  TimeNs server_cpu1 = thread_cpu_ns(r.live.server_tid);
  if (server_cpu0 >= 0 && server_cpu1 >= 0) r.server_cpu_ns = server_cpu1 - server_cpu0;
  auto io1 = net::io_counters();
  r.snmp1 = read_udp_snmp();
  if (!report.ok()) return Err("replay failed: " + report.error().message);
  r.report = std::move(*report);
  r.io.sendto_calls = io1.sendto_calls - io0.sendto_calls;
  r.io.recvfrom_calls = io1.recvfrom_calls - io0.recvfrom_calls;
  r.io.sendmmsg_calls = io1.sendmmsg_calls - io0.sendmmsg_calls;
  r.io.recvmmsg_calls = io1.recvmmsg_calls - io0.recvmmsg_calls;
  r.io.datagrams_sent = io1.datagrams_sent - io0.datagrams_sent;
  r.io.datagrams_received = io1.datagrams_received - io0.datagrams_received;

  r.server_answered = r.live.server->auth().stats().responses.load();
  r.live_replies = ask_live(r.live);
  stop_server(r.live, rec);
  r.peak_rss_mb = peak_rss_mb();
  const auto& st = r.live.server->auth().stats();
  r.server_queries = st.queries.load();
  r.server_responses = st.responses.load();
  r.server_nxdomain = st.nxdomain.load();
  r.server_bytes = st.response_bytes.load();
  r.conns = r.live.server->connections();
  if (const auto* cache = r.live.server->frontend().response_cache()) r.cache = cache->stats();
  return r;
}

// End-to-end metrics of one round; `setup_s` is filled in by the caller.
struct EndToEnd {
  std::vector<Metric> metrics;
  uint64_t answered = 0;
  double setup_s = 0;
};

EndToEnd end_to_end(const Round& r, double setup_s) {
  auto ts = timings_from(r.report, r.live.trace.front().timestamp);
  std::vector<double> lat, lag;
  TimeNs last_answer = r.report.replay_start;
  EndToEnd e;
  for (const auto& t : ts) {
    lat.push_back(latency_ms(t));
    lag.push_back(send_lag_ms(t));
    if (t.answered >= 0) {
      ++e.answered;
      last_answer = std::max(last_answer, t.answered);
    }
  }
  auto answered_latency = [](const QueryTiming& t) -> std::optional<double> {
    if (t.answered < 0) return std::nullopt;
    return latency_ms(t);
  };
  auto lag_of = [](const QueryTiming& t) -> std::optional<double> { return send_lag_ms(t); };
  // CPU per query in each one-second sampling window with at least
  // kMinWindowSamples queries due in it; the median over those windows.
  std::vector<double> cpu_per_query;
  for (size_t i = 0; i + 1 < r.cpu_samples.size(); ++i) {
    auto [t0, c0] = r.cpu_samples[i];
    auto [t1, c1] = r.cpu_samples[i + 1];
    size_t due = 0;
    for (const auto& t : ts) due += t.due >= t0 && t.due < t1;
    if (due >= kMinWindowSamples) cpu_per_query.push_back((c1 - c0) * 1e6 / static_cast<double>(due));
  }
  double scheduled = static_cast<double>(r.scheduled);
  double window_s = ns_to_sec(last_answer - r.report.replay_start);
  double answered = static_cast<double>(e.answered);
  e.setup_s = setup_s;
  // Medians and per-window figures first, then loss shares and whole-run
  // tails, which lost queries (infinite latency) and host stalls make
  // unsteady. BENCHMARK.json gates only some of them (see README.md).
  e.metrics = {
      {"answered_qps", window_s > 0 ? answered / window_s : 0, "1/s"},
      {"latency_p50_ms", percentile(lat, 0.50), "ms"},
      {"latency_p99_answered_ms", windowed_percentile(ts, 0.99, kMinWindowSamples, answered_latency), "ms"},
      {"send_lag_p50_ms", percentile(lag, 0.50), "ms"},
      {"send_lag_p99_ms", windowed_percentile(ts, 0.99, kMinWindowSamples, lag_of), "ms"},
      {"cpu_us_per_query",
       cpu_per_query.empty() ? std::numeric_limits<double>::quiet_NaN() : median(cpu_per_query),
       "us"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
      {"setup_s", setup_s, "s"},
      {"loss_frac", (scheduled - answered) / scheduled, "fraction"},
      {"latency_p99_ms", percentile(lat, 0.99), "ms"},
      {"send_lag_p99_run_ms", percentile(lag, 0.99), "ms"},
      {"cpu_us_per_query_run", r.cpu_s * 1e6 / scheduled, "us"},
      {"rate_err_p99_pct", percentile(rate_error_pct(ts), 0.99), "%"},
  };
  return e;
}

double metric(const std::vector<Metric>& ms, const std::string& name) {
  for (const auto& m : ms)
    if (m.name == name) return m.value;
  return std::numeric_limits<double>::quiet_NaN();
}

// ---------------------------------------------------------------------------
// Output check, compare half, and the per-call pass over the workload's own
// payloads: both run on the stopped server's AuthServer, whose answer_wire
// is the uncached path.

size_t udp_limit_for(const trace::TraceRecord& rec) {
  return rec.transport == Transport::Udp ? server::FrontendConfig{}.udp_payload_limit : 0;
}

std::vector<std::string> check_answers(const Round& r) {
  if (!r.live_replies.ok()) return {"output check: " + r.live_replies.error().message};
  std::vector<std::string> bad;
  const auto& auth = r.live.server->auth();
  for (const auto& [i, reply] : *r.live_replies) {
    const auto& rec = r.live.trace[i];
    auto reference = auth.answer_wire(rec.dns_payload, kLoopback, udp_limit_for(rec));
    std::optional<std::string> why = "the server gives no answer";
    if (reference) why = reply_mismatch(rec.dns_payload, reply, *reference);
    if (why) bad.push_back("query " + std::to_string(i) + ": " + *why);
    if (bad.size() >= 5) break;
  }
  if (r.live_replies->empty()) bad.push_back("output check asked no queries");
  return bad;
}

struct PerCall {
  double decode_ns_p50 = 0;
  double answer_ns_p50 = 0;
  double answer_ns_p99 = 0;
  size_t errors = 0;  ///< payloads that failed to decode or got no answer
};

PerCall per_call_pass(const Live& live, SpanRecorder& rec) {
  std::vector<double> decode_ns, answer_ns;
  size_t errors = 0;
  const auto& auth = live.server->auth();
  ScopedSpan pass(rec, "percall");
  for (size_t i : strided(live.trace.size(), kPerCallSample)) {
    const auto& q = live.trace[i];
    ScopedSpan call(rec, "call", static_cast<int64_t>(i));
    TimeNs t0 = mono_now_ns();
    {
      ScopedSpan s(rec, "dns.decode", static_cast<int64_t>(i));
      errors += !dns::Message::from_wire(q.dns_payload).ok();
    }
    TimeNs t1 = mono_now_ns();
    {
      ScopedSpan s(rec, "server.answer", static_cast<int64_t>(i));
      errors += !auth.answer_wire(q.dns_payload, q.src.addr, udp_limit_for(q)).has_value();
    }
    TimeNs t2 = mono_now_ns();
    decode_ns.push_back(static_cast<double>(t1 - t0));
    answer_ns.push_back(static_cast<double>(t2 - t1));
  }
  return {median(decode_ns), percentile(answer_ns, 0.5), percentile(answer_ns, 0.99), errors};
}

std::vector<double> span_durations(const SpanRecorder& rec, const std::string& name) {
  std::vector<double> out;
  for (const auto& s : rec.spans())
    if (s.name == name && s.parent >= 0 && rec.spans()[s.parent].name == "setup")
      out.push_back(ns_to_sec(s.end - s.start));
  return out;
}

double median_or_zero(const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); }

// Counters read around one replay (no spans needed): the per-layer
// metrics an untraced run can report too.
std::vector<Metric> counters(const Round& r) {
  const auto& rep = r.report;
  const auto& lc = rep.lifecycle;
  double sched = static_cast<double>(r.scheduled);
  double sent = static_cast<double>(rep.queries_sent);
  double retries = static_cast<double>(lc.retries);
  double sq = static_cast<double>(std::max<uint64_t>(1, r.server_queries));
  auto u = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"server.cache_hit_ratio", u(r.cache.hits) / sq, "fraction"},
      {"server.response_bytes_avg",
       u(r.server_bytes) / static_cast<double>(std::max<uint64_t>(1, r.server_responses)),
       "B"},
      {"server.nxdomain_ratio", u(r.server_nxdomain) / sq, "fraction"},
      {"server.cpu_us_per_query",
       r.server_cpu_ns >= 0 ? u(r.server_cpu_ns) * 1e-3 / sched
                            : std::numeric_limits<double>::quiet_NaN(),
       "us"},
      {"replay.cpu_us_per_query",
       r.server_cpu_ns >= 0 ? (r.cpu_s * 1e9 - u(r.server_cpu_ns)) * 1e-3 / sched
                            : std::numeric_limits<double>::quiet_NaN(),
       "us"},
      {"server.peak_established", u(r.conns.peak_established), "count"},
      {"server.tcp_accepted", u(r.conns.accepted), "count"},
      {"net.syscalls_per_query", u(r.io.syscalls()) / sched, "count"},
      {"net.datagrams_per_query", u(r.io.datagrams()) / sched, "count"},
      {"net.kernel_rcvbuf_drops", u(r.snmp1.rcvbuf_errors - r.snmp0.rcvbuf_errors), "count"},
      {"net.kernel_sndbuf_drops", u(r.snmp1.sndbuf_errors - r.snmp0.sndbuf_errors), "count"},
      {"replay.queue_hwm", u(rep.queue_hwm), "count"},
      {"replay.max_in_flight", u(rep.max_in_flight), "count"},
      {"replay.unmatched", u(lc.unmatched_responses), "count"},
      {"replay.dup_ids", u(lc.duplicate_ids), "count"},
      {"replay.useful_send_ratio", sent + retries > 0 ? sent / (sent + retries) : 0,
       "fraction"},
      {"replay.retries_per_query", sent > 0 ? retries / sent : 0, "count"},
      {"replay.timeouts", u(lc.timeouts), "count"},
      {"replay.deferred_sends", u(lc.deferred_sends), "count"},
      {"replay.connections_opened", u(rep.connections_opened), "count"},
      {"replay.tcp_reconnects", u(lc.tcp_reconnects), "count"},
      {"replay.call_s", ns_to_sec(r.ret - r.call), "s"},
      {"replay.start_s", ns_to_sec(rep.replay_start - r.call), "s"},
  };
}

std::vector<Metric> per_layer(const Round& r, const SpanRecorder& rec, const PerCall& pc,
                              const EndToEnd& untraced, const EndToEnd& traced) {
  std::vector<Metric> out = {
      {"trace.load_s", median_or_zero(span_durations(rec, "trace.load")), "s"},
      {"zone.parse_s", median_or_zero(span_durations(rec, "zone.parse")), "s"},
      {"mutate.apply_s", median_or_zero(span_durations(rec, "mutate.apply")), "s"},
      {"server.start_s", median_or_zero(span_durations(rec, "server.start")), "s"},
      {"dns.decode_ns", pc.decode_ns_p50, "ns"},
      {"server.answer_ns_p50", pc.answer_ns_p50, "ns"},
      {"server.answer_ns_p99", pc.answer_ns_p99, "ns"},
  };
  for (auto& m : counters(r)) out.push_back(std::move(m));
  out.push_back({"tracing.overhead_setup_s", traced.setup_s - untraced.setup_s, "s"});
  out.push_back({"tracing.overhead_latency_p50_ms",
                 metric(traced.metrics, "latency_p50_ms") -
                     metric(untraced.metrics, "latency_p50_ms"),
                 "ms"});
  out.push_back({"tracing.overhead_cpu_us_per_query",
                 metric(traced.metrics, "cpu_us_per_query") -
                     metric(untraced.metrics, "cpu_us_per_query"),
                 "us"});
  return out;
}

Books books_of(const Round& r) {
  Books b;
  b.scheduled = r.scheduled;
  b.send_records = r.report.sends.size();
  b.sent = r.report.queries_sent;
  b.responses = r.report.responses_received;
  b.lost = r.report.lost();
  b.retries = r.report.lifecycle.retries;
  b.processed = r.report.impairments.processed;
  b.fault_active = false;  // the benchmark configures no fault spec
  b.connections_consistent = r.conns.consistent();
  b.server_answered = r.server_answered;
  return b;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string cmd, workload, in, out, spans;
  uint64_t seed = 1;
  double seconds = 10;
  double rate_qps = 0;
  bool traced = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: replaybench gen --workload W --seed N --seconds S --out FILE "
               "[--rate-qps R]\n"
               "       replaybench run --workload W --in FILE [--traced] [--spans FILE]\n");
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--traced") {
      a.traced = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") a.workload = v;
    else if (k == "--in") a.in = v;
    else if (k == "--out") a.out = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), &end, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), &end);
    else if (k == "--rate-qps") a.rate_qps = std::strtod(v.c_str(), &end);
    else return std::nullopt;
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (!known_workload(a.workload)) return std::nullopt;
  return a;
}

int cmd_gen(const Args& a) {
  if (a.out.empty() || a.seconds <= 0) return usage();
  auto trace = generate_trace(a.workload, a.seed, a.seconds, a.rate_qps);
  trace::BinaryWriter w;
  for (const auto& rec : trace) w.add(rec);
  auto saved = w.save(a.out);
  if (!saved.ok()) {
    std::fprintf(stderr, "replaybench: %s\n", saved.error().message.c_str());
    return 1;
  }
  return 0;
}

int cmd_run(const Args& a) {
  if (a.in.empty()) return usage();
  SpanRecorder rec(false);
  auto fail = [](const std::string& msg) {
    std::fprintf(stderr, "replaybench: %s\n", msg.c_str());
    return 1;
  };

  // Set-up-only repetitions (the measured round adds one more). A traced
  // run alternates traced and untraced set-ups so the tracing overhead on
  // set-up is measured within the run.
  std::vector<double> pre_untraced, pre_traced;
  for (int i = 0; i < kSetupReps - 1; ++i) {
    bool traced = a.traced && i % 2 == 0;
    rec.set_enabled(traced);
    auto live = set_up(a.workload, a.in, rec);
    if (!live.ok()) return fail(live.error().message);
    (traced ? pre_traced : pre_untraced).push_back(ns_to_sec(live->ready - live->t0));
    stop_server(*live, rec);
  }

  // The measured replay, untraced; a traced run then repeats it traced.
  rec.set_enabled(false);
  auto round = measured_round(a.workload, a.in, rec);
  if (!round.ok()) return fail(round.error().message);
  std::optional<Round> traced_round;
  if (a.traced) {
    rec.set_enabled(true);
    auto tr = measured_round(a.workload, a.in, rec);
    if (!tr.ok()) return fail(tr.error().message);
    traced_round = std::move(*tr);
  }

  // setup_s: median over the set-ups, each completed with the measured
  // replay's own replay() entry → replay_start time.
  auto setup_median = [](const Round& r, std::vector<double> pres) {
    double start_s = ns_to_sec(r.report.replay_start - r.call);
    std::vector<double> all;
    for (double p : pres) all.push_back(p + start_s);
    all.push_back(ns_to_sec(r.report.replay_start - r.live.t0));
    return median(all);
  };
  EndToEnd e2e = end_to_end(*round, setup_median(*round, pre_untraced));

  // Correctness: conservation on every replay, live answers on a sample.
  std::vector<std::string> failures = conservation_failures(books_of(*round));
  for (auto& f : check_answers(*round)) failures.push_back(f);
  if (traced_round) {
    for (auto& f : conservation_failures(books_of(*traced_round)))
      failures.push_back("traced: " + f);
    for (auto& f : check_answers(*traced_round)) failures.push_back("traced: " + f);
  }

  std::vector<Metric> layers;
  std::optional<EndToEnd> e2e_traced;
  if (traced_round) {
    e2e_traced = end_to_end(*traced_round, setup_median(*traced_round, pre_traced));
    rec.set_enabled(true);
    PerCall pc = per_call_pass(traced_round->live, rec);
    if (pc.errors > 0)
      failures.push_back("per-call pass: " + std::to_string(pc.errors) + " calls failed");
    layers = per_layer(*traced_round, rec, pc, e2e, *e2e_traced);
    if (!a.spans.empty()) {
      auto w = rec.write_jsonl(a.spans);
      if (!w.ok()) return fail(w.error().message);
    }
  }

  TraceShape shape = describe(round->live.trace);
  std::string layout = "controller=1 distributors=" + std::to_string(kDistributors) +
                       " queriers=" + std::to_string(kQueriers) +
                       " server_shards=" + std::to_string(kServerShards) +
                       " supervisor=off working_threads=" + std::to_string(kWorkingThreads) +
                       " cpu_sampler=1(idle)" +
                       " transport=loopback";

  std::string out = "{";
  out += "\"workload\": " + json_string(a.workload);
  out += ", \"host_cores\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"build_type\": " + json_string(REPLAYBENCH_BUILD_TYPE);
  out += ", \"thread_layout\": " + json_string(layout);
  out += ", \"shape\": {\"queries\": " + std::to_string(shape.queries) +
         ", \"sources\": " + std::to_string(shape.sources) +
         ", \"udp_queries\": " + std::to_string(shape.udp_queries) +
         ", \"do_queries\": " + std::to_string(shape.do_queries) +
         ", \"cache_eligible\": " + std::to_string(shape.cache_eligible) + "}";
  out += ", \"kernel_counters\": " + json_string(round->snmp0.ok ? "/proc/net/snmp (host-wide)"
                                                                  : "unavailable");
  out += ", \"correct\": " + std::string(failures.empty() ? "true" : "false");
  out += ", \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i)
    out += (i > 0 ? ", " : "") + json_string(failures[i]);
  out += "]";
  out += ", \"attempted\": " + std::to_string(round->scheduled);
  out += ", \"failed\": " + std::to_string(round->scheduled - e2e.answered);
  out += ", \"end_to_end\": " + json_metrics(e2e.metrics);
  if (e2e_traced) out += ", \"end_to_end_traced\": " + json_metrics(e2e_traced->metrics);
  out += ", \"counters\": " + json_metrics(counters(*round));
  if (a.traced) {
    out += ", \"per_layer\": " + json_metrics(layers);
    std::vector<Metric> self;
    for (const auto& [name, sec] : rec.self_seconds()) self.push_back({name, sec, "s"});
    out += ", \"span_self_s\": " + json_metrics(self);
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = parse_args(argc, argv);
  if (!args) return usage();
  if (args->cmd == "gen") return cmd_gen(*args);
  if (args->cmd == "run") return cmd_run(*args);
  return usage();
}
