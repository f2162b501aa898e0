#include "workloads.hpp"

#include <set>
#include <tuple>
#include <unordered_set>

#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace ldp::replaybench {

namespace {

const char* const kTlds[] = {"com", "net", "org", "arpa", "edu", "gov",
                             "io",  "de",  "uk",  "jp",   "cn",  "fr"};

// Distinct stream from the one generating arrivals, so the source set does
// not shift when the rate changes.
constexpr uint64_t kSourceStream = 0x5eed50u;

std::vector<trace::TraceRecord> hot_trace(uint64_t seed, double seconds, double rate) {
  Rng src_rng(seed ^ kSourceStream);
  auto clients = synth::make_client_pool(kHotSources, src_rng);
  std::vector<Endpoint> sources;
  for (const auto& c : clients)
    sources.push_back({c, static_cast<uint16_t>(src_rng.uniform(32768, 60999))});
  std::vector<dns::Name> names;
  for (size_t i = 0; i < kHotNames; ++i)
    names.push_back(*dns::Name::parse("h" + std::to_string(i) + ".example.com"));

  Rng rng(seed);
  const Endpoint server{IpAddr{Ip4{192, 0, 2, 1}}, 53};
  const TimeNs end = sec_to_ns(seconds);
  std::vector<trace::TraceRecord> out;
  out.reserve(static_cast<size_t>(rate * seconds * 1.05));
  TimeNs t = 0;
  while (true) {
    t += static_cast<TimeNs>(rng.exponential(1.0 / rate) * kSecond);
    if (t >= end) break;
    const auto& name = names[rng.uniform(0, names.size() - 1)];
    auto qtype = rng.bernoulli(0.75) ? dns::RRType::A : dns::RRType::AAAA;
    auto id = static_cast<uint16_t>(rng.uniform(0, 0xffff));
    auto msg = dns::Message::make_query(id, name, qtype, false);
    const auto& src = sources[rng.uniform(0, sources.size() - 1)];
    out.push_back(trace::make_query_record(t, src, server, msg, Transport::Udp));
  }
  return out;
}

std::vector<trace::TraceRecord> root_trace(uint64_t seed, double seconds, double rate) {
  synth::RootTraceSpec spec;
  spec.mean_rate_qps = rate;
  spec.duration_ns = sec_to_ns(seconds);
  spec.client_count = kRootClients;
  spec.do_fraction = 0.723;
  spec.tcp_fraction = 0.03;
  spec.seed = seed;
  return synth::make_root_trace(spec);
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "udp_hot" || name == "broot_mix" || name == "tcp_few";
}

std::vector<trace::TraceRecord> generate_trace(const std::string& workload, uint64_t seed,
                                               double seconds, double rate_qps) {
  if (workload == "broot_mix")
    return root_trace(seed, seconds, rate_qps > 0 ? rate_qps : kRootRateQps);
  // tcp_few replays the udp_hot trace; its mutation switches the transport.
  return hot_trace(seed, seconds, rate_qps > 0 ? rate_qps : kHotRateQps);
}

std::optional<mutate::MutatorPipeline> workload_mutation(const std::string& workload) {
  if (workload == "udp_hot") return std::nullopt;
  mutate::MutatorPipeline pipe;
  pipe.force_transport(workload == "tcp_few" ? Transport::Tcp : Transport::Udp);
  return pipe;
}

std::vector<std::string> zone_texts() {
  // Root zone with realistic referral weight: 13 root NS plus glue, and
  // four nameservers with glue for each delegated TLD.
  static const char* kLetters[] = {"a", "b", "c", "d", "e", "f", "g",
                                   "h", "i", "j", "k", "l", "m"};
  std::string root =
      "$ORIGIN .\n$TTL 86400\n"
      ". IN SOA a.root-servers.net. nstld.verisign-grs.com. 2016040600 1800 900 "
      "604800 86400\n";
  for (int i = 0; i < 13; ++i) {
    root += std::string(". IN NS ") + kLetters[i] + ".root-servers.net.\n";
    root += std::string(kLetters[i]) + ".root-servers.net. IN A 198.41.0." +
            std::to_string(4 + i) + "\n";
  }
  int subnet = 10;
  for (const char* tld : kTlds) {
    for (int ns = 0; ns < 4; ++ns) {
      std::string host = std::string(kLetters[ns]) + ".nic-servers." + tld + ".";
      root += std::string(tld) + ". IN NS " + host + "\n";
      root += host + " IN A 192." + std::to_string(subnet) + ".6." +
              std::to_string(30 + ns) + "\n";
    }
    ++subnet;
  }
  std::string example =
      "$ORIGIN example.com.\n$TTL 3600\n"
      "@ IN SOA ns1 admin 1 7200 900 1209600 300\n"
      "@ IN NS ns1\n"
      "ns1 IN A 192.0.2.1\n"
      "* IN A 192.0.2.80\n";
  return {root, example};
}

dns::Rcode expected_rcode(const dns::Message& query) {
  if (query.questions.empty()) return dns::Rcode::FormErr;
  const auto& qname = query.questions.front().qname;
  if (qname.is_root()) return dns::Rcode::NoError;
  std::string_view tld = qname.label(qname.label_count() - 1);
  for (const char* known : kTlds)
    if (tld == known) return dns::Rcode::NoError;
  return dns::Rcode::NXDomain;
}

std::optional<std::string> reply_mismatch(std::span<const uint8_t> query,
                                          std::span<const uint8_t> reply,
                                          std::span<const uint8_t> reference) {
  auto q = dns::Message::from_wire(query);
  if (!q.ok()) return "query does not decode";
  auto ref = dns::Message::from_wire(reference);
  if (!ref.ok()) return "reference answer does not decode";
  auto r = dns::Message::from_wire(reply);
  if (!r.ok()) return "reply does not decode";
  if (!r->header.qr) return "reply has no QR bit";
  if (r->header.id != q->header.id) return "reply does not echo the query ID";
  if (r->questions != q->questions) return "reply does not echo the question";
  if (r->header.rcode != expected_rcode(*q)) return "reply has the wrong rcode";
  const auto& h = r->header;
  const auto& rh = ref->header;
  if (h.rcode != rh.rcode || h.aa != rh.aa || h.tc != rh.tc || h.rd != rh.rd ||
      h.ra != rh.ra || h.ad != rh.ad || h.cd != rh.cd)
    return "reply header flags differ from the uncached answer";
  if (r->edns.has_value() != ref->edns.has_value() ||
      (r->edns && (r->edns->dnssec_ok != ref->edns->dnssec_ok ||
                   r->edns->udp_payload_size != ref->edns->udp_payload_size)))
    return "reply EDNS differs from the uncached answer";
  if (r->answers != ref->answers) return "answer section differs from the uncached answer";
  if (r->authorities != ref->authorities)
    return "authority section differs from the uncached answer";
  if (r->additionals != ref->additionals)
    return "additional section differs from the uncached answer";
  return std::nullopt;
}

TraceShape describe(const std::vector<trace::TraceRecord>& trace) {
  TraceShape shape;
  std::unordered_set<IpAddr, IpAddrHash> sources;
  std::set<std::tuple<std::string, uint16_t, bool, uint16_t>> keys;
  for (const auto& rec : trace) {
    if (rec.direction != trace::Direction::Query) continue;
    ++shape.queries;
    sources.insert(rec.src.addr);
    auto msg = rec.message();
    if (!msg.ok() || msg->questions.empty()) continue;
    bool dnssec_ok = msg->edns.has_value() && msg->edns->dnssec_ok;
    if (dnssec_ok) ++shape.do_queries;
    if (rec.transport != Transport::Udp) continue;
    ++shape.udp_queries;
    uint16_t limit = msg->edns.has_value() ? msg->edns->udp_payload_size : 512;
    const auto& q = msg->questions.front();
    auto key = std::make_tuple(q.qname.to_string(), static_cast<uint16_t>(q.qtype),
                               dnssec_ok, limit);
    if (!keys.insert(key).second) ++shape.cache_eligible;
  }
  shape.sources = sources.size();
  return shape;
}

}  // namespace ldp::replaybench
