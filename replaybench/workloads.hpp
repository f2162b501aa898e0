// The benchmark's workloads: trace generators (driven by the workload seed
// alone), the mutation each workload applies at set-up, the zone the
// server loads, and the expected answer for each query (the output check).
//
//  udp_hot   UDP, 4 sources, 32 repeated questions at 6k q/s open loop:
//            per-packet cost dominates, the template cache serves
//            nearly every reply.
//  broot_mix B-Root-like (synth::make_root_trace, fig6 operating point:
//            2k q/s, 5000-client heavy-tailed population, 72% DO, 35% junk
//            TLDs, A+AAAA bursts), forced to UDP: per-source state and
//            zone lookup dominate, the cache almost never hits.
//  tcp_few   the udp_hot trace forced to TCP: framing and stream I/O on
//            4 persistent connections; the UDP batching path and the
//            template cache are bypassed.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/message.hpp"
#include "mutate/mutator.hpp"
#include "trace/record.hpp"

namespace ldp::replaybench {

/// Offered rate of udp_hot and tcp_few (queries per second, open loop).
inline constexpr double kHotRateQps = 6000;
inline constexpr size_t kHotSources = 4;
inline constexpr size_t kHotNames = 16;
/// broot_mix: the fig6 B-Root operating point.
inline constexpr double kRootRateQps = 2000;
inline constexpr size_t kRootClients = 5000;

bool known_workload(const std::string& name);

/// Generate the workload's trace for `seed`, `seconds` long. `rate_qps`
/// > 0 overrides the workload's fixed rate (rate-ladder exploration only).
std::vector<trace::TraceRecord> generate_trace(const std::string& workload, uint64_t seed,
                                               double seconds, double rate_qps = 0);

/// The mutation the workload applies at set-up (nullopt: none).
std::optional<mutate::MutatorPipeline> workload_mutation(const std::string& workload);

/// Zone master files the server parses: a root zone with 12 delegated TLDs
/// and example.com with a wildcard A record.
std::vector<std::string> zone_texts();

/// The rcode the server must give `query` under zone_texts().
dns::Rcode expected_rcode(const dns::Message& query);

/// Why `reply` is not a correct answer to the wire query `query`, or
/// nullopt when it is. The reply must decode, carry QR, echo the ID and
/// question, have expected_rcode(), and match `reference` (the server's own
/// uncached AuthServer::answer_wire reply to the same query) in its header
/// flags, EDNS and every record section.
std::optional<std::string> reply_mismatch(std::span<const uint8_t> query,
                                          std::span<const uint8_t> reply,
                                          std::span<const uint8_t> reference);

/// What a trace offers the layers (reported in the run output and doc).
struct TraceShape {
  size_t queries = 0;
  size_t sources = 0;            ///< distinct source addresses
  size_t udp_queries = 0;
  size_t do_queries = 0;         ///< EDNS DO set
  /// UDP queries whose template-cache key (qname, qtype, DO, payload
  /// limit) appeared earlier in the trace: the share an unbounded cache
  /// could serve.
  size_t cache_eligible = 0;
};

TraceShape describe(const std::vector<trace::TraceRecord>& trace);

}  // namespace ldp::replaybench
