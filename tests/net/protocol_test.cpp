/// Wire-protocol suite: encode→decode round-trip identity for every message
/// type (including the golden platform corpus), plus the negative paths a
/// network peer can actually hit — truncated frames, oversize length
/// prefixes, bad magic/version, unknown types, counts that do not fit the
/// payload, and sentinel smuggling in the deadline field. Decoding must
/// never trust a peer-supplied length.

#include "net/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "graph/hash.hpp"
#include "graph/io.hpp"

#ifndef PMCAST_TEST_DATA_DIR
#error "PMCAST_TEST_DATA_DIR must point at tests/data (set by CMake)"
#endif

namespace pmcast::net {
namespace {

Problem diamond_problem() {
  Digraph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 2, 3.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(2, 3, 1.5);
  g.add_edge(1, 2, 0.5);
  return Problem(std::move(g), 0, {1, 3});
}

WireRequest sample_request() {
  WireRequest r;
  r.tenant = 7;
  r.request_id = 42;
  r.deadline_ms = 1500.0;
  r.priority = 3;
  r.strategy_mask = mask_from_strategies(std::vector<StrategyId>{
      StrategyId::Mcph, StrategyId::MulticastUb});
  r.exact_max_nodes = 10;
  r.exact_max_trees = 50'000;
  r.pruning = static_cast<std::uint8_t>(PruningPolicy::Deterministic);
  r.known_lower_bound = 2.5;
  r.problem = diamond_problem();
  return r;
}

/// Run one encoded message through extract_frame, expecting exactly one
/// whole well-formed frame.
Frame must_extract(const std::vector<std::uint8_t>& bytes) {
  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  FrameStatus status = extract_frame(bytes, &frame, &consumed, &error);
  EXPECT_EQ(status, FrameStatus::kOk) << error;
  EXPECT_EQ(consumed, bytes.size());
  return frame;
}

// ----------------------------------------------------------- frame framing --

TEST(Protocol, EmptyAndPartialBuffersNeedMore) {
  std::vector<std::uint8_t> bytes = encode_cancel(1, 0);
  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(extract_frame(std::span<const std::uint8_t>{}, &frame, &consumed,
                          &error),
            FrameStatus::kNeedMore);
  // Every strict prefix of a valid frame: kNeedMore, nothing consumed.
  for (std::size_t len = 1; len < bytes.size(); ++len) {
    consumed = 999;
    EXPECT_EQ(extract_frame(std::span(bytes.data(), len), &frame, &consumed,
                            &error),
              FrameStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(Protocol, MidFrameDisconnectNeverConsumes) {
  // A peer that dies mid-frame leaves a valid prefix in the buffer; the
  // extractor must keep reporting kNeedMore without consuming bytes, so
  // the server can simply close on EOF.
  std::vector<std::uint8_t> bytes = encode_stats_request(9);
  bytes.resize(bytes.size() / 2);
  Frame frame;
  std::size_t consumed = 1234;
  std::string error;
  EXPECT_EQ(extract_frame(bytes, &frame, &consumed, &error),
            FrameStatus::kNeedMore);
  EXPECT_EQ(consumed, 1234u);  // untouched on kNeedMore
}

TEST(Protocol, BadMagicRejectedFromTheFirstBytes) {
  // Garbage is rejected as soon as its first byte mismatches — no waiting
  // for 24 bytes of a "header" that can never become one.
  std::vector<std::uint8_t> garbage = {'G', 'E', 'T', ' '};
  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(extract_frame(std::span(garbage.data(), 1), &frame, &consumed,
                          &error),
            FrameStatus::kMalformed);
  EXPECT_EQ(error, "bad magic");

  std::vector<std::uint8_t> bytes = encode_cancel(1, 0);
  bytes[3] = 'X';  // full header present, wrong magic
  EXPECT_EQ(extract_frame(bytes, &frame, &consumed, &error),
            FrameStatus::kMalformed);
  EXPECT_EQ(error, "bad magic");
}

TEST(Protocol, BadVersionAndUnknownTypeAreMalformed) {
  Frame frame;
  std::size_t consumed = 0;
  std::string error;

  std::vector<std::uint8_t> bytes = encode_cancel(1, 0);
  bytes[4] = 99;  // version byte
  EXPECT_EQ(extract_frame(bytes, &frame, &consumed, &error),
            FrameStatus::kMalformed);
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  bytes = encode_cancel(1, 0);
  bytes[5] = 0;  // type byte below the valid range
  EXPECT_EQ(extract_frame(bytes, &frame, &consumed, &error),
            FrameStatus::kMalformed);
  bytes[5] = 9;  // above the valid range (8 = kTraceResponse is the last)
  EXPECT_EQ(extract_frame(bytes, &frame, &consumed, &error),
            FrameStatus::kMalformed);
  EXPECT_NE(error.find("message type"), std::string::npos) << error;
}

TEST(Protocol, OversizePayloadLengthIsMalformedNotAnAllocation) {
  // A corrupted/hostile length prefix larger than kMaxPayload must be
  // rejected from the header alone — never "wait for 4 GiB of payload".
  std::vector<std::uint8_t> bytes = encode_cancel(1, 0);
  const std::uint32_t huge = kMaxPayload + 1;
  std::memcpy(bytes.data() + 20, &huge, sizeof(huge));
  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(extract_frame(bytes, &frame, &consumed, &error),
            FrameStatus::kMalformed);
  EXPECT_NE(error.find("exceeds limit"), std::string::npos) << error;
}

TEST(Protocol, BackToBackFramesExtractOneAtATime) {
  std::vector<std::uint8_t> bytes = encode_cancel(1, 3);
  std::vector<std::uint8_t> second = encode_stats_request(2);
  bytes.insert(bytes.end(), second.begin(), second.end());

  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(extract_frame(bytes, &frame, &consumed, &error), FrameStatus::kOk);
  EXPECT_EQ(frame.header.type, MessageType::kCancel);
  EXPECT_EQ(frame.header.request_id, 1u);
  EXPECT_EQ(frame.header.tenant, 3u);
  bytes.erase(bytes.begin(),
              bytes.begin() + static_cast<std::ptrdiff_t>(consumed));
  ASSERT_EQ(extract_frame(bytes, &frame, &consumed, &error), FrameStatus::kOk);
  EXPECT_EQ(frame.header.type, MessageType::kStatsRequest);
  EXPECT_EQ(frame.header.request_id, 2u);
  EXPECT_EQ(consumed, bytes.size());
}

// ------------------------------------------------------ request round trip --

TEST(Protocol, SolveRequestRoundTripsEveryField) {
  WireRequest original = sample_request();
  Frame frame = must_extract(encode_solve_request(original));
  ASSERT_EQ(frame.header.type, MessageType::kSolveRequest);

  Result<WireRequest> decoded = decode_solve_request(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->tenant, original.tenant);
  EXPECT_EQ(decoded->request_id, original.request_id);
  EXPECT_FALSE(decoded->no_deadline);
  EXPECT_DOUBLE_EQ(decoded->deadline_ms, original.deadline_ms);
  EXPECT_EQ(decoded->priority, original.priority);
  EXPECT_EQ(decoded->strategy_mask, original.strategy_mask);
  EXPECT_EQ(decoded->exact_max_nodes, original.exact_max_nodes);
  EXPECT_EQ(decoded->exact_max_trees, original.exact_max_trees);
  EXPECT_EQ(decoded->pruning, original.pruning);
  EXPECT_DOUBLE_EQ(decoded->known_lower_bound, original.known_lower_bound);

  // The decoded problem is the same *instance*, by canonical key.
  EXPECT_EQ(instance_key(decoded->problem.graph, decoded->problem.source,
                         decoded->problem.targets),
            instance_key(original.problem.graph, original.problem.source,
                         original.problem.targets));

  // ... and re-encoding is byte-identical (canonical encoding is stable).
  EXPECT_EQ(encode_solve_request(*decoded), encode_solve_request(original));

  SolveRequest request = decoded->to_solve_request();
  EXPECT_DOUBLE_EQ(request.deadline_ms, 1500.0);
  EXPECT_EQ(request.strategies,
            (std::vector<StrategyId>{StrategyId::Mcph,
                                     StrategyId::MulticastUb}));
  EXPECT_EQ(request.limits.exact_max_nodes, 10);
  ASSERT_TRUE(request.pruning.has_value());
  EXPECT_EQ(*request.pruning, PruningPolicy::Deterministic);
}

TEST(Protocol, NoDeadlineTravelsAsFlagAndRestoresSentinel) {
  WireRequest original = sample_request();
  original.no_deadline = true;
  original.deadline_ms = 0.0;
  Frame frame = must_extract(encode_solve_request(original));
  EXPECT_EQ(frame.header.flags & kFlagNoDeadline, kFlagNoDeadline);

  Result<WireRequest> decoded = decode_solve_request(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_TRUE(decoded->no_deadline);
  // The in-memory sentinel is restored on the far side, never transmitted.
  EXPECT_DOUBLE_EQ(decoded->to_solve_request().deadline_ms,
                   SolveRequest::kNoDeadline);
}

TEST(Protocol, CanonicalEncodingIgnoresConstructionOrder) {
  // Same instance, edges and targets listed differently: identical bytes.
  Digraph a(4);
  a.add_edge(0, 1, 2.0);
  a.add_edge(1, 3, 1.0);
  a.add_edge(0, 2, 3.0);
  Digraph b(4);
  b.add_edge(0, 2, 3.0);
  b.add_edge(0, 1, 2.0);
  b.add_edge(1, 3, 1.0);
  std::vector<std::uint8_t> bytes_a, bytes_b;
  encode_problem(Problem(std::move(a), 0, {3, 1}), &bytes_a);
  encode_problem(Problem(std::move(b), 0, {1, 3}), &bytes_b);
  EXPECT_EQ(bytes_a, bytes_b);
}

// ------------------------------------------------------- request negatives --

/// Flip the kFlagNoDeadline bit on an already-encoded request frame.
std::vector<std::uint8_t> with_no_deadline_flag(
    std::vector<std::uint8_t> bytes) {
  bytes[6] |= static_cast<std::uint8_t>(kFlagNoDeadline);
  return bytes;
}

TEST(Protocol, DeadlineSentinelsCannotBeForgedOnTheWire) {
  // A negative (in-memory kNoDeadline-style) deadline in the payload is
  // rejected: the only wire spelling of "no deadline" is the header flag.
  WireRequest request = sample_request();
  std::vector<std::uint8_t> bytes = encode_solve_request(request);
  const double smuggled = -1.0;
  std::memcpy(bytes.data() + kHeaderBytes, &smuggled, sizeof(smuggled));
  Result<WireRequest> decoded = decode_solve_request(must_extract(bytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("no-deadline flag"),
            std::string::npos)
      << decoded.status().to_string();

  // Flag + nonzero deadline is contradictory, also malformed.
  decoded = decode_solve_request(
      must_extract(with_no_deadline_flag(encode_solve_request(request))));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("nonzero deadline"),
            std::string::npos)
      << decoded.status().to_string();

  // The pruning byte accepts 0xFF (inherit), 0 (off) and 1 (deterministic)
  // only. It sits after deadline f64, priority i32, mask u32, max_nodes
  // i32 and max_trees u64.
  bytes = encode_solve_request(request);
  bytes[kHeaderBytes + 28] = 2;
  decoded = decode_solve_request(must_extract(bytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("unknown pruning policy"),
            std::string::npos)
      << decoded.status().to_string();
}

TEST(Protocol, TruncatedRequestBodyIsMalformed) {
  std::vector<std::uint8_t> bytes = encode_solve_request(sample_request());
  // Shrink the payload and fix up the length prefix so the *frame* stays
  // well-formed while the body is cut mid-field.
  for (std::size_t cut : {1u, 8u, 20u, 40u}) {
    std::vector<std::uint8_t> short_bytes = bytes;
    short_bytes.resize(bytes.size() - cut);
    const std::uint32_t len =
        static_cast<std::uint32_t>(short_bytes.size() - kHeaderBytes);
    std::memcpy(short_bytes.data() + 20, &len, sizeof(len));
    Result<WireRequest> decoded =
        decode_solve_request(must_extract(short_bytes));
    EXPECT_FALSE(decoded.ok()) << "cut " << cut << " bytes";
  }
}

TEST(Protocol, ClaimedCountsMustFitThePayload) {
  // A request whose edge count claims more bytes than the payload holds is
  // rejected *before* any allocation sized by the count.
  WireRequest request = sample_request();
  std::vector<std::uint8_t> bytes = encode_solve_request(request);
  // Payload layout: deadline f64, priority i32, mask u32, max_nodes i32,
  // max_trees u64, pruning u8, lower_bound f64 = 37 bytes, then the
  // problem body: node_count u32, edge_count u32.
  const std::size_t edge_count_at = kHeaderBytes + 37 + 4;
  const std::uint32_t huge = 1'000'000;
  std::memcpy(bytes.data() + edge_count_at, &huge, sizeof(huge));
  Result<WireRequest> decoded = decode_solve_request(must_extract(bytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("does not fit"),
            std::string::npos)
      << decoded.status().to_string();
}

TEST(Protocol, DecodedProblemsAreStructurallyValidated) {
  // source == target smuggled through the wire must fail decode, not
  // trip an assert in the Problem constructor.
  WireRequest request = sample_request();
  std::vector<std::uint8_t> bytes = encode_solve_request(request);
  // Problem tail: ... source u32, target_count u32, targets (sorted: 1, 3).
  const std::size_t first_target_at = bytes.size() - 8;
  const std::uint32_t source_as_target = 0;
  std::memcpy(bytes.data() + first_target_at, &source_as_target, 4);
  Result<WireRequest> decoded = decode_solve_request(must_extract(bytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("source"), std::string::npos)
      << decoded.status().to_string();
}

TEST(Protocol, TrailingBytesAreMalformed) {
  std::vector<std::uint8_t> bytes = encode_solve_request(sample_request());
  bytes.push_back(0);
  const std::uint32_t len =
      static_cast<std::uint32_t>(bytes.size() - kHeaderBytes);
  std::memcpy(bytes.data() + 20, &len, sizeof(len));
  Result<WireRequest> decoded = decode_solve_request(must_extract(bytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos);
}

// ----------------------------------------------- response/error round trip --

TEST(Protocol, SolveResponseRoundTripsEveryField) {
  WireResponse original;
  original.request_id = 77;
  original.period = 12.5;
  original.winner = static_cast<std::uint8_t>(StrategyId::ReducedBroadcast);
  original.from_cache = 1;
  original.coalesced = 0;
  original.brownout = 1;
  original.solve_ms = 3.25;
  original.total_ms = 4.5;
  original.queue_ms = 1.25;
  original.certified = 5;
  original.failed = 1;
  original.skipped = 2;
  original.pruned = 3;
  original.proven_lower_bound = 11.0;
  original.outcomes.push_back(
      {static_cast<std::uint8_t>(StrategyId::Mcph), 0, 13.0, 0.5});
  original.outcomes.push_back(
      {static_cast<std::uint8_t>(StrategyId::Exact), 2, 0.0, 0.0});

  Frame frame = must_extract(encode_solve_response(original, 9));
  EXPECT_EQ(frame.header.tenant, 9u);
  Result<WireResponse> decoded = decode_solve_response(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->request_id, 77u);
  EXPECT_DOUBLE_EQ(decoded->period, original.period);
  EXPECT_EQ(decoded->winner, original.winner);
  EXPECT_EQ(decoded->from_cache, 1);
  EXPECT_EQ(decoded->brownout, 1);
  EXPECT_DOUBLE_EQ(decoded->solve_ms, original.solve_ms);
  EXPECT_DOUBLE_EQ(decoded->total_ms, original.total_ms);
  EXPECT_DOUBLE_EQ(decoded->queue_ms, original.queue_ms);
  EXPECT_EQ(decoded->certified, original.certified);
  EXPECT_EQ(decoded->failed, original.failed);
  EXPECT_EQ(decoded->skipped, original.skipped);
  EXPECT_EQ(decoded->pruned, original.pruned);
  EXPECT_DOUBLE_EQ(decoded->proven_lower_bound,
                   original.proven_lower_bound);
  ASSERT_EQ(decoded->outcomes.size(), 2u);
  EXPECT_EQ(decoded->outcomes[0].strategy,
            static_cast<std::uint8_t>(StrategyId::Mcph));
  EXPECT_DOUBLE_EQ(decoded->outcomes[0].period, 13.0);
  EXPECT_EQ(encode_solve_response(*decoded, 9),
            encode_solve_response(original, 9));
}

TEST(Protocol, ResponseOutcomeCountMustFitThePayload) {
  WireResponse response;
  response.request_id = 1;
  std::vector<std::uint8_t> bytes = encode_solve_response(response);
  // Outcome count is the last u32 of the fixed body (payload is 78 bytes
  // for zero outcomes; the count sits in the final 4).
  const std::uint32_t huge = 50;
  std::memcpy(bytes.data() + bytes.size() - 4, &huge, sizeof(huge));
  Result<WireResponse> decoded = decode_solve_response(must_extract(bytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("does not fit"),
            std::string::npos);
}

TEST(Protocol, ErrorRoundTripAndStatusMapping) {
  Frame frame = must_extract(
      encode_error(13, 2, WireError::kOverloaded, "queue delay 80ms > 50ms"));
  Result<WireErrorMessage> decoded = decode_error(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->request_id, 13u);
  EXPECT_EQ(decoded->code, WireError::kOverloaded);
  EXPECT_EQ(decoded->message, "queue delay 80ms > 50ms");
  // Overloaded and ShuttingDown are retryable on the client Status model.
  EXPECT_EQ(decoded->to_status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(wire_error_status(WireError::kShuttingDown),
            StatusCode::kUnavailable);
  EXPECT_EQ(wire_error_status(WireError::kDeadlineExceeded),
            StatusCode::kDeadlineExceeded);
  // Status -> wire -> Status is stable for the codes a server actually maps.
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kDeadlineExceeded,
        StatusCode::kCancelled, StatusCode::kResourceExhausted,
        StatusCode::kUnavailable}) {
    EXPECT_EQ(wire_error_status(wire_error_from_status(code)), code);
  }
}

TEST(Protocol, ErrorMessageLengthIsBoundsChecked) {
  std::vector<std::uint8_t> bytes =
      encode_error(1, 0, WireError::kInternal, "short");
  const std::uint32_t lie = 1000;  // claims far more text than present
  std::memcpy(bytes.data() + kHeaderBytes + 2, &lie, sizeof(lie));
  Result<WireErrorMessage> decoded = decode_error(must_extract(bytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("does not fit"),
            std::string::npos);
}

TEST(Protocol, StatsRoundTripsEveryCounter) {
  ServerWireStats original;
  original.uptime_ms = 123456.0;
  original.connections_accepted = 300;
  original.connections_open = 12;
  original.requests_admitted = 5000;
  original.brownout_admitted = 70;
  original.responses_sent = 4800;
  original.errors_sent = 150;
  original.shed_qps = 40;
  original.shed_in_flight = 50;
  original.shed_deadline = 30;
  original.shed_shutdown = 30;
  original.protocol_errors = 2;
  original.closed_idle_timeout = 7;
  original.closed_read_timeout = 3;
  original.closed_backpressure = 1;
  original.faults_injected = 19;
  original.in_flight = 8;
  original.worker_threads = 4;
  original.cache_shards = 2;
  original.cache_hits = 900;
  original.cache_misses = 100;
  original.cache_entries = 512;
  original.ewma_solve_ms = 17.5;

  Result<ServerWireStats> decoded =
      decode_stats_response(must_extract(encode_stats_response(original, 5)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_DOUBLE_EQ(decoded->uptime_ms, original.uptime_ms);
  EXPECT_EQ(decoded->connections_accepted, original.connections_accepted);
  EXPECT_EQ(decoded->requests_admitted, original.requests_admitted);
  EXPECT_EQ(decoded->brownout_admitted, original.brownout_admitted);
  EXPECT_EQ(decoded->responses_sent, original.responses_sent);
  EXPECT_EQ(decoded->errors_sent, original.errors_sent);
  EXPECT_EQ(decoded->total_shed(), 150u);
  EXPECT_EQ(decoded->protocol_errors, original.protocol_errors);
  EXPECT_EQ(decoded->closed_idle_timeout, original.closed_idle_timeout);
  EXPECT_EQ(decoded->closed_read_timeout, original.closed_read_timeout);
  EXPECT_EQ(decoded->closed_backpressure, original.closed_backpressure);
  EXPECT_EQ(decoded->faults_injected, original.faults_injected);
  EXPECT_EQ(decoded->worker_threads, original.worker_threads);
  EXPECT_EQ(decoded->cache_shards, original.cache_shards);
  EXPECT_DOUBLE_EQ(decoded->cache_hit_rate(), 0.9);
  EXPECT_DOUBLE_EQ(decoded->ewma_solve_ms, original.ewma_solve_ms);
}

TEST(Protocol, StatsTruncatedBodyIsMalformed) {
  // Drop the last counter's worth of bytes: a peer speaking the pre-resilience
  // stats layout must be rejected, not silently zero-filled.
  std::vector<std::uint8_t> bytes = encode_stats_response({}, 0);
  bytes.resize(bytes.size() - 8);
  const std::uint32_t len =
      static_cast<std::uint32_t>(bytes.size() - kHeaderBytes);
  std::memcpy(bytes.data() + 20, &len, sizeof(len));
  Result<ServerWireStats> decoded = decode_stats_response(must_extract(bytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("truncated"), std::string::npos);
}

TEST(Protocol, StatsTrailingBytesAreMalformed) {
  std::vector<std::uint8_t> bytes = encode_stats_response({}, 0);
  bytes.push_back(0);
  const std::uint32_t len =
      static_cast<std::uint32_t>(bytes.size() - kHeaderBytes);
  std::memcpy(bytes.data() + 20, &len, sizeof(len));
  Result<ServerWireStats> decoded = decode_stats_response(must_extract(bytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos);
}

// -------------------------------------------------------------------- trace --

ServerWireTrace sample_trace() {
  ServerWireTrace t;
  t.detail = 2;
  t.sub_scatter = {120, 30, 0.125};
  t.early_win = {60, 4, 1e-9};
  t.probe_poll = {900, 50, 0.5};
  t.reconstruct_skip = {10, 2, 3.25};
  t.checkpoint_hist = {5, 9, 14, 3, 0, 0, 1};
  t.checkpoint_polls = 32;
  t.checkpoint_total_us = 4096.0;
  t.checkpoint_max_us = 900.5;
  t.shard_heat = {{100, 20, 3, 40}, {80, 25, 0, 37}};
  return t;
}

TEST(Protocol, TraceRoundTripsEveryField) {
  ServerWireTrace original = sample_trace();
  Result<ServerWireTrace> decoded =
      decode_trace_response(must_extract(encode_trace_response(original, 9)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->detail, original.detail);
  EXPECT_EQ(decoded->sub_scatter.evaluated, original.sub_scatter.evaluated);
  EXPECT_EQ(decoded->sub_scatter.hits, original.sub_scatter.hits);
  EXPECT_DOUBLE_EQ(decoded->sub_scatter.closest_miss,
                   original.sub_scatter.closest_miss);
  EXPECT_EQ(decoded->early_win.hits, original.early_win.hits);
  EXPECT_DOUBLE_EQ(decoded->early_win.closest_miss,
                   original.early_win.closest_miss);
  EXPECT_EQ(decoded->probe_poll.evaluated, original.probe_poll.evaluated);
  EXPECT_EQ(decoded->reconstruct_skip.hits, original.reconstruct_skip.hits);
  EXPECT_EQ(decoded->checkpoint_hist, original.checkpoint_hist);
  EXPECT_EQ(decoded->checkpoint_polls, original.checkpoint_polls);
  EXPECT_DOUBLE_EQ(decoded->checkpoint_total_us, original.checkpoint_total_us);
  EXPECT_DOUBLE_EQ(decoded->checkpoint_max_us, original.checkpoint_max_us);
  ASSERT_EQ(decoded->shard_heat.size(), 2u);
  EXPECT_EQ(decoded->shard_heat[0].hits, 100u);
  EXPECT_EQ(decoded->shard_heat[1].entries, 37u);
  EXPECT_DOUBLE_EQ(decoded->checkpoint_mean_us(), 128.0);
}

TEST(Protocol, TraceRequestIsAnEmptyPayloadFrame) {
  Frame frame = must_extract(encode_trace_request(77));
  EXPECT_EQ(frame.header.type, MessageType::kTraceRequest);
  EXPECT_EQ(frame.header.request_id, 77u);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(Protocol, TraceCountsMustFitThePayload) {
  // Claim 2 shard-heat entries but truncate the frame after the first:
  // the decoder must reject without trusting the count.
  std::vector<std::uint8_t> bytes = encode_trace_response(sample_trace(), 1);
  Frame frame = must_extract(bytes);
  ASSERT_GE(frame.payload.size(), 32u);
  frame.payload.resize(frame.payload.size() - 32);
  Result<ServerWireTrace> decoded = decode_trace_response(frame);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(Protocol, TraceTrailingBytesAreMalformed) {
  std::vector<std::uint8_t> bytes = encode_trace_response(sample_trace(), 1);
  Frame frame = must_extract(bytes);
  frame.payload.push_back(0);
  Result<ServerWireTrace> decoded = decode_trace_response(frame);
  EXPECT_FALSE(decoded.ok());
}

// ------------------------------------------------------------ golden corpus --

TEST(Protocol, GoldenCorpusRoundTripsByteStable) {
  // Every checked-in platform instance survives encode→decode with its
  // canonical identity intact, and re-encoding the decoded problem is
  // byte-identical (the canonicalisation is a fixed point).
  const std::vector<std::string> corpus = {
      "fat_tree-n8-d30h-deg25-s9.platform", "fat_tree-n9-d50l-s2.platform",
      "geometric-n8-d50u-s7.platform",      "grid-n9-d30h-s4.platform",
      "grid-n9-d50l-torus-s5.platform",     "power_law-n8-d80u-s3.platform",
      "star-n8-d80l-s6.platform",           "star-n9-d50h-s10.platform",
      "tiers-n8-d50u-s1.platform",          "tiers-n9-d80l-deg20-s8.platform"};
  for (const std::string& file : corpus) {
    Result<PlatformFile> platform =
        load_platform(std::string(PMCAST_TEST_DATA_DIR) + "/" + file);
    ASSERT_TRUE(platform.ok()) << platform.status().to_string();
    WireRequest request;
    request.request_id = 1;
    request.problem =
        Problem(platform->graph, platform->source, platform->targets);

    std::vector<std::uint8_t> bytes = encode_solve_request(request);
    Result<WireRequest> decoded = decode_solve_request(must_extract(bytes));
    ASSERT_TRUE(decoded.ok()) << file << ": "
                              << decoded.status().to_string();
    EXPECT_EQ(instance_key(decoded->problem.graph, decoded->problem.source,
                           decoded->problem.targets),
              instance_key(platform->graph, platform->source,
                           platform->targets))
        << file;
    EXPECT_EQ(encode_solve_request(*decoded), bytes) << file;
  }
}

}  // namespace
}  // namespace pmcast::net
