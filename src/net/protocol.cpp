#include "net/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace pmcast::net {
namespace {

// "PMC1" as bytes; read back as a little-endian u32 this is 0x31434D50.
constexpr std::uint32_t kMagic = 0x31434D50u;

// ------------------------------------------------------------------ writer --

struct Writer {
  std::vector<std::uint8_t> buf;

  void u8(std::uint8_t v) { buf.push_back(v); }
  void u16(std::uint16_t v) {
    buf.push_back(static_cast<std::uint8_t>(v));
    buf.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(std::string_view s) {
    buf.insert(buf.end(), s.begin(), s.end());
  }
};

// ------------------------------------------------------------------ reader --

/// Bounds-checked cursor over a payload. Every take_* checks remaining()
/// first; once failed() the reader stays failed and returns zeros, so a
/// decode function can run to the end and report one error.
struct Reader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;
  bool fail = false;

  std::size_t remaining() const { return fail ? 0 : data.size() - pos; }
  bool failed() const { return fail; }

  bool need(std::size_t n) {
    if (fail || data.size() - pos < n) {
      fail = true;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data[pos++];
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(data[pos]) |
                      static_cast<std::uint16_t>(data[pos + 1]) << 8;
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str(std::size_t n) {
    if (!need(n)) return {};
    std::string s(reinterpret_cast<const char*>(data.data() + pos), n);
    pos += n;
    return s;
  }
};

Status malformed(const std::string& what) {
  return Status(StatusCode::kInvalidArgument, "malformed frame: " + what);
}

/// A decoded count is only trusted after checking that the bytes it claims
/// to describe are actually present (elem_bytes per element, minimum 1).
bool count_fits(const Reader& r, std::uint64_t count, std::size_t elem_bytes) {
  return count <= r.remaining() / std::max<std::size_t>(elem_bytes, 1);
}

}  // namespace

const char* wire_error_name(WireError code) {
  switch (code) {
    case WireError::kInvalidArgument: return "invalid_argument";
    case WireError::kFailedPrecondition: return "failed_precondition";
    case WireError::kNotFound: return "not_found";
    case WireError::kDeadlineExceeded: return "deadline_exceeded";
    case WireError::kCancelled: return "cancelled";
    case WireError::kResourceExhausted: return "resource_exhausted";
    case WireError::kUnavailable: return "unavailable";
    case WireError::kInternal: return "internal";
    case WireError::kOverloaded: return "overloaded";
    case WireError::kShuttingDown: return "shutting_down";
    case WireError::kProtocol: return "protocol_error";
  }
  return "?";
}

StatusCode wire_error_status(WireError code) {
  switch (code) {
    case WireError::kInvalidArgument: return StatusCode::kInvalidArgument;
    case WireError::kFailedPrecondition: return StatusCode::kFailedPrecondition;
    case WireError::kNotFound: return StatusCode::kNotFound;
    case WireError::kDeadlineExceeded: return StatusCode::kDeadlineExceeded;
    case WireError::kCancelled: return StatusCode::kCancelled;
    case WireError::kResourceExhausted: return StatusCode::kResourceExhausted;
    case WireError::kUnavailable:
    case WireError::kOverloaded:
    case WireError::kShuttingDown: return StatusCode::kUnavailable;
    case WireError::kInternal:
    case WireError::kProtocol: return StatusCode::kInternal;
  }
  return StatusCode::kInternal;
}

WireError wire_error_from_status(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
    case StatusCode::kInternal: return WireError::kInternal;
    case StatusCode::kInvalidArgument: return WireError::kInvalidArgument;
    case StatusCode::kFailedPrecondition: return WireError::kFailedPrecondition;
    case StatusCode::kParseError: return WireError::kInvalidArgument;
    case StatusCode::kNotFound: return WireError::kNotFound;
    case StatusCode::kDeadlineExceeded: return WireError::kDeadlineExceeded;
    case StatusCode::kCancelled: return WireError::kCancelled;
    case StatusCode::kResourceExhausted: return WireError::kResourceExhausted;
    case StatusCode::kUnavailable: return WireError::kUnavailable;
  }
  return WireError::kInternal;
}

// ------------------------------------------------------------------ frames --

namespace {

std::vector<std::uint8_t> finish_frame(MessageType type, std::uint16_t flags,
                                       std::uint32_t tenant,
                                       std::uint64_t request_id,
                                       Writer payload) {
  Writer w;
  w.buf.reserve(kHeaderBytes + payload.buf.size());
  w.u32(kMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(flags);
  w.u32(tenant);
  w.u64(request_id);
  w.u32(static_cast<std::uint32_t>(payload.buf.size()));
  w.buf.insert(w.buf.end(), payload.buf.begin(), payload.buf.end());
  return std::move(w.buf);
}

bool known_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(MessageType::kSolveRequest) &&
         t <= static_cast<std::uint8_t>(MessageType::kTraceResponse);
}

}  // namespace

FrameStatus extract_frame(std::span<const std::uint8_t> buffer, Frame* frame,
                          std::size_t* consumed, std::string* error) {
  auto set_error = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return FrameStatus::kMalformed;
  };
  if (buffer.size() < kHeaderBytes) {
    // Reject garbage as early as its first bytes arrive: a partial header
    // whose magic prefix already mismatches can never become a frame.
    for (std::size_t i = 0; i < buffer.size() && i < 4; ++i) {
      if (buffer[i] != static_cast<std::uint8_t>(kMagic >> (8 * i))) {
        return set_error("bad magic");
      }
    }
    return FrameStatus::kNeedMore;
  }
  Reader r{buffer};
  const std::uint32_t magic = r.u32();
  if (magic != kMagic) return set_error("bad magic");
  FrameHeader header;
  header.version = r.u8();
  const std::uint8_t raw_type = r.u8();
  header.flags = r.u16();
  header.tenant = r.u32();
  header.request_id = r.u64();
  header.payload_len = r.u32();
  if (header.version != kProtocolVersion) {
    return set_error("unsupported protocol version " +
                     std::to_string(header.version));
  }
  if (!known_type(raw_type)) {
    return set_error("unknown message type " + std::to_string(raw_type));
  }
  header.type = static_cast<MessageType>(raw_type);
  if (header.payload_len > kMaxPayload) {
    return set_error("payload length " + std::to_string(header.payload_len) +
                     " exceeds limit " + std::to_string(kMaxPayload));
  }
  const std::size_t total = kHeaderBytes + header.payload_len;
  if (buffer.size() < total) return FrameStatus::kNeedMore;
  frame->header = header;
  frame->payload.assign(buffer.begin() + kHeaderBytes,
                        buffer.begin() + static_cast<std::ptrdiff_t>(total));
  *consumed = total;
  return FrameStatus::kOk;
}

// ----------------------------------------------------------------- problem --

void encode_problem(const Problem& problem, std::vector<std::uint8_t>* out) {
  Writer w;
  w.buf = std::move(*out);

  w.u32(static_cast<std::uint32_t>(problem.graph.node_count()));

  // Canonical edge order, exactly as hash_instance sorts its triples.
  struct Triple {
    NodeId from;
    NodeId to;
    std::uint64_t cost_bits;
    bool operator<(const Triple& o) const {
      if (from != o.from) return from < o.from;
      if (to != o.to) return to < o.to;
      return cost_bits < o.cost_bits;
    }
  };
  std::vector<Triple> triples;
  triples.reserve(static_cast<std::size_t>(problem.graph.edge_count()));
  for (const Edge& e : problem.graph.edges()) {
    triples.push_back({e.from, e.to, std::bit_cast<std::uint64_t>(e.cost)});
  }
  std::sort(triples.begin(), triples.end());
  w.u32(static_cast<std::uint32_t>(triples.size()));
  for (const Triple& t : triples) {
    w.u32(static_cast<std::uint32_t>(t.from));
    w.u32(static_cast<std::uint32_t>(t.to));
    w.u64(t.cost_bits);
  }

  w.u32(static_cast<std::uint32_t>(problem.source));

  // Canonical target order: sorted, duplicates collapsed.
  std::vector<NodeId> targets = problem.targets;
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  w.u32(static_cast<std::uint32_t>(targets.size()));
  for (NodeId t : targets) w.u32(static_cast<std::uint32_t>(t));

  *out = std::move(w.buf);
}

Result<Problem> decode_problem(std::span<const std::uint8_t> bytes,
                               std::size_t* pos) {
  Reader r{bytes, *pos};
  const std::uint32_t node_count = r.u32();
  if (r.failed()) return malformed("truncated problem node count");
  if (node_count == 0 || node_count > kMaxNodes) {
    return malformed("node count " + std::to_string(node_count) +
                     " out of range [1, " + std::to_string(kMaxNodes) + "]");
  }

  const std::uint32_t edge_count = r.u32();
  if (r.failed()) return malformed("truncated problem edge count");
  // 16 bytes per edge on the wire; reject before reserving anything.
  if (edge_count > kMaxEdges || !count_fits(r, edge_count, 16)) {
    return malformed("edge count " + std::to_string(edge_count) +
                     " does not fit the payload");
  }
  Digraph graph(static_cast<int>(node_count));
  for (std::uint32_t i = 0; i < edge_count; ++i) {
    const std::uint32_t from = r.u32();
    const std::uint32_t to = r.u32();
    const double cost = r.f64();
    if (r.failed()) return malformed("truncated edge list");
    if (from >= node_count || to >= node_count || from == to) {
      return malformed("edge " + std::to_string(from) + "->" +
                       std::to_string(to) + " has an invalid endpoint");
    }
    if (!std::isfinite(cost) || cost <= 0.0) {
      return malformed("edge cost must be finite and > 0");
    }
    graph.add_edge(static_cast<NodeId>(from), static_cast<NodeId>(to), cost);
  }

  const std::uint32_t source = r.u32();
  const std::uint32_t target_count = r.u32();
  if (r.failed()) return malformed("truncated source/target section");
  if (target_count > node_count || !count_fits(r, target_count, 4)) {
    return malformed("target count " + std::to_string(target_count) +
                     " does not fit the payload");
  }
  std::vector<NodeId> targets;
  targets.reserve(target_count);
  for (std::uint32_t i = 0; i < target_count; ++i) {
    const std::uint32_t t = r.u32();
    if (r.failed()) return malformed("truncated target list");
    if (t >= node_count) {
      return malformed("target id " + std::to_string(t) + " out of range");
    }
    targets.push_back(static_cast<NodeId>(t));
  }

  // Full structural validation (source in range and not a target, no
  // duplicate targets, non-empty target set) before the asserting
  // Problem constructor runs.
  if (source >= node_count) return malformed("source id out of range");
  Status valid =
      validate_problem(graph, static_cast<NodeId>(source), targets);
  if (!valid.ok()) {
    return Status(StatusCode::kInvalidArgument,
                  "malformed frame: " + valid.message());
  }
  *pos = r.pos;
  return Problem(std::move(graph), static_cast<NodeId>(source),
                 std::move(targets));
}

std::vector<StrategyId> strategies_from_mask(std::uint32_t mask) {
  std::vector<StrategyId> out;
  if (mask == 0) return out;
  for (StrategyId id : all_strategy_ids()) {
    if (mask & (1u << static_cast<unsigned>(id))) out.push_back(id);
  }
  return out;
}

std::uint32_t mask_from_strategies(std::span<const StrategyId> strategies) {
  std::uint32_t mask = 0;
  for (StrategyId id : strategies) mask |= 1u << static_cast<unsigned>(id);
  return mask;
}

// --------------------------------------------------------- fault injection --

FaultDecision apply_frame_fault(FaultPlan* plan, FaultPoint point,
                                std::vector<std::uint8_t>* bytes) {
  if (plan == nullptr) return {};
  FaultDecision decision = plan->poll(point);
  if (decision.action == FaultAction::kTruncate && bytes != nullptr) {
    const std::size_t drop =
        std::min<std::size_t>(decision.magnitude, bytes->size());
    bytes->resize(bytes->size() - drop);
  }
  return decision;
}

// ----------------------------------------------------------------- request --

SolveRequest WireRequest::to_solve_request() const {
  SolveRequest out;
  out.problem = problem;
  out.deadline_ms = no_deadline ? SolveRequest::kNoDeadline : deadline_ms;
  out.priority = priority;
  out.strategies = strategies_from_mask(strategy_mask);
  out.limits.exact_max_nodes = exact_max_nodes;
  out.limits.exact_max_trees = static_cast<std::size_t>(exact_max_trees);
  if (pruning != kInheritPruning) {
    out.pruning = static_cast<PruningPolicy>(pruning);
  }
  out.known_lower_bound = known_lower_bound;
  return out;
}

std::vector<std::uint8_t> encode_solve_request(const WireRequest& request) {
  Writer p;
  p.f64(request.no_deadline ? 0.0 : request.deadline_ms);
  p.i32(request.priority);
  p.u32(request.strategy_mask);
  p.i32(request.exact_max_nodes);
  p.u64(request.exact_max_trees);
  p.u8(request.pruning);
  p.f64(request.known_lower_bound);
  encode_problem(request.problem, &p.buf);
  return finish_frame(MessageType::kSolveRequest,
                      request.no_deadline ? kFlagNoDeadline : std::uint16_t{0},
                      request.tenant, request.request_id, std::move(p));
}

Result<WireRequest> decode_solve_request(const Frame& frame) {
  if (frame.header.type != MessageType::kSolveRequest) {
    return malformed("not a solve_request frame");
  }
  WireRequest out;
  out.tenant = frame.header.tenant;
  out.request_id = frame.header.request_id;
  out.no_deadline = (frame.header.flags & kFlagNoDeadline) != 0;

  Reader r{frame.payload};
  out.deadline_ms = r.f64();
  out.priority = r.i32();
  out.strategy_mask = r.u32();
  out.exact_max_nodes = r.i32();
  out.exact_max_trees = r.u64();
  out.pruning = r.u8();
  out.known_lower_bound = r.f64();
  if (r.failed()) return malformed("truncated solve_request body");
  // Sentinel safety: relative deadlines are non-negative finite ms, and the
  // only spelling of "no deadline" is the header flag.
  if (!std::isfinite(out.deadline_ms) || out.deadline_ms < 0.0) {
    return malformed("deadline must be finite and >= 0 "
                     "(use the no-deadline flag, not a sentinel)");
  }
  if (out.no_deadline && out.deadline_ms != 0.0) {
    return malformed("no-deadline flag with a nonzero deadline");
  }
  if (out.pruning != WireRequest::kInheritPruning &&
      out.pruning > static_cast<std::uint8_t>(PruningPolicy::Deterministic)) {
    return malformed("unknown pruning policy " + std::to_string(out.pruning));
  }
  if (!std::isfinite(out.known_lower_bound) || out.known_lower_bound < 0.0) {
    return malformed("known lower bound must be finite and >= 0");
  }

  std::size_t pos = r.pos;
  Result<Problem> problem = decode_problem(frame.payload, &pos);
  if (!problem.ok()) return problem.status();
  if (pos != frame.payload.size()) {
    return malformed("trailing bytes after solve_request body");
  }
  out.problem = std::move(*problem);
  return out;
}

// ---------------------------------------------------------------- response --

WireResponse make_wire_response(std::uint64_t request_id,
                                const SolveResponse& response,
                                double queue_ms, bool brownout) {
  WireResponse out;
  out.request_id = request_id;
  out.period = response.period;
  out.winner = static_cast<std::uint8_t>(response.winner);
  out.from_cache = response.provenance.from_cache ? 1 : 0;
  out.coalesced = response.provenance.coalesced ? 1 : 0;
  out.brownout = brownout ? 1 : 0;
  out.solve_ms = response.timing.solve_ms;
  out.total_ms = response.timing.total_ms;
  out.queue_ms = queue_ms;
  out.certified = static_cast<std::uint32_t>(response.certificate.certified);
  out.failed = static_cast<std::uint32_t>(response.certificate.failed);
  out.skipped = static_cast<std::uint32_t>(response.certificate.skipped);
  out.pruned = static_cast<std::uint32_t>(response.certificate.pruned);
  out.proven_lower_bound = response.pruning.proven_lower_bound;
  for (const StrategyOutcome& o : response.outcomes) {
    if (out.outcomes.size() >= kMaxOutcomes) break;
    out.outcomes.push_back({static_cast<std::uint8_t>(o.strategy),
                            static_cast<std::uint8_t>(o.state), o.period,
                            o.elapsed_ms});
  }
  return out;
}

std::vector<std::uint8_t> encode_solve_response(const WireResponse& response,
                                                std::uint32_t tenant) {
  Writer p;
  p.f64(response.period);
  p.u8(response.winner);
  p.u8(response.from_cache);
  p.u8(response.coalesced);
  p.u8(response.brownout);
  p.f64(response.solve_ms);
  p.f64(response.total_ms);
  p.f64(response.queue_ms);
  p.u32(response.certified);
  p.u32(response.failed);
  p.u32(response.skipped);
  p.u32(response.pruned);
  p.f64(response.proven_lower_bound);
  p.u32(static_cast<std::uint32_t>(
      std::min<std::size_t>(response.outcomes.size(), kMaxOutcomes)));
  std::size_t emitted = 0;
  for (const WireOutcome& o : response.outcomes) {
    if (emitted++ >= kMaxOutcomes) break;
    p.u8(o.strategy);
    p.u8(o.state);
    p.f64(o.period);
    p.f64(o.elapsed_ms);
  }
  return finish_frame(MessageType::kSolveResponse, 0, tenant,
                      response.request_id, std::move(p));
}

Result<WireResponse> decode_solve_response(const Frame& frame) {
  if (frame.header.type != MessageType::kSolveResponse) {
    return malformed("not a solve_response frame");
  }
  WireResponse out;
  out.request_id = frame.header.request_id;
  Reader r{frame.payload};
  out.period = r.f64();
  out.winner = r.u8();
  out.from_cache = r.u8();
  out.coalesced = r.u8();
  out.brownout = r.u8();
  out.solve_ms = r.f64();
  out.total_ms = r.f64();
  out.queue_ms = r.f64();
  out.certified = r.u32();
  out.failed = r.u32();
  out.skipped = r.u32();
  out.pruned = r.u32();
  out.proven_lower_bound = r.f64();
  const std::uint32_t n_outcomes = r.u32();
  if (r.failed()) return malformed("truncated solve_response body");
  if (n_outcomes > kMaxOutcomes || !count_fits(r, n_outcomes, 18)) {
    return malformed("outcome count " + std::to_string(n_outcomes) +
                     " does not fit the payload");
  }
  out.outcomes.reserve(n_outcomes);
  for (std::uint32_t i = 0; i < n_outcomes; ++i) {
    WireOutcome o;
    o.strategy = r.u8();
    o.state = r.u8();
    o.period = r.f64();
    o.elapsed_ms = r.f64();
    if (r.failed()) return malformed("truncated outcome list");
    out.outcomes.push_back(o);
  }
  if (r.remaining() != 0) {
    return malformed("trailing bytes after solve_response body");
  }
  return out;
}

// ------------------------------------------------------------------- error --

std::vector<std::uint8_t> encode_error(std::uint64_t request_id,
                                       std::uint32_t tenant, WireError code,
                                       std::string_view message) {
  if (message.size() > kMaxErrorMessage) {
    message = message.substr(0, kMaxErrorMessage);
  }
  Writer p;
  p.u16(static_cast<std::uint16_t>(code));
  p.u32(static_cast<std::uint32_t>(message.size()));
  p.bytes(message);
  return finish_frame(MessageType::kError, 0, tenant, request_id,
                      std::move(p));
}

Result<WireErrorMessage> decode_error(const Frame& frame) {
  if (frame.header.type != MessageType::kError) {
    return malformed("not an error frame");
  }
  WireErrorMessage out;
  out.request_id = frame.header.request_id;
  Reader r{frame.payload};
  const std::uint16_t raw = r.u16();
  const std::uint32_t len = r.u32();
  if (r.failed()) return malformed("truncated error frame");
  if (raw < static_cast<std::uint16_t>(WireError::kInvalidArgument) ||
      raw > static_cast<std::uint16_t>(WireError::kProtocol)) {
    return malformed("unknown error code " + std::to_string(raw));
  }
  out.code = static_cast<WireError>(raw);
  if (len > kMaxErrorMessage || len > r.remaining()) {
    return malformed("error message length does not fit the payload");
  }
  out.message = r.str(len);
  if (r.remaining() != 0) return malformed("trailing bytes after error");
  return out;
}

// ------------------------------------------------------------ cancel/stats --

std::vector<std::uint8_t> encode_cancel(std::uint64_t request_id,
                                        std::uint32_t tenant) {
  return finish_frame(MessageType::kCancel, 0, tenant, request_id, Writer{});
}

std::vector<std::uint8_t> encode_stats_request(std::uint64_t request_id) {
  return finish_frame(MessageType::kStatsRequest, 0, 0, request_id, Writer{});
}

std::vector<std::uint8_t> encode_stats_response(const ServerWireStats& stats,
                                                std::uint64_t request_id) {
  Writer p;
  p.f64(stats.uptime_ms);
  p.u64(stats.connections_accepted);
  p.u64(stats.connections_open);
  p.u64(stats.requests_admitted);
  p.u64(stats.brownout_admitted);
  p.u64(stats.responses_sent);
  p.u64(stats.errors_sent);
  p.u64(stats.shed_qps);
  p.u64(stats.shed_in_flight);
  p.u64(stats.shed_deadline);
  p.u64(stats.shed_shutdown);
  p.u64(stats.protocol_errors);
  p.u64(stats.closed_idle_timeout);
  p.u64(stats.closed_read_timeout);
  p.u64(stats.closed_backpressure);
  p.u64(stats.faults_injected);
  p.u64(stats.in_flight);
  p.u32(stats.worker_threads);
  p.u32(stats.cache_shards);
  p.u64(stats.cache_hits);
  p.u64(stats.cache_misses);
  p.u64(stats.cache_entries);
  p.f64(stats.ewma_solve_ms);
  return finish_frame(MessageType::kStatsResponse, 0, 0, request_id,
                      std::move(p));
}

Result<ServerWireStats> decode_stats_response(const Frame& frame) {
  if (frame.header.type != MessageType::kStatsResponse) {
    return malformed("not a stats_response frame");
  }
  ServerWireStats out;
  Reader r{frame.payload};
  out.uptime_ms = r.f64();
  out.connections_accepted = r.u64();
  out.connections_open = r.u64();
  out.requests_admitted = r.u64();
  out.brownout_admitted = r.u64();
  out.responses_sent = r.u64();
  out.errors_sent = r.u64();
  out.shed_qps = r.u64();
  out.shed_in_flight = r.u64();
  out.shed_deadline = r.u64();
  out.shed_shutdown = r.u64();
  out.protocol_errors = r.u64();
  out.closed_idle_timeout = r.u64();
  out.closed_read_timeout = r.u64();
  out.closed_backpressure = r.u64();
  out.faults_injected = r.u64();
  out.in_flight = r.u64();
  out.worker_threads = r.u32();
  out.cache_shards = r.u32();
  out.cache_hits = r.u64();
  out.cache_misses = r.u64();
  out.cache_entries = r.u64();
  out.ewma_solve_ms = r.f64();
  if (r.failed()) return malformed("truncated stats_response body");
  if (r.remaining() != 0) {
    return malformed("trailing bytes after stats_response body");
  }
  return out;
}

// ------------------------------------------------------------------- trace --

std::vector<std::uint8_t> encode_trace_request(std::uint64_t request_id) {
  return finish_frame(MessageType::kTraceRequest, 0, 0, request_id, Writer{});
}

namespace {

void put_predicate(Writer& w, const WirePredicateTrace& p) {
  w.u64(p.evaluated);
  w.u64(p.hits);
  w.f64(p.closest_miss);
}

WirePredicateTrace take_predicate(Reader& r) {
  WirePredicateTrace p;
  p.evaluated = r.u64();
  p.hits = r.u64();
  p.closest_miss = r.f64();
  return p;
}

}  // namespace

std::vector<std::uint8_t> encode_trace_response(const ServerWireTrace& trace,
                                                std::uint64_t request_id) {
  Writer p;
  p.u8(trace.detail);
  put_predicate(p, trace.sub_scatter);
  put_predicate(p, trace.early_win);
  put_predicate(p, trace.probe_poll);
  put_predicate(p, trace.reconstruct_skip);
  p.u32(static_cast<std::uint32_t>(std::min<std::size_t>(
      trace.checkpoint_hist.size(), kMaxTraceHistBuckets)));
  std::size_t buckets = 0;
  for (std::uint64_t b : trace.checkpoint_hist) {
    if (buckets++ >= kMaxTraceHistBuckets) break;
    p.u64(b);
  }
  p.u64(trace.checkpoint_polls);
  p.f64(trace.checkpoint_total_us);
  p.f64(trace.checkpoint_max_us);
  p.u32(static_cast<std::uint32_t>(
      std::min<std::size_t>(trace.shard_heat.size(), kMaxTraceShards)));
  std::size_t shards = 0;
  for (const WireShardHeat& s : trace.shard_heat) {
    if (shards++ >= kMaxTraceShards) break;
    p.u64(s.hits);
    p.u64(s.misses);
    p.u64(s.evictions);
    p.u64(s.entries);
  }
  return finish_frame(MessageType::kTraceResponse, 0, 0, request_id,
                      std::move(p));
}

Result<ServerWireTrace> decode_trace_response(const Frame& frame) {
  if (frame.header.type != MessageType::kTraceResponse) {
    return malformed("not a trace_response frame");
  }
  ServerWireTrace out;
  Reader r{frame.payload};
  out.detail = r.u8();
  out.sub_scatter = take_predicate(r);
  out.early_win = take_predicate(r);
  out.probe_poll = take_predicate(r);
  out.reconstruct_skip = take_predicate(r);
  const std::uint32_t n_buckets = r.u32();
  if (r.failed()) return malformed("truncated trace_response body");
  if (n_buckets > kMaxTraceHistBuckets || !count_fits(r, n_buckets, 8)) {
    return malformed("histogram bucket count " + std::to_string(n_buckets) +
                     " does not fit the payload");
  }
  out.checkpoint_hist.reserve(n_buckets);
  for (std::uint32_t i = 0; i < n_buckets; ++i) {
    out.checkpoint_hist.push_back(r.u64());
  }
  out.checkpoint_polls = r.u64();
  out.checkpoint_total_us = r.f64();
  out.checkpoint_max_us = r.f64();
  const std::uint32_t n_shards = r.u32();
  if (r.failed()) return malformed("truncated trace_response checkpoints");
  if (n_shards > kMaxTraceShards || !count_fits(r, n_shards, 32)) {
    return malformed("shard count " + std::to_string(n_shards) +
                     " does not fit the payload");
  }
  out.shard_heat.reserve(n_shards);
  for (std::uint32_t i = 0; i < n_shards; ++i) {
    WireShardHeat s;
    s.hits = r.u64();
    s.misses = r.u64();
    s.evictions = r.u64();
    s.entries = r.u64();
    if (r.failed()) return malformed("truncated shard heat list");
    out.shard_heat.push_back(s);
  }
  if (r.remaining() != 0) {
    return malformed("trailing bytes after trace_response body");
  }
  return out;
}

}  // namespace pmcast::net
