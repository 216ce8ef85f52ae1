#include "net/frame.hpp"

#include <cstring>

#include "persist/crc32c.hpp"

namespace smp::net {
namespace {

// -- Little-endian writer ---------------------------------------------------

void put_u8(std::string& out, std::uint8_t x) {
  out.push_back(static_cast<char>(x));
}

void put_u32(std::string& out, std::uint32_t x) {
  char b[4];
  b[0] = static_cast<char>(x & 0xff);
  b[1] = static_cast<char>((x >> 8) & 0xff);
  b[2] = static_cast<char>((x >> 16) & 0xff);
  b[3] = static_cast<char>((x >> 24) & 0xff);
  out.append(b, 4);
}

void put_u64(std::string& out, std::uint64_t x) {
  put_u32(out, static_cast<std::uint32_t>(x & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(x >> 32));
}

void put_f64(std::string& out, double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  put_u64(out, bits);
}

void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

// -- Bounds-checked little-endian reader ------------------------------------

struct Reader {
  const unsigned char* p;
  std::size_t n;
  std::size_t off = 0;
  bool ok = true;

  explicit Reader(std::string_view s)
      : p(reinterpret_cast<const unsigned char*>(s.data())), n(s.size()) {}

  bool need(std::size_t k) {
    if (!ok || n - off < k) {
      ok = false;
      return false;
    }
    return true;
  }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return p[off++];
  }

  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t x = static_cast<std::uint32_t>(p[off]) |
                      (static_cast<std::uint32_t>(p[off + 1]) << 8) |
                      (static_cast<std::uint32_t>(p[off + 2]) << 16) |
                      (static_cast<std::uint32_t>(p[off + 3]) << 24);
    off += 4;
    return x;
  }

  std::uint64_t u64() {
    std::uint64_t lo = u32();
    std::uint64_t hi = u32();
    return lo | (hi << 32);
  }

  double f64() {
    std::uint64_t bits = u64();
    double x = 0;
    std::memcpy(&x, &bits, sizeof x);
    return x;
  }

  std::string str() {
    std::uint32_t len = u32();
    if (!need(len)) return {};
    std::string s(reinterpret_cast<const char*>(p + off), len);
    off += len;
    return s;
  }

  std::string_view view(std::size_t len) {
    if (!need(len)) return {};
    std::string_view s(reinterpret_cast<const char*>(p + off), len);
    off += len;
    return s;
  }
};

// Array counts inside a message are still bounded by the frame size, but a
// corrupt count could otherwise trigger a huge reserve before the per-element
// reads fail.  Any count larger than the remaining bytes is malformed.
bool plausible_count(const Reader& r, std::uint64_t count,
                     std::size_t min_elem_bytes) {
  return count * min_elem_bytes <= r.n - r.off;
}

bool decode_request_msg(std::string_view msg, BinRequest& out,
                        std::string& error) {
  Reader r(msg);
  out.id = r.u64();
  const std::uint8_t ver = r.u8();
  const std::uint8_t op = r.u8();
  if (!r.ok) {
    error = "truncated message header";
    return false;
  }
  if (ver != kProtoVersion) {
    error = "unsupported protocol version " + std::to_string(ver);
    return false;
  }
  if (op == kOpQuit) {
    out.quit = true;
    return true;
  }
  if (op == kOpShutdown) {
    out.shutdown = true;
    return true;
  }
  if (op >= serve::kNumOps) {
    error = "unknown op byte " + std::to_string(op);
    return false;
  }
  serve::Request& q = out.req;
  q.op = static_cast<serve::Op>(op);
  q.session = r.str();
  q.num_vertices = r.u32();
  q.path = r.str();
  q.u = r.u32();
  q.v = r.u32();
  const std::uint32_t n_ins = r.u32();
  if (!r.ok || !plausible_count(r, n_ins, 16)) {
    error = "bad insertion count";
    return false;
  }
  q.insertions.reserve(n_ins);
  for (std::uint32_t i = 0; i < n_ins && r.ok; ++i) {
    graph::WEdge e;
    e.u = r.u32();
    e.v = r.u32();
    e.w = r.f64();
    q.insertions.push_back(e);
  }
  const std::uint32_t n_del = r.u32();
  if (!r.ok || !plausible_count(r, n_del, 8)) {
    error = "bad deletion count";
    return false;
  }
  q.deletions.reserve(n_del);
  for (std::uint32_t i = 0; i < n_del && r.ok; ++i) {
    graph::VertexId u = r.u32();
    graph::VertexId v = r.u32();
    q.deletions.emplace_back(u, v);
  }
  q.limit = r.u64();
  q.lambda = r.f64();
  q.has_lambda = r.u8() != 0;
  q.deadline_s = r.f64();
  q.idem_id = r.str();
  q.pin_epoch = r.u64();
  if (!r.ok) {
    error = "truncated request body";
    return false;
  }
  return true;
}

bool decode_response_msg(std::string_view msg, BinResponse& out,
                         std::string& error) {
  Reader r(msg);
  out.id = r.u64();
  const std::uint8_t ver = r.u8();
  const std::uint8_t op = r.u8();
  if (!r.ok) {
    error = "truncated message header";
    return false;
  }
  if (ver != kProtoVersion) {
    error = "unsupported protocol version " + std::to_string(ver);
    return false;
  }
  if (op >= serve::kNumOps) {
    error = "unknown op byte " + std::to_string(op);
    return false;
  }
  out.op = static_cast<serve::Op>(op);
  serve::Response& p = out.resp;
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(serve::Status::kRateLimited)) {
    error = "unknown status byte " + std::to_string(status);
    return false;
  }
  p.status = static_cast<serve::Status>(status);
  p.detail = r.str();
  p.weight = r.f64();
  p.trees = r.u64();
  p.forest_edges = r.u64();
  p.live_edges = r.u64();
  p.connected = r.u8() != 0;
  r.u8();  // applied: ok() for writes, kept for the frame layout
  p.dedup = r.u8() != 0;
  p.pathmax_found = r.u8() != 0;
  p.coalesced = r.u64();
  p.remapped = r.u64();
  p.edges_total = r.u64();
  const std::uint32_t n_edges = r.u32();
  if (!r.ok || !plausible_count(r, n_edges, 16)) {
    error = "bad edge count";
    return false;
  }
  p.edges.reserve(n_edges);
  for (std::uint32_t i = 0; i < n_edges && r.ok; ++i) {
    graph::WEdge e;
    e.u = r.u32();
    e.v = r.u32();
    e.w = r.f64();
    p.edges.push_back(e);
  }
  const std::uint32_t n_ids = r.u32();
  if (!r.ok || !plausible_count(r, n_ids, 8)) {
    error = "bad edge-id count";
    return false;
  }
  p.edge_ids.reserve(n_ids);
  for (std::uint32_t i = 0; i < n_ids && r.ok; ++i) p.edge_ids.push_back(r.u64());
  const std::uint32_t n_sessions = r.u32();
  if (!r.ok || !plausible_count(r, n_sessions, 4)) {
    error = "bad session count";
    return false;
  }
  p.sessions.reserve(n_sessions);
  for (std::uint32_t i = 0; i < n_sessions && r.ok; ++i)
    p.sessions.push_back(r.str());
  p.stats_json = r.str();
  p.lsn = r.u64();
  p.idem_id = r.str();
  p.health_queue_depth = r.u64();
  p.health_sessions = r.u64();
  p.uptime_s = r.f64();
  const std::uint32_t n_shards = r.u32();
  if (!r.ok || !plausible_count(r, n_shards, 8)) {
    error = "bad shard count";
    return false;
  }
  p.shard_depths.reserve(n_shards);
  for (std::uint32_t i = 0; i < n_shards && r.ok; ++i)
    p.shard_depths.push_back(r.u64());
  p.reclaimed_epochs = r.u64();
  const std::uint32_t n_listeners = r.u32();
  if (!r.ok || !plausible_count(r, n_listeners, 4)) {
    error = "bad listener count";
    return false;
  }
  p.listeners.reserve(n_listeners);
  for (std::uint32_t i = 0; i < n_listeners && r.ok; ++i)
    p.listeners.push_back(r.str());
  p.epoch = r.u64();
  p.index_version = r.u64();
  p.pathmax_id = r.u64();
  p.pathmax_u = r.u32();
  p.pathmax_v = r.u32();
  p.pathmax_w = r.f64();
  p.clusters = r.u64();
  p.cut_digest = r.u64();
  p.index_status = r.u8() != 0;
  p.index_present = r.u8() != 0;
  p.index_fresh = r.u8() != 0;
  p.index_vertices = r.u64();
  p.index_edges = r.u64();
  p.index_age_s = r.f64();
  p.index_build_s = r.f64();
  p.index_rebuilds = r.u64();
  if (!r.ok) {
    error = "truncated response body";
    return false;
  }
  return true;
}

template <typename Msg>
bool decode_payload(std::string_view payload, std::vector<Msg>& out,
                    std::string& error,
                    bool (*decode_one)(std::string_view, Msg&, std::string&)) {
  Reader r(payload);
  const std::uint8_t kind = r.u8();
  if (!r.ok) {
    error = "empty payload";
    return false;
  }
  if (kind == kKindMessage) {
    Msg m;
    if (!decode_one(payload.substr(1), m, error)) return false;
    out.push_back(std::move(m));
    return true;
  }
  if (kind != kKindBatch) {
    error = "unknown payload kind " + std::to_string(kind);
    return false;
  }
  const std::uint32_t count = r.u32();
  if (!r.ok || !plausible_count(r, count, 10)) {
    error = "bad batch count";
    return false;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t len = r.u32();
    std::string_view msg = r.view(len);
    if (!r.ok) {
      error = "truncated batch member " + std::to_string(i);
      return false;
    }
    Msg m;
    if (!decode_one(msg, m, error)) return false;
    out.push_back(std::move(m));
  }
  if (r.off != r.n) {
    error = "trailing bytes after batch";
    return false;
  }
  return true;
}

}  // namespace

void encode_request(std::string& out, const BinRequest& r) {
  put_u64(out, r.id);
  put_u8(out, kProtoVersion);
  if (r.quit || r.shutdown) {
    put_u8(out, r.quit ? kOpQuit : kOpShutdown);
    return;
  }
  const serve::Request& q = r.req;
  put_u8(out, static_cast<std::uint8_t>(q.op));
  put_str(out, q.session);
  put_u32(out, q.num_vertices);
  put_str(out, q.path);
  put_u32(out, q.u);
  put_u32(out, q.v);
  put_u32(out, static_cast<std::uint32_t>(q.insertions.size()));
  for (const graph::WEdge& e : q.insertions) {
    put_u32(out, e.u);
    put_u32(out, e.v);
    put_f64(out, e.w);
  }
  put_u32(out, static_cast<std::uint32_t>(q.deletions.size()));
  for (const auto& [u, v] : q.deletions) {
    put_u32(out, u);
    put_u32(out, v);
  }
  put_u64(out, q.limit);
  put_f64(out, q.lambda);
  put_u8(out, q.has_lambda ? 1 : 0);
  put_f64(out, q.deadline_s);
  put_str(out, q.idem_id);
  put_u64(out, q.pin_epoch);
}

void encode_response(std::string& out, const BinResponse& r) {
  put_u64(out, r.id);
  put_u8(out, kProtoVersion);
  put_u8(out, static_cast<std::uint8_t>(r.op));
  const serve::Response& p = r.resp;
  put_u8(out, static_cast<std::uint8_t>(p.status));
  put_str(out, p.detail);
  put_f64(out, p.weight);
  put_u64(out, p.trees);
  put_u64(out, p.forest_edges);
  put_u64(out, p.live_edges);
  put_u8(out, p.connected ? 1 : 0);
  put_u8(out, serve::is_write_shaped(r.op) && p.ok() ? 1 : 0);  // applied
  put_u8(out, p.dedup ? 1 : 0);
  put_u8(out, p.pathmax_found ? 1 : 0);
  put_u64(out, p.coalesced);
  put_u64(out, p.remapped);
  put_u64(out, p.edges_total);
  put_u32(out, static_cast<std::uint32_t>(p.edges.size()));
  for (const graph::WEdge& e : p.edges) {
    put_u32(out, e.u);
    put_u32(out, e.v);
    put_f64(out, e.w);
  }
  put_u32(out, static_cast<std::uint32_t>(p.edge_ids.size()));
  for (graph::EdgeId id : p.edge_ids) put_u64(out, id);
  put_u32(out, static_cast<std::uint32_t>(p.sessions.size()));
  for (const std::string& s : p.sessions) put_str(out, s);
  put_str(out, p.stats_json);
  put_u64(out, p.lsn);
  put_str(out, p.idem_id);
  put_u64(out, p.health_queue_depth);
  put_u64(out, p.health_sessions);
  put_f64(out, p.uptime_s);
  put_u32(out, static_cast<std::uint32_t>(p.shard_depths.size()));
  for (std::uint64_t d : p.shard_depths) put_u64(out, d);
  put_u64(out, p.reclaimed_epochs);
  put_u32(out, static_cast<std::uint32_t>(p.listeners.size()));
  for (const std::string& s : p.listeners) put_str(out, s);
  put_u64(out, p.epoch);
  put_u64(out, p.index_version);
  put_u64(out, p.pathmax_id);
  put_u32(out, p.pathmax_u);
  put_u32(out, p.pathmax_v);
  put_f64(out, p.pathmax_w);
  put_u64(out, p.clusters);
  put_u64(out, p.cut_digest);
  put_u8(out, p.index_status ? 1 : 0);
  put_u8(out, p.index_present ? 1 : 0);
  put_u8(out, p.index_fresh ? 1 : 0);
  put_u64(out, p.index_vertices);
  put_u64(out, p.index_edges);
  put_f64(out, p.index_age_s);
  put_f64(out, p.index_build_s);
  put_u64(out, p.index_rebuilds);
}

namespace {

void frame_payload(std::string& out, std::string_view payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, persist::crc32c(payload.data(), payload.size()));
  out.append(payload.data(), payload.size());
}

}  // namespace

void frame_message(std::string& out, std::string_view msg) {
  std::string payload;
  payload.reserve(1 + msg.size());
  put_u8(payload, kKindMessage);
  payload.append(msg.data(), msg.size());
  frame_payload(out, payload);
}

void frame_batch(std::string& out, const std::vector<std::string>& msgs) {
  std::string payload;
  std::size_t total = 5;
  for (const std::string& m : msgs) total += 4 + m.size();
  payload.reserve(total);
  put_u8(payload, kKindBatch);
  put_u32(payload, static_cast<std::uint32_t>(msgs.size()));
  for (const std::string& m : msgs) {
    put_u32(payload, static_cast<std::uint32_t>(m.size()));
    payload.append(m);
  }
  frame_payload(out, payload);
}

void encode_response_frame(std::string& out, const BinResponse& r) {
  std::string msg;
  encode_response(msg, r);
  frame_message(out, msg);
}

DecodeStatus try_read_frame(std::string_view buf, std::size_t& off,
                            std::string_view& payload, std::string& error) {
  if (buf.size() - off < 8) return DecodeStatus::kNeedMore;
  Reader r(buf.substr(off));
  const std::uint32_t len = r.u32();
  const std::uint32_t crc = r.u32();
  if (len > kMaxFrame) {
    error = "frame length " + std::to_string(len) + " exceeds limit " +
            std::to_string(kMaxFrame);
    return DecodeStatus::kFatal;
  }
  if (buf.size() - off - 8 < len) return DecodeStatus::kNeedMore;
  payload = buf.substr(off + 8, len);
  off += 8 + static_cast<std::size_t>(len);
  if (persist::crc32c(payload.data(), payload.size()) != crc) {
    error = "frame checksum mismatch";
    return DecodeStatus::kBadFrame;
  }
  return DecodeStatus::kOk;
}

bool decode_request_payload(std::string_view payload,
                            std::vector<BinRequest>& out, std::string& error) {
  return decode_payload<BinRequest>(payload, out, error, &decode_request_msg);
}

bool decode_response_payload(std::string_view payload,
                             std::vector<BinResponse>& out,
                             std::string& error) {
  return decode_payload<BinResponse>(payload, out, error,
                                     &decode_response_msg);
}

}  // namespace smp::net
