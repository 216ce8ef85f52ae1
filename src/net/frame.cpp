#include "net/frame.hpp"

#include "persist/crc32c.hpp"
#include "pprim/byte_codec.hpp"

namespace smp::net {
namespace {

bool decode_request_msg(std::string_view msg, BinRequest& out,
                        std::string& error) {
  ByteReader r(msg);
  out.id = r.u64();
  const std::uint8_t ver = r.u8();
  const std::uint8_t op = r.u8();
  if (!r.ok()) {
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
  if (!r.count(n_ins, 16)) {
    error = "bad insertion count";
    return false;
  }
  q.insertions.reserve(n_ins);
  for (std::uint32_t i = 0; i < n_ins; ++i) {
    graph::WEdge e;
    e.u = r.u32();
    e.v = r.u32();
    e.w = r.f64();
    q.insertions.push_back(e);
  }
  const std::uint32_t n_del = r.u32();
  if (!r.count(n_del, 8)) {
    error = "bad deletion count";
    return false;
  }
  q.deletions.reserve(n_del);
  for (std::uint32_t i = 0; i < n_del; ++i) {
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
  if (!r.ok()) {
    error = "truncated request body";
    return false;
  }
  return true;
}

bool decode_response_msg(std::string_view msg, BinResponse& out,
                         std::string& error) {
  ByteReader r(msg);
  out.id = r.u64();
  const std::uint8_t ver = r.u8();
  const std::uint8_t op = r.u8();
  if (!r.ok()) {
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
  if (!r.count(n_edges, 16)) {
    error = "bad edge count";
    return false;
  }
  p.edges.reserve(n_edges);
  for (std::uint32_t i = 0; i < n_edges; ++i) {
    graph::WEdge e;
    e.u = r.u32();
    e.v = r.u32();
    e.w = r.f64();
    p.edges.push_back(e);
  }
  const std::uint32_t n_ids = r.u32();
  if (!r.count(n_ids, 8)) {
    error = "bad edge-id count";
    return false;
  }
  p.edge_ids.reserve(n_ids);
  for (std::uint32_t i = 0; i < n_ids; ++i) p.edge_ids.push_back(r.u64());
  const std::uint32_t n_sessions = r.u32();
  if (!r.count(n_sessions, 4)) {
    error = "bad session count";
    return false;
  }
  p.sessions.reserve(n_sessions);
  for (std::uint32_t i = 0; i < n_sessions && r.ok(); ++i)
    p.sessions.push_back(r.str());
  p.stats_json = r.str();
  p.lsn = r.u64();
  p.idem_id = r.str();
  p.health_queue_depth = r.u64();
  p.health_sessions = r.u64();
  p.uptime_s = r.f64();
  const std::uint32_t n_shards = r.u32();
  if (!r.count(n_shards, 8)) {
    error = "bad shard count";
    return false;
  }
  p.shard_depths.reserve(n_shards);
  for (std::uint32_t i = 0; i < n_shards; ++i)
    p.shard_depths.push_back(r.u64());
  p.reclaimed_epochs = r.u64();
  const std::uint32_t n_listeners = r.u32();
  if (!r.count(n_listeners, 4)) {
    error = "bad listener count";
    return false;
  }
  p.listeners.reserve(n_listeners);
  for (std::uint32_t i = 0; i < n_listeners && r.ok(); ++i)
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
  if (!r.ok()) {
    error = "truncated response body";
    return false;
  }
  return true;
}

template <typename Msg>
bool decode_payload(std::string_view payload, std::vector<Msg>& out,
                    std::string& error,
                    bool (*decode_one)(std::string_view, Msg&, std::string&)) {
  ByteReader r(payload);
  const std::uint8_t kind = r.u8();
  if (!r.ok()) {
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
  if (!r.count(count, 10)) {
    error = "bad batch count";
    return false;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t len = r.u32();
    std::string_view msg = r.bytes(len);
    if (!r.ok()) {
      error = "truncated batch member " + std::to_string(i);
      return false;
    }
    Msg m;
    if (!decode_one(msg, m, error)) return false;
    out.push_back(std::move(m));
  }
  if (r.remaining() != 0) {
    error = "trailing bytes after batch";
    return false;
  }
  return true;
}

}  // namespace

void encode_request(std::string& out, const BinRequest& r) {
  ByteWriter w(out);
  w.u64(r.id);
  w.u8(kProtoVersion);
  if (r.quit || r.shutdown) {
    w.u8(r.quit ? kOpQuit : kOpShutdown);
    return;
  }
  const serve::Request& q = r.req;
  w.u8(static_cast<std::uint8_t>(q.op));
  w.str(q.session);
  w.u32(q.num_vertices);
  w.str(q.path);
  w.u32(q.u);
  w.u32(q.v);
  w.u32(static_cast<std::uint32_t>(q.insertions.size()));
  for (const graph::WEdge& e : q.insertions) {
    w.u32(e.u);
    w.u32(e.v);
    w.f64(e.w);
  }
  w.u32(static_cast<std::uint32_t>(q.deletions.size()));
  for (const auto& [u, v] : q.deletions) {
    w.u32(u);
    w.u32(v);
  }
  w.u64(q.limit);
  w.f64(q.lambda);
  w.u8(q.has_lambda);
  w.f64(q.deadline_s);
  w.str(q.idem_id);
  w.u64(q.pin_epoch);
}

void encode_response(std::string& out, const BinResponse& r) {
  ByteWriter w(out);
  w.u64(r.id);
  w.u8(kProtoVersion);
  w.u8(static_cast<std::uint8_t>(r.op));
  const serve::Response& p = r.resp;
  w.u8(static_cast<std::uint8_t>(p.status));
  w.str(p.detail);
  w.f64(p.weight);
  w.u64(p.trees);
  w.u64(p.forest_edges);
  w.u64(p.live_edges);
  w.u8(p.connected);
  w.u8(serve::is_write_shaped(r.op) && p.ok());  // applied
  w.u8(p.dedup);
  w.u8(p.pathmax_found);
  w.u64(p.coalesced);
  w.u64(p.remapped);
  w.u64(p.edges_total);
  w.u32(static_cast<std::uint32_t>(p.edges.size()));
  for (const graph::WEdge& e : p.edges) {
    w.u32(e.u);
    w.u32(e.v);
    w.f64(e.w);
  }
  w.u32(static_cast<std::uint32_t>(p.edge_ids.size()));
  for (graph::EdgeId id : p.edge_ids) w.u64(id);
  w.u32(static_cast<std::uint32_t>(p.sessions.size()));
  for (const std::string& s : p.sessions) w.str(s);
  w.str(p.stats_json);
  w.u64(p.lsn);
  w.str(p.idem_id);
  w.u64(p.health_queue_depth);
  w.u64(p.health_sessions);
  w.f64(p.uptime_s);
  w.u32(static_cast<std::uint32_t>(p.shard_depths.size()));
  for (std::uint64_t d : p.shard_depths) w.u64(d);
  w.u64(p.reclaimed_epochs);
  w.u32(static_cast<std::uint32_t>(p.listeners.size()));
  for (const std::string& s : p.listeners) w.str(s);
  w.u64(p.epoch);
  w.u64(p.index_version);
  w.u64(p.pathmax_id);
  w.u32(p.pathmax_u);
  w.u32(p.pathmax_v);
  w.f64(p.pathmax_w);
  w.u64(p.clusters);
  w.u64(p.cut_digest);
  w.u8(p.index_status);
  w.u8(p.index_present);
  w.u8(p.index_fresh);
  w.u64(p.index_vertices);
  w.u64(p.index_edges);
  w.f64(p.index_age_s);
  w.f64(p.index_build_s);
  w.u64(p.index_rebuilds);
}

namespace {

void frame_payload(std::string& out, std::string_view payload) {
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(persist::crc32c(payload.data(), payload.size()));
  w.bytes(payload);
}

}  // namespace

void frame_message(std::string& out, std::string_view msg) {
  std::string payload;
  payload.reserve(1 + msg.size());
  ByteWriter w(payload);
  w.u8(kKindMessage);
  w.bytes(msg);
  frame_payload(out, payload);
}

void frame_batch(std::string& out, const std::vector<std::string>& msgs) {
  std::string payload;
  std::size_t total = 5;
  for (const std::string& m : msgs) total += 4 + m.size();
  payload.reserve(total);
  ByteWriter w(payload);
  w.u8(kKindBatch);
  w.u32(static_cast<std::uint32_t>(msgs.size()));
  for (const std::string& m : msgs) w.str(m);
  frame_payload(out, payload);
}

void encode_response_frame(std::string& out, const BinResponse& r) {
  std::string msg;
  encode_response(msg, r);
  frame_message(out, msg);
}

DecodeStatus try_read_frame(std::string_view buf, std::size_t& off,
                            std::string_view& payload, std::string& error) {
  ByteReader r(buf.substr(off));
  const std::uint32_t len = r.u32();
  const std::uint32_t crc = r.u32();
  if (!r.ok()) return DecodeStatus::kNeedMore;
  if (len > kMaxFrame) {
    error = "frame length " + std::to_string(len) + " exceeds limit " +
            std::to_string(kMaxFrame);
    return DecodeStatus::kFatal;
  }
  payload = r.bytes(len);
  if (!r.ok()) return DecodeStatus::kNeedMore;
  off += r.offset();
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
