// Binary frame codec: round-trips, CRC rejection, truncation handling,
// batch framing, and a decode fuzz pass — malformed bytes must come back as
// protocol errors, never UB or a crash.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.hpp"
#include "pprim/rng.hpp"
#include "serve/request.hpp"

namespace {

using namespace smp;
using namespace smp::net;

/// Frames one encoded request message and decodes it back.
std::vector<BinRequest> frame_roundtrip_request(const BinRequest& in) {
  std::string msg;
  encode_request(msg, in);
  std::string wire;
  frame_message(wire, msg);

  std::size_t off = 0;
  std::string_view payload;
  std::string error;
  EXPECT_EQ(try_read_frame(wire, off, payload, error), DecodeStatus::kOk)
      << error;
  EXPECT_EQ(off, wire.size());
  std::vector<BinRequest> out;
  EXPECT_TRUE(decode_request_payload(payload, out, error)) << error;
  return out;
}

TEST(NetFrame, RequestRoundTripPreservesEveryField) {
  BinRequest in;
  in.id = 0xdeadbeefcafe0001ull;
  in.req.op = serve::Op::kInsert;
  in.req.session = "a-session";
  in.req.num_vertices = 77;
  in.req.path = "/tmp/some.graph";
  in.req.u = 3;
  in.req.v = 9;
  in.req.insertions = {{0, 1, 1.5}, {2, 3, -0.25}, {4, 5, 1e300}};
  in.req.deletions = {{7, 8}, {1, 2}};
  in.req.limit = 12345678901234ull;
  in.req.lambda = 0.625;
  in.req.has_lambda = true;
  in.req.deadline_s = 0.125;
  in.req.idem_id = "write-42";
  in.req.pin_epoch = 17;

  const std::vector<BinRequest> out = frame_roundtrip_request(in);
  ASSERT_EQ(out.size(), 1u);
  const BinRequest& r = out[0];
  EXPECT_EQ(r.id, in.id);
  EXPECT_FALSE(r.quit);
  EXPECT_FALSE(r.shutdown);
  EXPECT_EQ(r.req.op, in.req.op);
  EXPECT_EQ(r.req.session, in.req.session);
  EXPECT_EQ(r.req.num_vertices, in.req.num_vertices);
  EXPECT_EQ(r.req.path, in.req.path);
  EXPECT_EQ(r.req.u, in.req.u);
  EXPECT_EQ(r.req.v, in.req.v);
  ASSERT_EQ(r.req.insertions.size(), in.req.insertions.size());
  for (std::size_t i = 0; i < in.req.insertions.size(); ++i) {
    EXPECT_EQ(r.req.insertions[i].u, in.req.insertions[i].u);
    EXPECT_EQ(r.req.insertions[i].v, in.req.insertions[i].v);
    EXPECT_EQ(r.req.insertions[i].w, in.req.insertions[i].w);
  }
  EXPECT_EQ(r.req.deletions, in.req.deletions);
  EXPECT_EQ(r.req.limit, in.req.limit);
  EXPECT_EQ(r.req.lambda, in.req.lambda);
  EXPECT_EQ(r.req.has_lambda, in.req.has_lambda);
  EXPECT_EQ(r.req.deadline_s, in.req.deadline_s);
  EXPECT_EQ(r.req.idem_id, in.req.idem_id);
  EXPECT_EQ(r.req.pin_epoch, in.req.pin_epoch);
}

TEST(NetFrame, ControlMessagesRoundTrip) {
  BinRequest quit;
  quit.id = 5;
  quit.quit = true;
  const std::vector<BinRequest> q = frame_roundtrip_request(quit);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_TRUE(q[0].quit);
  EXPECT_FALSE(q[0].shutdown);

  BinRequest down;
  down.id = 6;
  down.shutdown = true;
  const std::vector<BinRequest> s = frame_roundtrip_request(down);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_TRUE(s[0].shutdown);
}

TEST(NetFrame, ResponseRoundTripPreservesEveryField) {
  BinResponse in;
  in.id = 99;
  in.op = serve::Op::kHealth;
  in.resp.status = serve::Status::kOk;
  in.resp.detail = "all good";
  in.resp.weight = 12.5;
  in.resp.trees = 3;
  in.resp.forest_edges = 8;
  in.resp.live_edges = 20;
  in.resp.connected = true;
  in.resp.applied = true;
  in.resp.dedup = true;
  in.resp.pathmax_found = true;
  in.resp.coalesced = 4;
  in.resp.remapped = 2;
  in.resp.edges_total = 8;
  in.resp.edges = {{1, 2, 0.5}};
  in.resp.edge_ids = {42, 43};
  in.resp.sessions = {"a", "b"};
  in.resp.stats_json = "{\"x\": 1}";
  in.resp.lsn = 777;
  in.resp.idem_id = "w-1";
  in.resp.health_queue_depth = 5;
  in.resp.health_sessions = 2;
  in.resp.uptime_s = 1.5;
  in.resp.shard_depths = {3, 2, 0};
  in.resp.reclaimed_epochs = 11;
  in.resp.listeners = {"uds:/tmp/x.sock", "tcp:4321"};
  in.resp.epoch = 29;
  in.resp.index_version = 29;
  in.resp.pathmax_id = 42;
  in.resp.pathmax_u = 1;
  in.resp.pathmax_v = 2;
  in.resp.pathmax_w = 0.5;
  in.resp.clusters = 6;
  in.resp.cut_digest = 0x1234abcdu;
  in.resp.index_status = true;
  in.resp.index_present = true;
  in.resp.index_fresh = true;
  in.resp.index_vertices = 100;
  in.resp.index_edges = 99;
  in.resp.index_age_s = 0.25;
  in.resp.index_build_s = 0.0001;
  in.resp.index_rebuilds = 7;

  std::string wire;
  encode_response_frame(wire, in);
  std::size_t off = 0;
  std::string_view payload;
  std::string error;
  ASSERT_EQ(try_read_frame(wire, off, payload, error), DecodeStatus::kOk);
  std::vector<BinResponse> out;
  ASSERT_TRUE(decode_response_payload(payload, out, error)) << error;
  ASSERT_EQ(out.size(), 1u);
  const BinResponse& r = out[0];
  EXPECT_EQ(r.id, in.id);
  EXPECT_EQ(r.op, in.op);
  EXPECT_EQ(r.resp.status, in.resp.status);
  EXPECT_EQ(r.resp.detail, in.resp.detail);
  EXPECT_EQ(r.resp.weight, in.resp.weight);
  EXPECT_EQ(r.resp.trees, in.resp.trees);
  EXPECT_EQ(r.resp.forest_edges, in.resp.forest_edges);
  EXPECT_EQ(r.resp.live_edges, in.resp.live_edges);
  EXPECT_EQ(r.resp.connected, in.resp.connected);
  EXPECT_EQ(r.resp.applied, in.resp.applied);
  EXPECT_EQ(r.resp.dedup, in.resp.dedup);
  EXPECT_EQ(r.resp.coalesced, in.resp.coalesced);
  EXPECT_EQ(r.resp.remapped, in.resp.remapped);
  EXPECT_EQ(r.resp.edges_total, in.resp.edges_total);
  ASSERT_EQ(r.resp.edges.size(), 1u);
  EXPECT_EQ(r.resp.edges[0].w, 0.5);
  EXPECT_EQ(r.resp.edge_ids, in.resp.edge_ids);
  EXPECT_EQ(r.resp.sessions, in.resp.sessions);
  EXPECT_EQ(r.resp.stats_json, in.resp.stats_json);
  EXPECT_EQ(r.resp.lsn, in.resp.lsn);
  EXPECT_EQ(r.resp.idem_id, in.resp.idem_id);
  EXPECT_EQ(r.resp.health_queue_depth, in.resp.health_queue_depth);
  EXPECT_EQ(r.resp.health_sessions, in.resp.health_sessions);
  EXPECT_EQ(r.resp.uptime_s, in.resp.uptime_s);
  EXPECT_EQ(r.resp.shard_depths, in.resp.shard_depths);
  EXPECT_EQ(r.resp.reclaimed_epochs, in.resp.reclaimed_epochs);
  EXPECT_EQ(r.resp.listeners, in.resp.listeners);
  EXPECT_EQ(r.resp.epoch, in.resp.epoch);
  EXPECT_EQ(r.resp.index_version, in.resp.index_version);
  EXPECT_EQ(r.resp.pathmax_found, in.resp.pathmax_found);
  EXPECT_EQ(r.resp.pathmax_id, in.resp.pathmax_id);
  EXPECT_EQ(r.resp.pathmax_w, in.resp.pathmax_w);
  EXPECT_EQ(r.resp.clusters, in.resp.clusters);
  EXPECT_EQ(r.resp.cut_digest, in.resp.cut_digest);
  EXPECT_EQ(r.resp.index_status, in.resp.index_status);
  EXPECT_EQ(r.resp.index_fresh, in.resp.index_fresh);
  EXPECT_EQ(r.resp.index_rebuilds, in.resp.index_rebuilds);
}

TEST(NetFrame, BatchFrameCarriesManyMessagesInOrder) {
  std::vector<std::string> msgs;
  for (int i = 0; i < 5; ++i) {
    BinRequest r;
    r.id = static_cast<std::uint64_t>(100 + i);
    r.req.op = serve::Op::kWeight;
    r.req.session = "s";
    r.req.session += std::to_string(i);
    std::string m;
    encode_request(m, r);
    msgs.push_back(std::move(m));
  }
  std::string wire;
  frame_batch(wire, msgs);

  std::size_t off = 0;
  std::string_view payload;
  std::string error;
  ASSERT_EQ(try_read_frame(wire, off, payload, error), DecodeStatus::kOk);
  std::vector<BinRequest> out;
  ASSERT_TRUE(decode_request_payload(payload, out, error)) << error;
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].id,
              static_cast<std::uint64_t>(100 + i));
    EXPECT_EQ(out[static_cast<std::size_t>(i)].req.session,
              "s" + std::to_string(i));
  }
}

TEST(NetFrame, TruncatedFrameAsksForMoreBytes) {
  BinRequest r;
  r.id = 1;
  r.req.op = serve::Op::kPing;
  std::string msg;
  encode_request(msg, r);
  std::string wire;
  frame_message(wire, msg);

  // Every proper prefix is kNeedMore and must not consume anything.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    std::size_t off = 0;
    std::string_view payload;
    std::string error;
    EXPECT_EQ(try_read_frame(std::string_view(wire).substr(0, cut), off,
                             payload, error),
              DecodeStatus::kNeedMore)
        << "prefix length " << cut;
    EXPECT_EQ(off, 0u);
  }
}

TEST(NetFrame, EveryPayloadBitFlipIsCaughtByCrc) {
  BinRequest r;
  r.id = 7;
  r.req.op = serve::Op::kConnected;
  r.req.session = "g";
  r.req.u = 1;
  r.req.v = 2;
  std::string msg;
  encode_request(msg, r);
  std::string wire;
  frame_message(wire, msg);

  // Flip one bit of each payload byte in turn: the frame stays delimited
  // (kBadFrame, consumed — recoverable), never decodes as valid.
  for (std::size_t byte = 8; byte < wire.size(); ++byte) {
    std::string corrupt = wire;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x40);
    std::size_t off = 0;
    std::string_view payload;
    std::string error;
    EXPECT_EQ(try_read_frame(corrupt, off, payload, error),
              DecodeStatus::kBadFrame)
        << "payload byte " << byte;
    EXPECT_EQ(off, corrupt.size());  // consumed: the stream can resync
    EXPECT_FALSE(error.empty());
  }
}

TEST(NetFrame, OversizedLengthPrefixIsFatal) {
  std::string wire;
  const std::uint32_t bad_len = kMaxFrame + 1;
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((bad_len >> (8 * i)) & 0xff));
  }
  wire.append(4, '\0');  // crc
  std::size_t off = 0;
  std::string_view payload;
  std::string error;
  EXPECT_EQ(try_read_frame(wire, off, payload, error), DecodeStatus::kFatal);
  EXPECT_FALSE(error.empty());
}

TEST(NetFrame, MalformedPayloadsAreErrorsNotCrashes) {
  std::string error;
  std::vector<BinRequest> out;

  // Empty payload.
  EXPECT_FALSE(decode_request_payload("", out, error));
  // Unknown kind byte.
  EXPECT_FALSE(decode_request_payload(std::string(1, '\x7f'), out, error));
  // kMessage with a truncated header.
  EXPECT_FALSE(decode_request_payload(std::string("\x01\x01\x02", 3), out,
                                      error));
  // kBatch whose count promises more than the bytes can hold.
  std::string batch(1, '\x02');
  batch += std::string("\xff\xff\xff\x7f", 4);
  EXPECT_FALSE(decode_request_payload(batch, out, error));

  // Truncate a valid message at every byte: each cut is an error, not UB.
  BinRequest r;
  r.id = 3;
  r.req.op = serve::Op::kInsert;
  r.req.session = "sess";
  r.req.insertions = {{0, 1, 2.0}};
  r.req.idem_id = "id-1";
  std::string msg;
  encode_request(msg, r);
  std::string payload(1, static_cast<char>(kKindMessage));
  payload += msg;
  for (std::size_t cut = 1; cut < payload.size(); ++cut) {
    std::vector<BinRequest> partial;
    std::string err;
    EXPECT_FALSE(decode_request_payload(
        std::string_view(payload).substr(0, cut), partial, err))
        << "cut " << cut;
  }
}

TEST(NetFrame, DecoderSurvivesRandomBytes) {
  // Deterministic fuzz: random garbage through the full frame + payload
  // pipeline.  Nothing here asserts specific outcomes — the test is that
  // every path returns (ASan/UBSan/TSan builds make this meaningful).
  Rng rng(0xF00D);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t len = rng.next_below(64);
    std::string buf;
    buf.reserve(len + 8);
    for (std::size_t i = 0; i < len + 8; ++i) {
      buf.push_back(static_cast<char>(rng.next_below(256)));
    }
    std::size_t off = 0;
    std::string_view payload;
    std::string error;
    const DecodeStatus st = try_read_frame(buf, off, payload, error);
    if (st == DecodeStatus::kOk) {
      std::vector<BinRequest> reqs;
      std::vector<BinResponse> resps;
      decode_request_payload(payload, reqs, error);
      decode_response_payload(payload, resps, error);
    }
  }
  // Mutated-valid fuzz: take a real frame and splice random bytes into it.
  BinRequest r;
  r.id = 9;
  r.req.op = serve::Op::kTopK;
  r.req.session = "fuzz";
  r.req.limit = 10;
  std::string msg;
  encode_request(msg, r);
  std::string wire;
  frame_message(wire, msg);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutated = wire;
    const std::size_t hits = 1 + rng.next_below(4);
    for (std::size_t h = 0; h < hits; ++h) {
      mutated[rng.next_below(mutated.size())] =
          static_cast<char>(rng.next_below(256));
    }
    std::size_t off = 0;
    std::string_view payload;
    std::string error;
    const DecodeStatus st = try_read_frame(mutated, off, payload, error);
    if (st == DecodeStatus::kOk) {
      std::vector<BinRequest> reqs;
      decode_request_payload(payload, reqs, error);
    }
  }
}

}  // namespace
