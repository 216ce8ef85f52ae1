// TCP binary transport end-to-end over loopback: request/response against a
// live ServiceCore, pipelining with out-of-order correlation ids, batch
// frames, and the malformed-input contract — corrupt frames are answered
// with protocol errors and the connection survives; only an unresynchable
// length prefix closes it, gracefully.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/tcp_client.hpp"
#include "net/tcp_server.hpp"
#include "serve/service_core.hpp"

namespace {

using namespace smp;
using namespace smp::graph;
using namespace smp::net;
using namespace smp::serve;

Request make(Op op, std::string session = {}) {
  Request r;
  r.op = op;
  r.session = std::move(session);
  return r;
}

/// A raw loopback connection for sending hand-crafted (including malformed)
/// byte sequences that TcpClient would never emit.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  void send_bytes(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  /// Reads until one whole response frame decodes (or EOF → nullopt-like
  /// failure via `got`).
  bool read_response(BinResponse& out) {
    for (;;) {
      std::string_view payload;
      std::string error;
      const DecodeStatus st = try_read_frame(acc_, off_, payload, error);
      if (st == DecodeStatus::kOk) {
        std::vector<BinResponse> resps;
        if (!decode_response_payload(payload, resps, error) || resps.empty()) {
          return false;
        }
        out = std::move(resps.front());
        return true;
      }
      if (st != DecodeStatus::kNeedMore) return false;
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) return false;
      acc_.append(buf, static_cast<std::size_t>(n));
    }
  }

  /// True when the peer has closed (EOF after draining pending bytes).
  bool peer_closed() {
    char buf[256];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

 private:
  int fd_ = -1;
  std::string acc_;
  std::size_t off_ = 0;
};

std::string frame_of(const BinRequest& r) {
  std::string msg;
  encode_request(msg, r);
  std::string wire;
  frame_message(wire, msg);
  return wire;
}

class NetTcpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServeOptions opts;
    opts.dispatchers = 2;
    core_ = std::make_unique<ServiceCore>(opts);
    server_ = std::make_unique<TcpServer>(*core_, TcpServerOptions{.port = 0});
    server_->start();
    port_ = server_->port();
    ASSERT_NE(port_, 0);
  }

  void TearDown() override {
    server_->stop();
    core_->shutdown();
  }

  std::unique_ptr<ServiceCore> core_;
  std::unique_ptr<TcpServer> server_;
  std::uint16_t port_ = 0;
};

TEST_F(NetTcpTest, EndToEndRequestResponse) {
  TcpClient client("127.0.0.1", port_);

  Request open = make(Op::kOpen, "g");
  open.num_vertices = 6;
  EXPECT_EQ(client.call(open).status, Status::kOk);

  Request ins = make(Op::kInsert, "g");
  ins.insertions = {{0, 1, 1.5}, {1, 2, 0.5}};
  const Response r = client.call(ins);
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_DOUBLE_EQ(r.weight, 2.0);
  EXPECT_GE(r.epoch, 1u);  // MVCC epoch the write committed as

  Request conn = make(Op::kConnected, "g");
  conn.u = 0;
  conn.v = 2;
  EXPECT_TRUE(client.call(conn).connected);

  Request pm = make(Op::kPathMax, "g");
  pm.u = 0;
  pm.v = 2;
  const Response pmr = client.call(pm);
  EXPECT_EQ(pmr.status, Status::kOk);
  EXPECT_TRUE(pmr.pathmax_found);
  EXPECT_DOUBLE_EQ(pmr.pathmax_w, 1.5);

  const Response health = client.call(make(Op::kHealth));
  EXPECT_EQ(health.status, Status::kOk);
  ASSERT_FALSE(health.listeners.empty());
  EXPECT_EQ(health.listeners[0].rfind("tcp:", 0), 0u);
  EXPECT_FALSE(health.shard_depths.empty());

  // kSnapshot is in-process only: over the wire it must be rejected, not
  // serialized.
  EXPECT_NE(client.call(make(Op::kSnapshot, "g")).status, Status::kOk);

  client.quit();
}

TEST_F(NetTcpTest, PipelinedResponsesCorrelateById) {
  TcpClient setup("127.0.0.1", port_);
  Request open = make(Op::kOpen, "g");
  open.num_vertices = 32;
  ASSERT_EQ(setup.call(open).status, Status::kOk);

  TcpClient client("127.0.0.1", port_);
  // A write burst interleaved with reads, all pipelined before any recv:
  // responses come back in completion order (reads run inline on the I/O
  // thread, writes queue through the shard), so arrival order is NOT send
  // order — the correlation id is what pairs them up.
  std::vector<std::uint64_t> write_ids;
  std::vector<std::uint64_t> read_ids;
  for (int i = 0; i < 10; ++i) {
    Request ins = make(Op::kInsert, "g");
    ins.insertions = {
        {static_cast<VertexId>(i), static_cast<VertexId>(i + 1), 1.0}};
    write_ids.push_back(client.send(ins));
    read_ids.push_back(client.send(make(Op::kWeight, "g")));
  }
  std::set<std::uint64_t> expect(write_ids.begin(), write_ids.end());
  expect.insert(read_ids.begin(), read_ids.end());
  ASSERT_EQ(expect.size(), 20u);

  bool out_of_order = false;
  std::uint64_t prev = 0;
  while (!expect.empty()) {
    const BinResponse r = client.recv();
    ASSERT_EQ(expect.erase(r.id), 1u) << "unexpected id " << r.id;
    EXPECT_EQ(r.resp.status, Status::kOk);
    if (r.id < prev) out_of_order = true;
    prev = r.id;
    const bool write = std::find(write_ids.begin(), write_ids.end(), r.id) !=
                       write_ids.end();
    EXPECT_EQ(r.op, write ? Op::kInsert : Op::kWeight);
  }
  // Not asserted: out_of_order depends on scheduling.  It is recorded so a
  // debugger can see the pipelining actually exercised reordering.
  (void)out_of_order;

  // Batch frame: one syscall, many requests, every id answered.
  std::vector<Request> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(make(Op::kWeight, "g"));
  const std::vector<std::uint64_t> ids = client.send_batch(batch);
  std::set<std::uint64_t> want(ids.begin(), ids.end());
  ASSERT_EQ(want.size(), 8u);
  while (!want.empty()) {
    const BinResponse r = client.recv();
    EXPECT_EQ(r.resp.status, Status::kOk);
    EXPECT_EQ(want.erase(r.id), 1u);
  }
  client.quit();
}

TEST_F(NetTcpTest, CorruptFrameIsAnsweredAndConnectionSurvives) {
  RawConn raw(port_);
  ASSERT_TRUE(raw.ok());

  // A CRC-corrupt frame: answered with a correlation-id-0 protocol error...
  BinRequest ping;
  ping.id = 11;
  ping.req.op = Op::kPing;
  std::string wire = frame_of(ping);
  wire[wire.size() - 1] = static_cast<char>(wire.back() ^ 0x01);
  raw.send_bytes(wire);
  BinResponse err;
  ASSERT_TRUE(raw.read_response(err));
  EXPECT_EQ(err.id, 0u);
  EXPECT_NE(err.resp.status, Status::kOk);
  EXPECT_FALSE(err.resp.detail.empty());

  // ...and the connection is still usable: a valid request on the same
  // socket gets a real answer.
  BinRequest ok;
  ok.id = 12;
  ok.req.op = Op::kPing;
  raw.send_bytes(frame_of(ok));
  BinResponse pong;
  ASSERT_TRUE(raw.read_response(pong));
  EXPECT_EQ(pong.id, 12u);
  EXPECT_EQ(pong.resp.status, Status::kOk);

  // A well-framed but undecodable payload (unknown kind byte) likewise.
  std::string junk_payload(1, '\x6e');
  junk_payload += "garbage";
  std::string junk;
  frame_message(junk, junk_payload);
  // frame_message computes the CRC over the payload, so this frame is
  // delimited and checksummed — the failure is in payload decode.
  raw.send_bytes(junk);
  BinResponse junk_err;
  ASSERT_TRUE(raw.read_response(junk_err));
  EXPECT_EQ(junk_err.id, 0u);
  EXPECT_NE(junk_err.resp.status, Status::kOk);

  BinRequest again;
  again.id = 13;
  again.req.op = Op::kPing;
  raw.send_bytes(frame_of(again));
  BinResponse pong2;
  ASSERT_TRUE(raw.read_response(pong2));
  EXPECT_EQ(pong2.id, 13u);
  EXPECT_EQ(pong2.resp.status, Status::kOk);
}

TEST_F(NetTcpTest, OversizedLengthPrefixClosesAfterErrorResponse) {
  RawConn raw(port_);
  ASSERT_TRUE(raw.ok());
  std::string wire;
  const std::uint32_t bad_len = kMaxFrame + 7;
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((bad_len >> (8 * i)) & 0xff));
  }
  wire.append(4, '\0');
  wire.append("trailing bytes the server must never try to frame");
  raw.send_bytes(wire);

  // The contract: an error response first, then EOF — never a silent drop,
  // never unbounded buffering.
  BinResponse err;
  ASSERT_TRUE(raw.read_response(err));
  EXPECT_EQ(err.id, 0u);
  EXPECT_NE(err.resp.status, Status::kOk);
  EXPECT_TRUE(raw.peer_closed());
}

TEST_F(NetTcpTest, FrameSplitAcrossWritesIsReassembled) {
  RawConn raw(port_);
  ASSERT_TRUE(raw.ok());
  BinRequest ping;
  ping.id = 21;
  ping.req.op = Op::kPing;
  const std::string wire = frame_of(ping);
  // Dribble the frame one byte at a time; kNeedMore must buffer, not error.
  for (char c : wire) {
    raw.send_bytes(std::string(1, c));
  }
  BinResponse pong;
  ASSERT_TRUE(raw.read_response(pong));
  EXPECT_EQ(pong.id, 21u);
  EXPECT_EQ(pong.resp.status, Status::kOk);
}

TEST_F(NetTcpTest, ConcurrentClientsShareOneCore) {
  {
    TcpClient setup("127.0.0.1", port_);
    Request open = make(Op::kOpen, "g");
    open.num_vertices = 64;
    ASSERT_EQ(setup.call(open).status, Status::kOk);
    setup.quit();
  }
  constexpr int kClients = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        TcpClient c("127.0.0.1", port_);
        for (int i = 0; i < 20; ++i) {
          Request ins = make(Op::kInsert, "g");
          const auto u = static_cast<VertexId>((t * 20 + i) % 63);
          ins.insertions = {{u, 63, 1.0 + i}};
          if (!c.call(ins).ok()) ++failures;
          if (!c.call(make(Op::kWeight, "g")).ok()) ++failures;
        }
        c.quit();
      } catch (...) {
        ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Every client saw a consistent forest; final state sanity-checks.
  TcpClient check("127.0.0.1", port_);
  const Response w = check.call(make(Op::kWeight, "g"));
  EXPECT_EQ(w.status, Status::kOk);
  EXPECT_GT(w.forest_edges, 0u);
  check.quit();
}

TEST_F(NetTcpTest, ShutdownControlWakesTheServer) {
  std::thread waiter([&] { server_->wait(); });
  {
    TcpClient client("127.0.0.1", port_);
    client.shutdown();
  }
  waiter.join();  // returns only when the shutdown control was processed
}

}  // namespace
