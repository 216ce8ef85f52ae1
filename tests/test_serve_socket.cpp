// End-to-end over the real AF_UNIX transport: the line codec of
// net::TcpServer + UdsClient against a live ServiceCore — concurrent clients
// on one session, pipelined write coalescing, in-order replies, the line
// cap, stale-socket recovery, wire shutdown, and both listeners on one
// server.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "net/tcp_client.hpp"
#include "net/tcp_server.hpp"
#include "serve/service_core.hpp"
#include "serve/uds_client.hpp"

namespace {

using namespace smp;
using namespace smp::serve;

std::string unique_socket_path(const char* tag) {
  return "/tmp/smpmsf_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

/// A server with only the AF_UNIX line-protocol listener.
net::TcpServerOptions unix_only(const std::string& path) {
  return {.port = std::nullopt, .unix_path = path};
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::ptrdiff_t thread_count() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator{});
}

TEST(ServeSocket, RequestResponseRoundTrip) {
  const std::string path = unique_socket_path("rt");
  ServiceCore core;
  net::TcpServer server(core, unix_only(path));
  server.start();
  {
    UdsClient c(path);
    EXPECT_EQ(c.request("ping").front(), "ok");
    EXPECT_EQ(c.request("open g n=5").front(),
              "ok weight=0 trees=5 forest=0 live=0");
    EXPECT_EQ(c.request("insert g 1 2 1.5").front(),
              "ok applied=1 coalesced=1 weight=1.5 trees=4 forest=1 live=1");
    EXPECT_EQ(c.request("connected g 1 2").front(), "ok connected=1");
    EXPECT_EQ(c.request("connected g 1 5").front(), "ok connected=0");
    const std::vector<std::string> edges = c.request("edges g");
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_EQ(edges[0], "ok count=1 total=1");
    EXPECT_EQ(edges[1], "e 1 2 1.5");
    const std::vector<std::string> stats = c.request("stats");
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_NE(stats[1].find("\"apply_batches\""), std::string::npos);
    // Malformed lines answer err without killing the connection.
    EXPECT_EQ(c.request("bogus verb").front().rfind("err invalid_input", 0),
              0u);
    EXPECT_EQ(c.request("ping").front(), "ok");
    EXPECT_EQ(c.request("quit").front(), "ok");
  }
  server.stop();
  core.shutdown();
}

TEST(ServeSocket, ConcurrentClientsShareOneSession) {
  const std::string path = unique_socket_path("cc");
  ServeOptions opts;
  opts.dispatchers = 4;
  opts.coalesce_window_s = 0.02;
  ServiceCore core(opts);
  net::TcpServer server(core, unix_only(path));
  server.start();
  {
    UdsClient admin(path);
    ASSERT_EQ(admin.request("open g n=300").front().rfind("ok", 0), 0u);

    constexpr int kClients = 4;
    constexpr int kWritesEach = 10;
    std::vector<std::thread> clients;
    std::vector<int> failures(kClients, 0);
    for (int ci = 0; ci < kClients; ++ci) {
      clients.emplace_back([&, ci] {
        try {
          UdsClient c(path);
          for (int i = 0; i < kWritesEach; ++i) {
            const int u = ci * kWritesEach + i + 1;  // 1-based, unique per op
            const std::string resp =
                c.request("insert g " + std::to_string(u) + " " +
                          std::to_string(u + 1) + " 1.0")
                    .front();
            if (resp.rfind("ok applied=1", 0) != 0) {
              ++failures[static_cast<std::size_t>(ci)];
            }
            if (c.request("weight g").front().rfind("ok", 0) != 0) {
              ++failures[static_cast<std::size_t>(ci)];
            }
          }
        } catch (const Error&) {
          ++failures[static_cast<std::size_t>(ci)];
        }
      });
    }
    for (auto& t : clients) t.join();
    for (int ci = 0; ci < kClients; ++ci) {
      EXPECT_EQ(failures[static_cast<std::size_t>(ci)], 0) << "client " << ci;
    }
    const std::string weight = admin.request("weight g").front();
    EXPECT_NE(weight.find("live=40"), std::string::npos) << weight;
    // Interleaved clients + a coalesce window: the service must have merged
    // at least some of the 40 writes.
    EXPECT_LT(core.metrics().apply_batches.load(), 40u);
  }
  server.stop();
  core.shutdown();
}

TEST(ServeSocket, PipelinedBurstCoalesces) {
  const std::string path = unique_socket_path("pl");
  ServeOptions opts;
  opts.dispatchers = 4;
  opts.coalesce_window_s = 0.02;
  ServiceCore core(opts);
  net::TcpServer server(core, unix_only(path));
  server.start();
  {
    UdsClient c(path);
    ASSERT_EQ(c.request("open g n=50").front().rfind("ok", 0), 0u);
    // One write() carrying many lines: the connection submits them all
    // before reading responses, so they coalesce even from one client.
    constexpr int kBurst = 16;
    std::vector<std::string> lines;
    for (int i = 1; i <= kBurst; ++i) {
      lines.push_back("insert g " + std::to_string(i) + " " +
                      std::to_string(i + 1) + " 2.5");
      c.send_line(lines.back());
    }
    std::size_t max_coalesced = 0;
    for (const std::string& line : lines) {
      const std::string resp = c.read_response(line).front();
      ASSERT_EQ(resp.rfind("ok applied=1 coalesced=", 0), 0u) << resp;
      max_coalesced =
          std::max(max_coalesced, static_cast<std::size_t>(std::strtoull(
                                      resp.c_str() + 23, nullptr, 10)));
    }
    EXPECT_GE(max_coalesced, 2u);
  }
  server.stop();
  core.shutdown();
}

TEST(ServeSocket, StaleSocketFileIsReclaimedLiveOneIsNot) {
  const std::string path = unique_socket_path("st");
  // Simulate a crashed daemon: bind the path, then close the socket without
  // unlinking — the file stays but nobody accepts on it.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path.size(), sizeof addr.sun_path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ::unlink(path.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr),
              0);
    ::close(fd);
  }
  ServiceCore core;
  net::TcpServer server(core, unix_only(path));
  server.start();  // must detect the stale file and reclaim the path
  {
    UdsClient c(path);
    EXPECT_EQ(c.request("ping").front(), "ok");
  }
  // A second daemon on the now-live path must refuse instead of stealing it.
  ServiceCore core2;
  net::TcpServer server2(core2, unix_only(path));
  EXPECT_THROW(server2.start(), Error);
  server.stop();
  core.shutdown();
  core2.shutdown();
}

TEST(ServeSocket, WireShutdownWakesWait) {
  const std::string path = unique_socket_path("sd");
  ServiceCore core;
  net::TcpServer server(core, unix_only(path));
  server.start();
  std::thread waiter([&] { server.wait(); });
  {
    UdsClient c(path);
    EXPECT_EQ(c.request("shutdown").front(), "ok");
  }
  waiter.join();  // the verb must unblock wait()
  server.stop();
  core.shutdown();
}

TEST(ServeSocket, PipelinedReadsWaitBehindACoalescingWrite) {
  const std::string path = unique_socket_path("ord");
  ServeOptions opts;
  opts.coalesce_window_s = 0.05;
  ServiceCore core(opts);
  net::TcpServer server(core, unix_only(path));
  server.start();
  {
    UdsClient c(path);
    ASSERT_EQ(c.request("open g n=10").front().rfind("ok", 0), 0u);
    // One write: a write that waits out the coalesce window on its shard,
    // then 32 reads the core answers inline on the I/O thread long before
    // it.  The line protocol has no ids, so the replies must still come
    // back in request order.
    std::vector<std::string> lines = {"insert g 1 2 1.5"};
    for (int i = 0; i < 32; ++i) {
      lines.push_back(i % 2 == 0 ? "ping" : "connected g 3 4");
    }
    std::string burst;
    for (const std::string& line : lines) burst += line + "\n";
    burst.pop_back();  // send_line appends the last newline
    const std::uint64_t inline_before = core.metrics().reads_inline.load();
    c.send_line(burst);
    EXPECT_EQ(c.read_response(lines[0]).front(),
              "ok applied=1 coalesced=1 weight=1.5 trees=9 forest=1 live=1");
    for (std::size_t i = 1; i < lines.size(); ++i) {
      EXPECT_EQ(c.read_response(lines[i]).front(),
                lines[i] == "ping" ? "ok" : "ok connected=0")
          << "reply " << i;
    }
    EXPECT_GE(core.metrics().reads_inline.load() - inline_before, 16u);
  }
  server.stop();
  core.shutdown();
}

TEST(ServeSocket, OverlongLineIsRefusedAndOnlyItsConnectionCloses) {
  const std::string path = unique_socket_path("long");
  ServiceCore core;
  net::TcpServer server(core, unix_only(path));
  server.start();
  {
    UdsClient bystander(path);
    EXPECT_EQ(bystander.request("ping").front(), "ok");

    const int fd = connect_unix(path);
    ASSERT_GE(fd, 0);
    // No newline: the server must give up at the cap instead of buffering
    // the line without bound.  Once it refuses, further sends fail (EPIPE).
    const std::string chunk(4096, 'x');
    std::size_t sent = 0;
    while (sent <= net::TcpServer::kMaxLine + chunk.size()) {
      const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    EXPECT_GT(sent, net::TcpServer::kMaxLine);
    std::string reply;
    char buf[256];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;  // EOF (or a reset for the unread tail): closed
      reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(reply, "err invalid_input request line too long\n");

    EXPECT_EQ(bystander.request("ping").front(), "ok");
    UdsClient late(path);
    EXPECT_EQ(late.request("ping").front(), "ok");
  }
  server.stop();
  core.shutdown();
}

TEST(ServeSocket, ClientsAddNoThreads) {
  const std::string path = unique_socket_path("thr");
  ServiceCore core;
  net::TcpServer server(core, unix_only(path));
  server.start();
  {
    UdsClient first(path);
    ASSERT_EQ(first.request("ping").front(), "ok");
    const std::ptrdiff_t idle = thread_count();
    std::vector<std::unique_ptr<UdsClient>> clients;
    for (int i = 0; i < 8; ++i) {
      clients.push_back(std::make_unique<UdsClient>(path));
      ASSERT_EQ(clients.back()->request("ping").front(), "ok");
    }
    // Connections live on the fixed I/O pool, never on threads of their own
    // (at most equal: a thread an earlier test in this process joined may
    // still be leaving /proc/self/task).
    EXPECT_LE(thread_count(), idle);
  }
  server.stop();
  core.shutdown();
}

TEST(ServeSocket, OneServerHoldsBothListeners) {
  const std::string path = unique_socket_path("both");
  ServiceCore core;
  net::TcpServer server(core, {.port = 0, .unix_path = path});
  server.start();
  ASSERT_NE(server.port(), 0);
  std::thread waiter([&] { server.wait(); });
  {
    net::TcpClient tcp("127.0.0.1", server.port());
    Request ping;
    ping.op = Op::kPing;
    EXPECT_EQ(tcp.call(ping).status, Status::kOk);

    UdsClient uds(path);
    const std::string health = uds.request("health").front();
    EXPECT_NE(health.find("uds:" + path), std::string::npos) << health;
    EXPECT_NE(health.find("tcp:" + std::to_string(server.port())),
              std::string::npos)
        << health;
    // A shutdown over UDS wakes the one wait() that covers both listeners.
    EXPECT_EQ(uds.request("shutdown").front(), "ok");
  }
  waiter.join();
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(path));  // stop() unlinks the socket
  core.shutdown();
}

}  // namespace
