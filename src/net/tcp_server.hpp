#pragma once

// The serving transport: one event-loop I/O pool in front of
// serve::ServiceCore, holding up to two listeners.  Each listener fixes the
// codec of the connections it accepts:
//
//   * TCP speaks the length-prefixed CRC-framed binary protocol of
//     net/frame.hpp.  Responses carry the request id and are written back in
//     completion order — out of order relative to the requests, which is
//     what lets one connection pipeline reads past a coalescing write.
//   * AF_UNIX speaks the newline text protocol of serve/protocol.hpp.  It
//     has no correlation ids, so each connection keeps a small reorder queue
//     and replies leave in request order: a read answered inline waits
//     behind an earlier write still queued on its shard.
//
// Architecture: a small pool of I/O threads, each running its own poller
// (epoll on Linux, poll(2) elsewhere) over a disjoint set of connections.
// Thread 0 additionally owns the listening sockets and hands accepted
// connections out round-robin.  Input is decoded on the owning I/O thread;
// each request is submitted to the ServiceCore, which executes cheap
// snapshot reads inline on the I/O thread (the priority lane) and queues
// writes to the session's shard.
//
// Malformed input is answered, not punished: a CRC-corrupt frame, an
// undecodable message or an unparsable line produces an error response
// (correlation id 0 when the id could not be parsed) and the connection
// stays up.  Only input after which the stream cannot be resynchronised —
// an oversized length prefix, or a text line over kMaxLine bytes — closes
// the connection, and even then after the error response is flushed.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace smp::serve {
class ServiceCore;
}

namespace smp::net {

struct TcpServerOptions {
  /// TCP port to bind (loopback + any) for the binary protocol.  0 picks an
  /// ephemeral port (read it back with port() after start()); nullopt runs
  /// without a TCP listener.
  std::optional<std::uint16_t> port = 0;
  /// I/O event-loop threads shared by both listeners.  Values < 1 are
  /// clamped to 1.
  int io_threads = 2;
  /// AF_UNIX socket path for the line protocol; empty runs without one.
  std::string unix_path = {};
};

class TcpServer {
 public:
  /// A text request line longer than this is answered with
  /// `err invalid_input request line too long` and its connection closed,
  /// instead of buffering without bound.
  static constexpr std::size_t kMaxLine = std::size_t{1} << 20;

  TcpServer(serve::ServiceCore& core, TcpServerOptions opts);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and spawns the I/O threads.  Throws Error{kInvalidInput}
  /// when no listener is configured, the port cannot be bound, or the unix
  /// path is unusable or served by another live daemon.  A stale socket
  /// file (a daemon died without unlinking it) is reclaimed.
  void start();

  /// The bound TCP port (after start()); 0 without a TCP listener.
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Blocks until a client sends the shutdown control message (on either
  /// listener) or stop() is called from another thread.
  void wait();

  /// Stops accepting, closes all connections, joins the I/O threads and
  /// unlinks the unix socket.  Idempotent and safe to call from several
  /// threads; never from an I/O thread.
  void stop();

 private:
  struct IoThread;
  struct Conn;
  struct Listener {
    int fd = -1;
    bool lines = false;  // codec of the connections accepted here
  };

  void bind_tcp(std::uint16_t port);
  void bind_unix();
  void io_loop(IoThread& io, bool owns_listeners);
  void accept_ready(const Listener& l);
  void handle_readable(IoThread& io, const std::shared_ptr<Conn>& conn);
  void process_frames(const std::shared_ptr<Conn>& conn);
  void process_lines(const std::shared_ptr<Conn>& conn);
  void dispatch_line(const std::shared_ptr<Conn>& conn, const std::string& line);
  void dispatch_message(const std::shared_ptr<Conn>& conn,
                        struct BinRequest&& msg);
  void begin_close(const std::shared_ptr<Conn>& conn);
  void flush(IoThread& io, const std::shared_ptr<Conn>& conn);
  void close_conn(IoThread& io, const std::shared_ptr<Conn>& conn);
  void notify_stop_wait();

  serve::ServiceCore& core_;
  TcpServerOptions opts_;
  std::vector<Listener> listeners_;
  std::uint16_t port_ = 0;
  std::vector<std::shared_ptr<IoThread>> threads_;
  std::atomic<std::uint64_t> next_client_{0};
  std::atomic<std::size_t> next_io_{0};

  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  bool wait_done_ = false;

  std::mutex stop_mu_;
  bool stopped_ = false;
  bool started_ = false;
};

}  // namespace smp::net
