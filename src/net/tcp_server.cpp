#include "net/tcp_server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>

#include "core/error.hpp"
#include "net/frame.hpp"
#include "serve/protocol.hpp"
#include "serve/service_core.hpp"

#ifdef __linux__
#include <sys/epoll.h>
#include <sys/eventfd.h>
#endif

namespace smp::net {
namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// Readiness events over a set of fds: epoll where available, poll(2)
/// elsewhere.  Single-threaded — each I/O thread owns one.
class Poller {
 public:
  struct Ev {
    int fd;
    bool in;
    bool out;
    bool err;
  };

#ifdef __linux__
  Poller() : ep_(::epoll_create1(EPOLL_CLOEXEC)) {}
  ~Poller() {
    if (ep_ >= 0) ::close(ep_);
  }

  void add(int fd, bool rd, bool wr) { ctl(EPOLL_CTL_ADD, fd, rd, wr); }
  void mod(int fd, bool rd, bool wr) { ctl(EPOLL_CTL_MOD, fd, rd, wr); }
  void del(int fd) { ::epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr); }

  int wait(std::vector<Ev>& out, int timeout_ms) {
    epoll_event evs[64];
    int n = ::epoll_wait(ep_, evs, 64, timeout_ms);
    if (n < 0) n = 0;
    out.clear();
    for (int i = 0; i < n; ++i) {
      Ev e;
      e.fd = evs[i].data.fd;
      e.in = (evs[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      e.out = (evs[i].events & EPOLLOUT) != 0;
      e.err = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out.push_back(e);
    }
    return n;
  }

 private:
  void ctl(int op, int fd, bool rd, bool wr) {
    epoll_event ev{};
    ev.data.fd = fd;
    ev.events = (rd ? EPOLLIN : 0u) | (wr ? EPOLLOUT : 0u);
    ::epoll_ctl(ep_, op, fd, &ev);
  }

  int ep_;
#else
  void add(int fd, bool rd, bool wr) { entries_.push_back({fd, rd, wr}); }
  void mod(int fd, bool rd, bool wr) {
    for (auto& e : entries_)
      if (e.fd == fd) {
        e.rd = rd;
        e.wr = wr;
      }
  }
  void del(int fd) {
    std::erase_if(entries_, [fd](const Entry& e) { return e.fd == fd; });
  }

  int wait(std::vector<Ev>& out, int timeout_ms) {
    std::vector<pollfd> pfds;
    pfds.reserve(entries_.size());
    for (const Entry& e : entries_)
      pfds.push_back({e.fd,
                      static_cast<short>((e.rd ? POLLIN : 0) |
                                         (e.wr ? POLLOUT : 0)),
                      0});
    int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (n < 0) n = 0;
    out.clear();
    for (const pollfd& p : pfds) {
      if (p.revents == 0) continue;
      Ev e;
      e.fd = p.fd;
      e.in = (p.revents & (POLLIN | POLLHUP)) != 0;
      e.out = (p.revents & POLLOUT) != 0;
      e.err = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      out.push_back(e);
    }
    return n;
  }

 private:
  struct Entry {
    int fd;
    bool rd;
    bool wr;
  };
  std::vector<Entry> entries_;
#endif
};

constexpr int kListenBacklog = 128;
/// A connection whose unsent response backlog exceeds this is dropped: the
/// peer has stopped reading and buffering further is unbounded risk.
constexpr std::size_t kMaxOutboundBytes = std::size_t{64} << 20;

serve::Response protocol_error(const std::string& detail) {
  serve::Response r;
  r.status = serve::Status::kInvalidInput;
  r.detail = detail;
  return r;
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw Error(ErrorCode::kInvalidInput,
                "socket path must be 1.." +
                    std::to_string(sizeof addr.sun_path - 1) + " bytes: '" +
                    path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// True when a daemon is actually accepting on `addr` (as opposed to a
/// stale socket file left by a crash).  Probes with the `health` verb
/// instead of a bare connect: a refused connect is the definitive stale
/// signal, a protocol-shaped reply ("ok ..." from this version, "err ..."
/// from an older daemon that predates the verb) is definitive liveness, and
/// anything ambiguous (timeout, send failure) stays conservative — never
/// clobber a path that might be serving.
bool unix_socket_is_live(const sockaddr_un& addr) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return true;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return false;
  }
  timeval tv{};
  tv.tv_usec = 500 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  bool live = true;
  static constexpr char kProbe[] = "health\n";
  if (::send(fd, kProbe, sizeof kProbe - 1, MSG_NOSIGNAL) ==
      static_cast<ssize_t>(sizeof kProbe - 1)) {
    char buf[256];
    const ssize_t n = ::recv(fd, buf, sizeof buf - 1, 0);
    if (n >= 2) {
      live = std::strncmp(buf, "ok", 2) == 0 || std::strncmp(buf, "er", 2) == 0;
    }
  }
  ::close(fd);
  return live;
}

}  // namespace

struct TcpServer::Conn {
  int fd = -1;
  bool lines = false;          // codec, fixed by the accepting listener
  std::size_t owner_slot = 0;  // index into threads_, fixed at accept time
  std::string client_id;
  // Input side: owner-thread only.
  std::string in;
  std::size_t in_off = 0;
  bool closing = false;     // owner-thread bookkeeping mirror of closing_any
  bool read_eof = false;    // the peer will send nothing more
  bool want_write = false;  // EPOLLOUT registered
  bool shutdown_requested = false;  // wake wait() once this conn closes
  // Output side: shared with dispatcher callbacks.
  std::mutex out_mu;
  std::string out;
  std::size_t out_off = 0;
  // Line codec only: replies not yet released, oldest first; slot i holds
  // the reply to request number head_seq + i.  Filled slots leave from the
  // front, so replies go out in request order.
  std::deque<std::optional<std::string>> reorder;
  std::uint64_t head_seq = 0;
  std::atomic<bool> in_processing{false};
  std::atomic<bool> closed{false};
  std::atomic<bool> closing_any{false};  // quit/shutdown/EOF seen
  std::atomic<std::uint64_t> outstanding{0};

  /// Line codec: claims the reply slot of the next request (owner thread,
  /// called in request order).
  std::uint64_t reserve() {
    std::lock_guard<std::mutex> lk(out_mu);
    reorder.emplace_back();
    return head_seq + reorder.size() - 1;
  }

  /// Queues reply bytes: frames go out as they complete; a line reply fills
  /// slot `seq` and releases every filled slot at the front.  False when
  /// the connection is already closed.
  bool put(std::uint64_t seq, std::string bytes) {
    std::lock_guard<std::mutex> lk(out_mu);
    if (closed.load(std::memory_order_relaxed)) return false;
    if (!lines) {
      out += bytes;
      return true;
    }
    reorder[seq - head_seq] = std::move(bytes);
    while (!reorder.empty() && reorder.front().has_value()) {
      out += *reorder.front();
      reorder.pop_front();
      ++head_seq;
    }
    return true;
  }
};

struct TcpServer::IoThread {
  int id = 0;
  Poller poller;
  int wake_r = -1;
  int wake_w = -1;
  std::thread th;
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  std::mutex pending_mu;
  std::vector<std::shared_ptr<Conn>> pending_adds;
  std::vector<std::shared_ptr<Conn>> dirty;
  std::atomic<bool> stop{false};

  IoThread() {
#ifdef __linux__
    wake_r = wake_w = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
#else
    int p[2] = {-1, -1};
    if (::pipe(p) == 0) {
      wake_r = p[0];
      wake_w = p[1];
      set_nonblocking(wake_r);
      set_nonblocking(wake_w);
    }
#endif
  }

  ~IoThread() {
    if (wake_r >= 0) ::close(wake_r);
    if (wake_w >= 0 && wake_w != wake_r) ::close(wake_w);
  }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_w, &one, sizeof one);
  }

  void drain_wake() {
    std::uint64_t buf[16];
    while (::read(wake_r, buf, sizeof buf) > 0) {
    }
  }

  void mark_dirty(const std::shared_ptr<Conn>& c) {
    {
      std::lock_guard<std::mutex> lk(pending_mu);
      dirty.push_back(c);
    }
    wake();
  }

  /// Queues a reply for `c` (see Conn::put).  Outside the owner's own
  /// processing pass the owner is woken to flush it.  Touches no TcpServer
  /// state: dispatcher callbacks may run this after stop().
  void post(const std::shared_ptr<Conn>& c, std::uint64_t seq,
            std::string bytes) {
    if (c->put(seq, std::move(bytes)) &&
        !c->in_processing.load(std::memory_order_acquire)) {
      mark_dirty(c);
    }
  }

  /// A submitted request has answered: a closing connection may now be
  /// able to close.
  void complete(const std::shared_ptr<Conn>& c) {
    c->outstanding.fetch_sub(1, std::memory_order_acq_rel);
    if (c->closing_any.load(std::memory_order_acquire)) mark_dirty(c);
  }

  /// Re-registers `c`'s interest: input until the peer's EOF, output while
  /// a backlog waits.
  void watch(const Conn& c) { poller.mod(c.fd, !c.read_eof, c.want_write); }
};

TcpServer::TcpServer(serve::ServiceCore& core, TcpServerOptions opts)
    : core_(core), opts_(std::move(opts)) {
  if (opts_.io_threads < 1) opts_.io_threads = 1;
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::bind_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw Error(ErrorCode::kInvalidInput, "tcp: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, kListenBacklog) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error(ErrorCode::kInvalidInput,
                "tcp: cannot listen on port " + std::to_string(port) + ": " +
                    std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);
  listeners_.push_back({fd, false});
}

void TcpServer::bind_unix() {
  const std::string& path = opts_.unix_path;
  const sockaddr_un addr = make_unix_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw Error(ErrorCode::kInvalidInput, "uds: socket() failed");
  const auto bind_path = [&] {
    return ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
           0;
  };
  if (!bind_path()) {
    if (errno != EADDRINUSE || unix_socket_is_live(addr)) {
      ::close(fd);
      throw Error(ErrorCode::kInvalidInput,
                  "cannot bind '" + path + "' (another daemon live on it?)");
    }
    // Stale socket file from a crashed daemon: reclaim the path.
    ::unlink(path.c_str());
    if (!bind_path()) {
      const int err = errno;
      ::close(fd);
      throw Error(ErrorCode::kInvalidInput,
                  "cannot bind '" + path + "': " + std::strerror(err));
    }
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw Error(ErrorCode::kInvalidInput,
                "cannot listen on '" + path + "': " + std::strerror(err));
  }
  listeners_.push_back({fd, true});
}

void TcpServer::start() {
  if (!opts_.port.has_value() && opts_.unix_path.empty()) {
    throw Error(ErrorCode::kInvalidInput,
                "no listener: need a tcp port or a unix socket path");
  }
  try {
    if (opts_.port.has_value()) bind_tcp(*opts_.port);
    if (!opts_.unix_path.empty()) bind_unix();
  } catch (...) {
    for (const Listener& l : listeners_) ::close(l.fd);
    listeners_.clear();
    throw;
  }
  for (const Listener& l : listeners_) set_nonblocking(l.fd);

  threads_.reserve(static_cast<std::size_t>(opts_.io_threads));
  for (int i = 0; i < opts_.io_threads; ++i) {
    auto io = std::make_shared<IoThread>();
    io->id = i;
    threads_.push_back(io);
  }
  for (int i = 0; i < opts_.io_threads; ++i) {
    IoThread& io = *threads_[static_cast<std::size_t>(i)];
    io.poller.add(io.wake_r, true, false);
    if (i == 0) {
      for (const Listener& l : listeners_) io.poller.add(l.fd, true, false);
    }
    io.th = std::thread([this, &io, i] { io_loop(io, i == 0); });
  }
  {
    std::lock_guard<std::mutex> lk(stop_mu_);
    started_ = true;
    stopped_ = false;
  }
  if (!opts_.unix_path.empty()) core_.add_listener("uds:" + opts_.unix_path);
  if (opts_.port.has_value()) core_.add_listener("tcp:" + std::to_string(port_));
}

void TcpServer::wait() {
  std::unique_lock<std::mutex> lk(wait_mu_);
  wait_cv_.wait(lk, [this] { return wait_done_; });
}

void TcpServer::notify_stop_wait() {
  std::lock_guard<std::mutex> lk(wait_mu_);
  wait_done_ = true;
  wait_cv_.notify_all();
}

void TcpServer::stop() {
  {
    std::lock_guard<std::mutex> lk(stop_mu_);
    if (!started_ || stopped_) {
      notify_stop_wait();
      return;
    }
    stopped_ = true;
  }
  for (auto& io : threads_) {
    io->stop.store(true, std::memory_order_release);
    io->wake();
  }
  for (auto& io : threads_) {
    if (io->th.joinable()) io->th.join();
  }
  for (const Listener& l : listeners_) ::close(l.fd);
  listeners_.clear();
  if (opts_.port.has_value()) {
    core_.remove_listener("tcp:" + std::to_string(port_));
  }
  if (!opts_.unix_path.empty()) {
    ::unlink(opts_.unix_path.c_str());
    core_.remove_listener("uds:" + opts_.unix_path);
  }
  notify_stop_wait();
}

void TcpServer::io_loop(IoThread& io, bool owns_listeners) {
  std::vector<Poller::Ev> events;
  std::vector<std::shared_ptr<Conn>> batch;
  while (!io.stop.load(std::memory_order_acquire)) {
    // Adopt connections handed over by the acceptor.
    {
      std::lock_guard<std::mutex> lk(io.pending_mu);
      batch.swap(io.pending_adds);
    }
    for (auto& c : batch) {
      io.conns.emplace(c->fd, c);
      io.poller.add(c->fd, true, false);
    }
    batch.clear();
    // Flush connections dirtied by dispatcher-thread completions.
    {
      std::lock_guard<std::mutex> lk(io.pending_mu);
      batch.swap(io.dirty);
    }
    for (auto& c : batch) {
      if (!c->closed.load(std::memory_order_acquire)) flush(io, c);
    }
    batch.clear();

    io.poller.wait(events, 500);
    for (const Poller::Ev& ev : events) {
      if (ev.fd == io.wake_r) {
        io.drain_wake();
        continue;
      }
      if (owns_listeners) {
        const auto l = std::find_if(
            listeners_.begin(), listeners_.end(),
            [&](const Listener& x) { return x.fd == ev.fd; });
        if (l != listeners_.end()) {
          accept_ready(*l);
          continue;
        }
      }
      auto it = io.conns.find(ev.fd);
      if (it == io.conns.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      if (ev.in) handle_readable(io, conn);
      if (conn->closed.load(std::memory_order_acquire)) continue;
      if (ev.out) flush(io, conn);
      if (conn->closed.load(std::memory_order_acquire) || !ev.err) continue;
      if (!ev.in) {
        close_conn(io, conn);
      } else if (conn->read_eof) {
        // Hung up while replies are still outstanding: stop polling a
        // level-triggered hang-up; the completions' flush closes it.
        io.poller.del(conn->fd);
      }
    }
  }
  // Shutdown: drop every connection this thread owns.
  std::vector<std::shared_ptr<Conn>> all;
  all.reserve(io.conns.size());
  for (auto& [fd, c] : io.conns) all.push_back(c);
  for (auto& c : all) close_conn(io, c);
}

void TcpServer::accept_ready(const Listener& l) {
  for (;;) {
    int fd = ::accept(l.fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: try again on next event
    }
    set_nonblocking(fd);
    if (!l.lines) set_nodelay(fd);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->lines = l.lines;
    conn->client_id =
        (l.lines ? "uds#" : "tcp:") +
        std::to_string(next_client_.fetch_add(1, std::memory_order_relaxed));
    const std::size_t slot =
        next_io_.fetch_add(1, std::memory_order_relaxed) % threads_.size();
    conn->owner_slot = slot;
    IoThread& target = *threads_[slot];
    {
      std::lock_guard<std::mutex> lk(target.pending_mu);
      target.pending_adds.push_back(std::move(conn));
    }
    target.wake();
  }
}

void TcpServer::handle_readable(IoThread& io, const std::shared_ptr<Conn>& conn) {
  char buf[65536];
  bool peer_eof = false;
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn->in.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof buf) break;
      continue;
    }
    if (n == 0) {
      peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(io, conn);
    return;
  }

  conn->in_processing.store(true, std::memory_order_release);
  if (conn->lines) {
    process_lines(conn);
  } else {
    process_frames(conn);
  }
  conn->in_processing.store(false, std::memory_order_release);
  // Compact the consumed prefix so the buffer does not grow without bound.
  if (conn->in_off == conn->in.size()) {
    conn->in.clear();
    conn->in_off = 0;
  } else if (conn->in_off > 65536) {
    conn->in.erase(0, conn->in_off);
    conn->in_off = 0;
  }

  if (peer_eof) {
    conn->read_eof = true;
    begin_close(conn);
    io.watch(*conn);
  }
  flush(io, conn);
}

void TcpServer::begin_close(const std::shared_ptr<Conn>& conn) {
  conn->closing = true;
  conn->closing_any.store(true, std::memory_order_release);
}

void TcpServer::process_frames(const std::shared_ptr<Conn>& conn) {
  IoThread& owner = *threads_[conn->owner_slot];
  auto respond_error = [&](const std::string& detail) {
    BinResponse br;
    br.id = 0;
    br.op = serve::Op::kPing;
    br.resp = protocol_error(detail);
    std::string frame;
    encode_response_frame(frame, br);
    owner.post(conn, 0, std::move(frame));
  };

  while (!conn->closing) {
    std::string_view payload;
    std::string err;
    const DecodeStatus st =
        try_read_frame(conn->in, conn->in_off, payload, err);
    if (st == DecodeStatus::kNeedMore) break;
    if (st == DecodeStatus::kFatal) {
      // The stream cannot be resynchronised; answer, then close after the
      // flush drains the error.
      respond_error(err);
      begin_close(conn);
      ::shutdown(conn->fd, SHUT_RD);
      break;
    }
    if (st == DecodeStatus::kBadFrame) {
      respond_error(err);
      continue;
    }
    std::vector<BinRequest> msgs;
    const bool ok = decode_request_payload(payload, msgs, err);
    for (BinRequest& m : msgs) dispatch_message(conn, std::move(m));
    if (!ok) respond_error(err);
  }
}

void TcpServer::process_lines(const std::shared_ptr<Conn>& conn) {
  while (!conn->closing) {
    const std::size_t nl = conn->in.find('\n', conn->in_off);
    const std::size_t end = nl == std::string::npos ? conn->in.size() : nl;
    if (end - conn->in_off > kMaxLine) {
      threads_[conn->owner_slot]->post(
          conn, conn->reserve(), "err invalid_input request line too long\n");
      begin_close(conn);
      ::shutdown(conn->fd, SHUT_RD);
      break;
    }
    if (nl == std::string::npos) break;
    std::string line = conn->in.substr(conn->in_off, nl - conn->in_off);
    conn->in_off = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) dispatch_line(conn, line);
  }
}

void TcpServer::dispatch_line(const std::shared_ptr<Conn>& conn,
                              const std::string& line) {
  std::shared_ptr<IoThread> owner = threads_[conn->owner_slot];
  const std::uint64_t seq = conn->reserve();
  serve::WireRequest wr;
  try {
    wr = serve::parse_line(line);
  } catch (const Error& e) {
    owner->post(conn, seq, std::string("err invalid_input ") + e.what() + "\n");
    return;
  }
  if (wr.quit || wr.shutdown) {
    // Released after every earlier reply, like any other slot.
    owner->post(conn, seq, "ok\n");
    conn->shutdown_requested = wr.shutdown;
    begin_close(conn);
    return;
  }
  // Per-connection client identity for the rate limiter.
  wr.req.client_id = conn->client_id;
  const serve::Op op = wr.req.op;
  conn->outstanding.fetch_add(1, std::memory_order_acq_rel);
  core_.submit(std::move(wr.req),
               [conn, owner, seq, op](serve::Response r) {
                 owner->post(conn, seq, serve::render_response(op, r));
                 owner->complete(conn);
               });
}

void TcpServer::dispatch_message(const std::shared_ptr<Conn>& conn,
                                 BinRequest&& msg) {
  // The owner handle outlives the server via shared_ptr, so dispatcher
  // callbacks completing after stop() still have a valid wake target.
  std::shared_ptr<IoThread> owner = threads_[conn->owner_slot];
  const auto post = [&](serve::Op op, serve::Response resp) {
    BinResponse br;
    br.id = msg.id;
    br.op = op;
    br.resp = std::move(resp);
    std::string frame;
    encode_response_frame(frame, br);
    owner->post(conn, 0, std::move(frame));
  };

  if (msg.quit || msg.shutdown) {
    post(serve::Op::kPing, serve::Response{});
    conn->shutdown_requested = msg.shutdown;
    begin_close(conn);
    return;
  }
  if (msg.req.op == serve::Op::kSnapshot) {
    post(serve::Op::kSnapshot, protocol_error("snapshot is in-process only"));
    return;
  }

  msg.req.client_id = conn->client_id;
  const std::uint64_t id = msg.id;
  const serve::Op op = msg.req.op;
  conn->outstanding.fetch_add(1, std::memory_order_acq_rel);
  core_.submit(std::move(msg.req), [conn, owner, id, op](serve::Response r) {
    BinResponse br;
    br.id = id;
    br.op = op;
    br.resp = std::move(r);
    std::string frame;
    encode_response_frame(frame, br);
    owner->post(conn, 0, std::move(frame));
    owner->complete(conn);
  });
}

void TcpServer::flush(IoThread& io, const std::shared_ptr<Conn>& conn) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  bool drained = false;
  bool dead = false;
  bool over_budget = false;
  {
    std::lock_guard<std::mutex> lk(conn->out_mu);
    while (conn->out_off < conn->out.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->out.data() + conn->out_off,
                 conn->out.size() - conn->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      dead = true;
      break;
    }
    if (conn->out_off == conn->out.size()) {
      conn->out.clear();
      conn->out_off = 0;
      drained = true;
    } else if (conn->out.size() - conn->out_off > kMaxOutboundBytes) {
      over_budget = true;
    }
  }
  if (dead || over_budget) {
    close_conn(io, conn);
    return;
  }
  if (drained == conn->want_write) {
    conn->want_write = !drained;
    io.watch(*conn);
  }
  if (drained && conn->closing &&
      conn->outstanding.load(std::memory_order_acquire) == 0) {
    close_conn(io, conn);
  }
}

void TcpServer::close_conn(IoThread& io, const std::shared_ptr<Conn>& conn) {
  {
    // Under out_mu so a late completion never fills a slot after close.
    std::lock_guard<std::mutex> lk(conn->out_mu);
    if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  }
  io.poller.del(conn->fd);
  ::close(conn->fd);
  io.conns.erase(conn->fd);
  if (conn->shutdown_requested) notify_stop_wait();
}

}  // namespace smp::net
