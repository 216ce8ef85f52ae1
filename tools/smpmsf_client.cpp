// smpmsf-client — client for smpmsf-server, over either transport.
//
//   smpmsf-client --socket PATH|tcp://HOST:PORT [-e "CMD"]... [--script FILE]
//                 [--clients N] [--retries N] [--backoff-ms MS]
//
// A plain PATH speaks the UDS line protocol; a tcp://HOST:PORT target
// speaks the binary frame protocol (src/net) and renders responses through
// the same line-protocol renderer, so output is byte-identical between
// transports.  Commands come from -e flags (in order), a script file, or
// stdin (one per line; blank lines and # comments skipped).  --clients N
// runs the same command list over N concurrent connections, tagging output
// lines [i] — the one-binary way to put multiple concurrent clients on a
// session.
//
// --retries N survives a lost connection (server restart, crash+recovery):
// the client reconnects with exponential backoff + jitter and resends the
// command whose response it never saw.  Every insert/delete is stamped with
// a unique idempotency id (unless the command carries its own id=), so a
// resend of a write the server already committed dedups server-side instead
// of applying twice — the response says dedup=1 and echoes the original
// commit LSN.  The semantics are transport-independent.
//
// Exit codes: 0 every response ok, 1 any err response or lost connection,
// 2 usage, 3 cannot connect.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "net/tcp_client.hpp"
#include "parse_number.hpp"
#include "serve/protocol.hpp"
#include "serve/uds_client.hpp"

namespace {

using namespace smp;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: smpmsf-client --socket PATH|tcp://HOST:PORT"
               " [-e \"CMD\"]...\n"
               "                     [--script FILE] [--clients N]\n"
               "                     [--retries N] [--backoff-ms MS]\n");
  std::exit(2);
}

std::mutex print_mu;

/// Where to connect: a UDS path, or host+port when `tcp` is set.
struct Endpoint {
  bool tcp = false;
  std::string path_or_host;
  std::uint16_t port = 0;
};

Endpoint parse_endpoint(const std::string& target) {
  Endpoint ep;
  if (target.rfind("tcp://", 0) != 0) {
    ep.path_or_host = target;
    return ep;
  }
  const std::string rest = target.substr(6);
  const std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
    usage(("bad tcp target '" + target + "' (want tcp://HOST:PORT)").c_str());
  }
  ep.tcp = true;
  ep.path_or_host = rest.substr(0, colon);
  ep.port = tools::flag_number<std::uint16_t>("--socket port",
                                               rest.substr(colon + 1), usage);
  if (ep.port == 0) usage(("bad port in '" + target + "'").c_str());
  return ep;
}

/// One connection, either transport, presenting the line-protocol surface:
/// send a command line, get back the response lines.  Connection loss
/// throws smp::Error (the retry loop's signal); a malformed command over
/// TCP is parsed client-side and answered with the same `err invalid_input`
/// line the server would send, keeping output transport-identical.
class Conn {
 public:
  virtual ~Conn() = default;
  virtual std::vector<std::string> request(const std::string& line) = 0;
};

class UdsConn : public Conn {
 public:
  explicit UdsConn(const std::string& path) : client_(path) {}
  std::vector<std::string> request(const std::string& line) override {
    return client_.request(line);
  }

 private:
  serve::UdsClient client_;
};

class TcpConn : public Conn {
 public:
  TcpConn(const std::string& host, std::uint16_t port) : client_(host, port) {}

  std::vector<std::string> request(const std::string& line) override {
    serve::WireRequest wr;
    try {
      wr = serve::parse_line(line);
    } catch (const Error& e) {
      return {std::string("err invalid_input ") + e.what()};
    }
    if (wr.quit || wr.shutdown) {
      if (wr.shutdown) {
        client_.shutdown();
      } else {
        client_.quit();
      }
      return {"ok"};
    }
    const serve::Response resp = client_.call(wr.req);
    return split_lines(serve::render_response(wr.req.op, resp));
  }

 private:
  static std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::size_t start = 0;
    for (std::size_t nl = text.find('\n', start); nl != std::string::npos;
         nl = text.find('\n', start)) {
      lines.push_back(text.substr(start, nl - start));
      start = nl + 1;
    }
    if (start < text.size()) lines.push_back(text.substr(start));
    // The renderer terminates multi-line payloads with a lone "." that the
    // UDS client also strips; drop it for identical output.
    if (!lines.empty() && lines.back() == ".") lines.pop_back();
    return lines;
  }

  net::TcpClient client_;
};

std::unique_ptr<Conn> connect(const Endpoint& ep) {
  if (ep.tcp) {
    return std::make_unique<TcpConn>(ep.path_or_host, ep.port);
  }
  return std::make_unique<UdsConn>(ep.path_or_host);
}

bool is_write_command(const std::string& cmd) {
  return cmd.rfind("insert ", 0) == 0 || cmd.rfind("delete ", 0) == 0;
}

bool has_idem_id(const std::string& cmd) {
  return cmd.find(" id=") != std::string::npos;
}

/// Runs the command list over one connection, reconnecting up to `retries`
/// times on a lost connection; returns 1 on any err response or when the
/// retries are exhausted.
int run_commands(const Endpoint& ep, std::vector<std::string> commands,
                 int idx, bool tag, int retries, int backoff_ms) {
  // Stamp writes with per-run-unique idempotency ids so a resend after a
  // reconnect cannot double-apply.  The nonce keeps ids from colliding
  // across client invocations against the same long-lived session.
  std::mt19937_64 rng(std::random_device{}() ^
                      (static_cast<std::uint64_t>(::getpid()) << 32) ^
                      static_cast<std::uint64_t>(idx));
  char nonce[17];
  std::snprintf(nonce, sizeof nonce, "%016llx",
                static_cast<unsigned long long>(rng()));
  for (std::size_t k = 0; k < commands.size(); ++k) {
    if (is_write_command(commands[k]) && !has_idem_id(commands[k])) {
      commands[k] += " id=c" + std::to_string(idx) + "-" + nonce + "-" +
                     std::to_string(k);
    }
  }

  int rc = 0;
  int attempts_left = retries;
  std::unique_ptr<Conn> client;
  std::size_t k = 0;
  while (k < commands.size()) {
    try {
      if (client == nullptr) client = connect(ep);
      const std::vector<std::string> resp = client->request(commands[k]);
      std::lock_guard<std::mutex> lk(print_mu);
      for (const std::string& line : resp) {
        if (tag) {
          std::printf("[%d] %s\n", idx, line.c_str());
        } else {
          std::printf("%s\n", line.c_str());
        }
      }
      if (resp.front().rfind("err", 0) == 0) rc = 1;
      ++k;
    } catch (const smp::Error& ex) {
      client.reset();
      if (attempts_left <= 0) {
        std::lock_guard<std::mutex> lk(print_mu);
        std::fprintf(stderr, "client %d: %s\n", idx, ex.what());
        return 1;
      }
      // Exponential backoff with full jitter: 2^attempt * backoff_ms, drawn
      // uniformly from [delay/2, delay] so a fleet of reconnecting clients
      // does not stampede the restarting server in lockstep.
      const int attempt = retries - attempts_left;
      --attempts_left;
      double delay = static_cast<double>(backoff_ms);
      for (int b = 0; b < attempt && delay < 10'000; ++b) delay *= 2;
      std::uniform_real_distribution<double> jitter(delay / 2, delay);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(jitter(rng)));
      // Loop around: reconnect and resend command k (its idempotency id
      // makes the resend safe even if the server committed it already).
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string target;
  std::string script;
  std::vector<std::string> commands;
  int clients = 1;
  int retries = 0;
  int backoff_ms = 50;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--socket") {
      target = value();
    } else if (a == "-e") {
      commands.push_back(value());
    } else if (a == "--script") {
      script = value();
    } else if (a == "--clients") {
      clients = tools::flag_number<int>(a, value(), usage);
    } else if (a == "--retries") {
      retries = tools::flag_number<int>(a, value(), usage);
    } else if (a == "--backoff-ms") {
      backoff_ms = tools::flag_number<int>(a, value(), usage);
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (target.empty()) usage("--socket PATH|tcp://HOST:PORT is required");
  if (clients < 1) usage("--clients must be >= 1");
  if (retries < 0) usage("--retries must be >= 0");
  if (backoff_ms < 1) usage("--backoff-ms must be >= 1");
  const Endpoint ep = parse_endpoint(target);

  if (!script.empty()) {
    std::ifstream is(script);
    if (!is) {
      std::fprintf(stderr, "error: cannot open %s\n", script.c_str());
      return 2;
    }
    for (std::string line; std::getline(is, line);) commands.push_back(line);
  } else if (commands.empty()) {
    for (std::string line; std::getline(std::cin, line);) {
      commands.push_back(line);
    }
  }
  // Drop blanks and comments here so every connection replays the same list.
  std::vector<std::string> cleaned;
  for (const std::string& c : commands) {
    const std::size_t pos = c.find_first_not_of(" \t");
    if (pos == std::string::npos || c[pos] == '#') continue;
    cleaned.push_back(c);
  }
  if (cleaned.empty()) usage("no commands (use -e, --script or stdin)");

  // Probe the endpoint so "nothing is listening" is a distinct exit code;
  // with --retries the probe waits out a server that is still restarting.
  for (int left = retries;;) {
    try {
      connect(ep);
      break;
    } catch (const smp::Error& ex) {
      if (left-- <= 0) {
        std::fprintf(stderr, "error: %s\n", ex.what());
        return 3;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
  }

  if (clients == 1) {
    return run_commands(ep, cleaned, 0, false, retries, backoff_ms);
  }
  std::vector<int> rcs(static_cast<std::size_t>(clients), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      rcs[static_cast<std::size_t>(i)] =
          run_commands(ep, cleaned, i, true, retries, backoff_ms);
    });
  }
  int rc = 0;
  for (int i = 0; i < clients; ++i) {
    threads[static_cast<std::size_t>(i)].join();
    rc |= rcs[static_cast<std::size_t>(i)];
  }
  return rc;
}
