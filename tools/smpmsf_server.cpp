// smpmsf-server — the MSF serving daemon: a ServiceCore behind one or both
// transports (AF_UNIX line protocol, TCP binary protocol; grammar and frame
// layout in docs/SERVING.md).
//
//   smpmsf-server (--socket PATH | --listen SPEC[,SPEC])
//                 [--threads P] [--dispatchers N] [--shards N]
//                 [--io-threads N] [--queue-cap N] [--default-deadline MS]
//                 [--coalesce-window MS] [--alg A] [--seed S]
//                 [--snapshot-ring N] [--rate-limit-rps R]
//                 [--rate-limit-burst B]
//                 [--data-dir DIR] [--fsync always|interval|none]
//                 [--fsync-interval MS] [--snapshot-every RECORDS]
//                 [--snapshot-retain N] [--crash-at SITE[:SKIP]]
//                 [--preload NAME=PATH]...
//
// --preload opens session NAME from PATH before any listener starts (the
// server exits 3 if the open fails), so clients never observe the initial
// solve of a big graph.  PATH is a .smpz (the compressed file for big
// sessions), a .smpg or DIMACS text, loaded like the open verb does
// (graph::load_graph).
//
// Each --listen SPEC is `uds:PATH` or `tcp:PORT` (tcp:0 picks an ephemeral
// port, printed on startup); `--socket PATH` is shorthand for
// `--listen uds:PATH`.  One net::TcpServer holds both listeners in front of
// the one ServiceCore, so a session opened over TCP is visible over UDS and
// vice versa.  --shards splits the solver into N independent pools (0
// auto-sizes from hardware threads); --io-threads sizes the event-loop pool
// that serves both listeners.
//
// With --data-dir every session is durable: acknowledged writes are
// WAL-logged and group-committed under the chosen fsync policy, snapshots
// truncate the log, and startup recovers whatever the directory holds.
// --crash-at arms a process-killing fault at a named persist crash point
// (chaos testing; see tools/chaos_recovery.py).
//
// Runs in the foreground until SIGINT/SIGTERM or a client sends the
// `shutdown` verb on either transport; either way it drains admitted
// requests, disconnects clients, unlinks the socket and exits 0.  Exit
// codes otherwise match the CLI: 2 usage (an unknown flag, or a numeric
// value that does not parse in full), 3 invalid input.
#include <pthread.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/msf.hpp"
#include "net/tcp_server.hpp"
#include "persist/wal.hpp"
#include "pprim/fault.hpp"
#include "serve/request.hpp"
#include "serve/service_core.hpp"

#include "parse_number.hpp"

namespace {

using namespace smp;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: smpmsf-server (--socket PATH | --listen SPEC[,SPEC])\n"
               "                     [--threads P] [--dispatchers N]"
               " [--shards N] [--io-threads N]\n"
               "                     [--queue-cap N] [--default-deadline MS]"
               " [--coalesce-window MS]\n"
               "                     [--alg A] [--seed S] [--snapshot-ring N]\n"
               "                     [--rate-limit-rps R]"
               " [--rate-limit-burst B]\n"
               "                     [--data-dir DIR]"
               " [--fsync always|interval|none] [--fsync-interval MS]\n"
               "                     [--snapshot-every RECORDS]"
               " [--snapshot-retain N] [--crash-at SITE[:SKIP]]\n"
               "                     [--preload NAME=PATH]...\n"
               "  SPEC: uds:PATH | tcp:PORT (tcp:0 = ephemeral)\n"
               "  PATH: .smpz | .smpg | DIMACS text\n");
  std::exit(2);
}

/// `v` parsed in full as a decimal T, or a usage error naming `flag`.
template <class T>
T number(const std::string& flag, const std::string& v) {
  return tools::flag_number<T>(flag, v, usage);
}

struct Listeners {
  std::string uds_path;                   // empty = no UDS listener
  std::optional<std::uint16_t> tcp_port;  // 0 = ephemeral
};

void parse_listen(const std::string& arg, Listeners& out) {
  std::size_t start = 0;
  while (start <= arg.size()) {
    std::size_t comma = arg.find(',', start);
    if (comma == std::string::npos) comma = arg.size();
    const std::string spec = arg.substr(start, comma - start);
    start = comma + 1;
    if (spec.empty()) continue;
    if (spec.rfind("uds:", 0) == 0) {
      if (!out.uds_path.empty()) usage("duplicate uds: listen spec");
      out.uds_path = spec.substr(4);
      if (out.uds_path.empty()) usage("uds: spec needs a path");
    } else if (spec.rfind("tcp:", 0) == 0) {
      if (out.tcp_port.has_value()) usage("duplicate tcp: listen spec");
      out.tcp_port = tools::parse_number<std::uint16_t>(spec.substr(4));
      if (!out.tcp_port) usage(("bad tcp port in '" + spec + "'").c_str());
    } else {
      usage(("bad listen spec '" + spec + "' (want uds:PATH or tcp:PORT)")
                .c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Listeners listen;
  std::string crash_at;
  int io_threads = 2;
  std::vector<std::pair<std::string, std::string>> preloads;
  serve::ServeOptions opts;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        return argv[++i];
      };
      const auto int_value = [&] { return number<int>(a, value()); };
      const auto u64_value = [&] { return number<std::uint64_t>(a, value()); };
      const auto real_value = [&] { return number<double>(a, value()); };
      if (a == "--socket") {
        listen.uds_path = value();
      } else if (a == "--listen") {
        parse_listen(value(), listen);
      } else if (a == "--threads") {
        opts.msf.threads = int_value();
      } else if (a == "--dispatchers") {
        opts.dispatchers = int_value();
      } else if (a == "--shards") {
        opts.shards = int_value();
      } else if (a == "--io-threads") {
        io_threads = std::max(1, int_value());
      } else if (a == "--queue-cap") {
        opts.queue_capacity = number<std::size_t>(a, value());
      } else if (a == "--default-deadline") {
        opts.default_deadline_s = real_value() / 1000.0;
      } else if (a == "--coalesce-window") {
        opts.coalesce_window_s = real_value() / 1000.0;
      } else if (a == "--alg") {
        opts.msf.algorithm = core::parse_algorithm(value());
      } else if (a == "--seed") {
        opts.msf.seed = u64_value();
      } else if (a == "--snapshot-ring") {
        opts.snapshot_ring = int_value();
      } else if (a == "--rate-limit-rps") {
        opts.rate_limit_rps = real_value();
      } else if (a == "--rate-limit-burst") {
        opts.rate_limit_burst = real_value();
      } else if (a == "--data-dir") {
        opts.data_dir = value();
      } else if (a == "--fsync") {
        opts.fsync = persist::parse_fsync_policy(value());
      } else if (a == "--fsync-interval") {
        opts.fsync_interval_s = real_value() / 1000.0;
      } else if (a == "--snapshot-every") {
        opts.snapshot_every_records = u64_value();
      } else if (a == "--snapshot-retain") {
        opts.snapshot_retain = int_value();
      } else if (a == "--crash-at") {
        crash_at = value();
      } else if (a == "--preload") {
        const std::string spec = value();
        const std::size_t eq = spec.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
          usage(("bad --preload spec '" + spec + "' (want NAME=PATH)").c_str());
        }
        preloads.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
      } else {
        usage(("unknown flag " + a).c_str());
      }
    }
    if (listen.uds_path.empty() && !listen.tcp_port.has_value()) {
      usage("need --socket PATH or --listen (uds:PATH and/or tcp:PORT)");
    }
    if (!crash_at.empty()) {
      // Chaos harness: kill this process (exit 137, no flush, no
      // destructors) at the (SKIP+1)-th hit of a named persist crash point.
      std::uint64_t skip = 0;
      std::string site = crash_at;
      const auto colon = crash_at.rfind(':');
      if (colon != std::string::npos) {
        site = crash_at.substr(0, colon);
        skip = number<std::uint64_t>("--crash-at", crash_at.substr(colon + 1));
      }
      FaultInjector::arm(site, FaultKind::kCrash, skip);
    }

    // Block the termination signals in every thread, then watch them from a
    // dedicated sigwait thread — the only async-signal-safe way to run the
    // full graceful teardown (drain, join, unlink) on a signal.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
    signal(SIGPIPE, SIG_IGN);

    serve::ServiceCore core(opts);
    for (const std::string& note : core.recovery_notes()) {
      std::printf("smpmsf-server: %s\n", note.c_str());
    }
    // Preloads run before any listener exists: a failed open is a startup
    // error, and clients can never race the initial solve.  A recovered
    // durable session with the same name wins (kAlreadyExists is fine).
    for (const auto& [name, path] : preloads) {
      serve::Request req;
      req.op = serve::Op::kOpen;
      req.session = name;
      req.path = path;
      const serve::Response resp = core.call(std::move(req));
      if (resp.status == serve::Status::kAlreadyExists) {
        std::printf("smpmsf-server: preload '%s': recovered session kept\n",
                    name.c_str());
      } else if (resp.status != serve::Status::kOk) {
        throw Error(ErrorCode::kInvalidInput,
                    "preload '" + name + "' from " + path + ": " + resp.detail);
      } else {
        std::printf("smpmsf-server: preloaded '%s' from %s (%zu forest edges,"
                    " %zu trees)\n",
                    name.c_str(), path.c_str(), resp.forest_edges, resp.trees);
      }
    }
    net::TcpServer server(core,
                          net::TcpServerOptions{.port = listen.tcp_port,
                                                .io_threads = io_threads,
                                                .unix_path = listen.uds_path});
    server.start();

    std::string where;
    if (!listen.uds_path.empty()) where += "uds:" + listen.uds_path;
    if (listen.tcp_port.has_value()) {
      if (!where.empty()) where += ",";
      where += "tcp:" + std::to_string(server.port());
    }
    std::printf("smpmsf-server: listening on %s (threads=%d shards=%d"
                " dispatchers=%d queue=%zu io-threads=%d",
                where.c_str(), core.options().msf.threads, core.shard_count(),
                core.options().dispatchers, core.options().queue_capacity,
                io_threads);
    if (!opts.data_dir.empty()) {
      std::printf(" data-dir=%s fsync=%s", opts.data_dir.c_str(),
                  std::string(persist::to_string(core.options().fsync)).c_str());
    }
    std::printf(")\n");
    std::fflush(stdout);

    std::atomic<bool> exiting{false};
    std::thread watcher([&] {
      int sig = 0;
      sigwait(&sigs, &sig);
      if (exiting.load()) return;  // woken by main for a clean wire shutdown
      std::printf("smpmsf-server: caught %s, draining\n", strsignal(sig));
      std::fflush(stdout);
      server.stop();
    });

    // A wire `shutdown` on either listener, or the watcher's stop(), wakes
    // wait().
    server.wait();
    server.stop();
    exiting.store(true);
    // Unblock the watcher if the shutdown came over the wire (no-op if it
    // already consumed a real signal).
    pthread_kill(watcher.native_handle(), SIGTERM);
    watcher.join();
    core.shutdown();
    std::printf("smpmsf-server: stopped\n");
    return 0;
  } catch (const smp::Error& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return ex.code() == smp::ErrorCode::kInvalidInput ? 3 : 1;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
}
