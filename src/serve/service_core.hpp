#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/msf.hpp"
#include "persist/session_log.hpp"
#include "pprim/cacheline.hpp"
#include "pprim/thread_team.hpp"
#include "serve/metrics.hpp"
#include "serve/placement.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"

namespace smp::query {
class ForestIndex;
}

namespace smp::serve {

struct Session;          // service_core.cpp
struct SessionSnapshot;  // service_core.cpp
struct ReadView;         // service_core.cpp

/// A flush compacts the session's store when fewer than this fraction of
/// its slots are live (and it has ServeOptions::compact_min_slots slots).
inline constexpr double kCompactLiveRatio = 0.5;

struct ServeOptions {
  /// Solver backend for every session: algorithm, seed, fallback policy.
  /// `msf.threads` sizes each shard's solver ThreadTeam; within one shard
  /// solves are scheduled one at a time; per-request budgets are installed
  /// by the dispatcher, so any budget set here is ignored.
  core::MsfOptions msf;
  /// Dispatcher threads per shard executing requests off that shard's
  /// queue.  Reads are served inline on the submitting thread when
  /// possible; queued work (writes, admin ops, reads against a not-yet-open
  /// session) needs >= 2 dispatchers for write coalescing to ever happen
  /// (one thread flushing while others feed the session's pending list).
  int dispatchers = 4;
  /// Per-shard admission-controlled request queue bound: a submit against a
  /// full queue fails fast with kOverloaded instead of growing the backlog.
  std::size_t queue_capacity = 256;
  /// Deadline applied to requests that carry none; 0 = unbounded.
  double default_deadline_s = 0;
  /// Coalescing window: after picking up the first write of a burst the
  /// flusher waits this long before draining the session's pending list, so
  /// a burst arriving over the window pays ONE sparsified solve instead of
  /// N (the request-batching shape of inference serving).  0 = flush
  /// immediately; bursts then only coalesce while a previous solve runs.
  double coalesce_window_s = 0;
  /// Store compaction trigger, checked after each flush: compact when
  /// slots >= compact_min_slots and live/slots < kCompactLiveRatio.
  std::size_t compact_min_slots = 4096;

  // --- scale-out serving ---
  /// Solver shards: each shard owns a ThreadTeam, a bounded request queue
  /// and its dispatcher pool; sessions are placed on shards by consistent
  /// hashing of the session name.  1 (default) runs every session on one
  /// pool; 0 auto-sizes from the machine's hardware threads.
  int shards = 1;
  /// MVCC snapshot ring: how many committed epochs each session retains for
  /// pinned reads.  Older epochs are reclaimed (and pinning them fails with
  /// kInvalidInput).  Minimum 1 — the latest epoch always exists.
  int snapshot_ring = 8;
  /// Per-client token-bucket rate limit on write/admin ops (requests per
  /// second, 0 = off).  Read-shaped ops ride the priority lane and are never
  /// rate limited — under overload the cheap reads keep flowing while
  /// writers are shed with kRateLimited.  Clients are identified by
  /// Request::client_id (stamped by the transports); unattributed requests
  /// are never limited.
  double rate_limit_rps = 0;
  /// Bucket depth (burst allowance); 0 = same as rate_limit_rps.
  double rate_limit_burst = 0;

  // --- durability ---
  /// Root of the durable state: each session persists to
  /// <data_dir>/<name>/ (WAL segments + snapshots, see persist/).  Empty
  /// disables persistence entirely — the in-memory behavior every earlier
  /// test relies on.  Opening the service recovers every session found
  /// under the root before the first request is admitted; corruption that
  /// recovery must not guess past makes the constructor throw.
  std::string data_dir;
  /// When an acknowledged write is actually on disk (see persist::FsyncPolicy).
  persist::FsyncPolicy fsync = persist::FsyncPolicy::kInterval;
  /// Group-commit window for fsync=interval, seconds.
  double fsync_interval_s = 0.005;
  /// Snapshot + WAL-rotation triggers and snapshot retention.
  std::uint64_t snapshot_wal_bytes = 64ull << 20;
  std::uint64_t snapshot_every_records = 0;  ///< 0 = size-based only
  int snapshot_retain = 2;
  /// Write the clean-shutdown epilogue (final snapshot + CLEAN marker) on
  /// shutdown().  Benches and recovery tests turn this off to leave a WAL
  /// tail behind for the next cold start to replay.
  bool clean_shutdown = true;
};

/// Transport-agnostic core of the MSF service: owns named graph sessions
/// (EdgeStore + DynamicMsf each), the solver shards (ThreadTeam + bounded
/// MPMC queue + dispatcher pool each), and the metrics registry.  The
/// daemon (net::TcpServer, over TCP and AF_UNIX), the in-process bench and
/// the tests all drive exactly this object — the wire protocols are thin
/// layers on top.
///
/// Concurrency model per session:
///  * every committed mutation publishes an immutable epoch-stamped MVCC
///    snapshot (an O(1) view of the shared edge store + forest + query
///    index, carried over while the forest is unchanged); reads and
///    queries serve from a snapshot without ever touching the writer lock
///    and are executed inline on the submitting thread (the read priority
///    lane);
///  * each thread that reads keeps a pinned view of the latest epoch it
///    served.  While that epoch is still the latest, a read takes no lock
///    and writes no cache line another thread writes; a miss, a pinned
///    read or an unknown session takes sessions_mu_, the session's snap_mu
///    and the epoch's index_mu once.  A parked thread retains at most that
///    one epoch (never the Session or its log), until its next read or its
///    exit;
///  * a bounded ring of recent epochs stays pinnable (Request::pin_epoch);
///    epochs that fall off the ring are reclaimed and refuse pins;
///  * writes enter a per-session pending list; one dispatcher becomes the
///    flusher, merges the queued writes in arrival order into
///    dynamic::WriteGroup groups, applies each group as one apply_batch
///    under the exclusive lock, and answers its members — coalescing N
///    queued writes into one sparsified solve.  A WriteGroup ends where a
///    delete depends on an earlier write of the group, and WAL replay
///    regroups the logged records by the same rule;
///  * solves (initial, apply, recompute) are scheduled one at a time per
///    shard on that shard's ThreadTeam; sessions hash onto shards by name,
///    so cross-session solver load spreads across shards instead of
///    queueing behind one pool.
///
/// Every request carries a deadline (its own or the default) mapped onto
/// smp::ExecutionBudget: a slow solve returns kDeadlineExceeded at the next
/// iteration checkpoint instead of wedging the queue.  A failed write
/// changes nothing: DynamicMsf::apply_batch rolls the store back, and the
/// group is neither logged nor published.
class ServiceCore {
 public:
  explicit ServiceCore(ServeOptions opts = {});
  ~ServiceCore();

  ServiceCore(const ServiceCore&) = delete;
  ServiceCore& operator=(const ServiceCore&) = delete;

  /// Asynchronous entry point: admit the request or fail fast.  `done` is
  /// invoked exactly once — inline on this thread for read-shaped ops and
  /// rejections, on a dispatcher thread otherwise — and must not block on
  /// the service.  Returns false when the request was rejected up front
  /// (queue full, rate limited, or shutting down; `done` has already run).
  bool submit(Request req, std::function<void(Response)> done);

  /// Synchronous form of submit().  A read-shaped op is answered directly
  /// on this thread (the read lane submit() uses), with no handoff.
  Response call(Request req);

  /// Stops admitting, drains every queued request, joins the dispatchers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// Transport registry, reported by the health verb: servers announce
  /// themselves ("uds:/path", "tcp:9090") on start and retract on stop.
  void add_listener(const std::string& name);
  void remove_listener(const std::string& name);

  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] std::string stats_json() const;
  [[nodiscard]] const ServeOptions& options() const { return opts_; }
  [[nodiscard]] int shard_count() const {
    return static_cast<int>(shards_.size());
  }
  /// What startup recovery did (sessions restored, records replayed, torn
  /// tails truncated, snapshot generations skipped) — one line per event,
  /// for the daemon to log.  Empty when persistence is off or the data dir
  /// was empty.
  [[nodiscard]] const std::vector<std::string>& recovery_notes() const {
    return recovery_notes_;
  }

 private:
  friend struct Session;  // pending lists hold QueuedRequest

  using Clock = std::chrono::steady_clock;

  struct QueuedRequest {
    Request req;
    std::function<void(Response)> done;
    Clock::time_point submitted;
    Clock::time_point deadline;  ///< Clock::time_point::max() = none
  };

  /// One solver shard: a ThreadTeam (one solve at a time, serialized by
  /// solver_mu), a bounded request queue with its dispatcher pool, and the
  /// NUMA cpu set its team threads are pinned to (empty = no pinning).
  struct Shard {
    int id = 0;
    std::unique_ptr<ThreadTeam> team;
    std::mutex solver_mu;  ///< serializes solves on `team`
    std::unique_ptr<BoundedQueue<QueuedRequest>> queue;
    std::vector<std::thread> dispatchers;
    std::vector<int> cpus;
  };

  struct TokenBucket {
    double tokens = 0;
    Clock::time_point last{};
  };

  void dispatcher_loop(Shard& shard);
  void execute(QueuedRequest qr);
  void finish(QueuedRequest& qr, Response r);

  [[nodiscard]] Shard& shard_of(const std::string& session_name);
  [[nodiscard]] std::shared_ptr<Session> find_session(const std::string& name);
  /// Token-bucket admission for write/admin ops; true = admit.
  [[nodiscard]] bool rate_admit(const std::string& client_id);

  Response do_open(const Request& req);
  Response do_drop(const Request& req);
  Response do_list();
  Response do_health(const Request& req);
  Response do_recompute(Session& s, const QueuedRequest& qr);
  Response do_compact(Session& s);

  /// The read lane, shared by submit() and call(): serves a read-shaped op
  /// inline from this thread's pinned view when its epoch is still the
  /// latest, else through read_locked(), and records the counters (sharded,
  /// so a hit writes only this thread's lines).  nullopt when it cannot
  /// serve the op here (unknown session, or shutting down); the caller then
  /// queues it for the uniform answer.
  std::optional<Response> serve_read(const Request& req,
                                     Clock::time_point submitted);
  /// A read-shaped op served from the MVCC snapshot it pins (latest by
  /// default) through the ring and index locks, never the state lock.  A
  /// query op marks the session query-active, which makes write flushes
  /// build the index eagerly.  A latest-epoch read refills `view` when one
  /// is given.
  Response read_locked(Session& s, const Request& req, ReadView* view);

  // --- MVCC snapshot machinery ---
  /// Publishes an immutable snapshot of the session's committed state as
  /// the newest epoch, retiring the oldest ring entry when the ring is
  /// full.  O(1) in the graph size: the epoch holds a view of the store.
  /// When the forest is the previous epoch's (same ids, no compaction in
  /// between), the forest-derived caches and the index carry over.  With
  /// `with_index` an index is built on the shard team if none carried, and
  /// attached before the epoch becomes visible.  Caller holds the exclusive
  /// state lock (or the session is not yet visible).
  void publish_snapshot_locked(Session& s, bool with_index = false);
  /// The snapshot for `pin_epoch` (0 = latest).  Returns nullptr and fills
  /// `err` when the epoch was retired or never committed.
  [[nodiscard]] std::shared_ptr<SessionSnapshot> pinned_snapshot(
      Session& s, std::uint64_t pin_epoch, Response* err);
  /// The snapshot's ForestIndex, building it on first use.  `eager` builds
  /// on the session's shard team (caller: the write flusher, holding the
  /// exclusive state lock); lazy builds run inline on the calling thread.
  std::shared_ptr<const query::ForestIndex> snapshot_index(
      Session& s, SessionSnapshot& snap, bool eager);

  void enqueue_write(const std::shared_ptr<Session>& s, QueuedRequest qr);
  void flush_writes(Session& s);
  /// Compacts the session's store, bumps the version and the compaction
  /// counters, and appends the WAL compact marker (replay must reproduce
  /// the store-id renumbering at the same point).  Returns the marker's
  /// LSN, 0 when the session does not log.  Caller holds the exclusive
  /// state lock and publishes the snapshot after.
  std::uint64_t compact_locked(Session& s);

  // --- durability plumbing (all no-ops when data_dir is empty) ---
  [[nodiscard]] persist::SessionLogOptions log_options();
  [[nodiscard]] std::string session_dir(const std::string& name) const;
  void recover_sessions();
  void replay_tail(Session& s, std::vector<persist::WalRecord> tail);
  /// Snapshots the session state at its current committed LSN (caller holds
  /// the exclusive state lock).
  void snapshot_session_locked(Session& s);

  ServeOptions opts_;
  /// Process-unique (addresses get reused): names this core in the thread
  /// views that outlive it.
  const std::uint64_t id_;
  MetricsRegistry metrics_;
  Clock::time_point started_;

  std::vector<std::unique_ptr<Shard>> shards_;
  placement::ShardRing ring_;

  mutable std::mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  std::vector<std::string> recovery_notes_;

  std::mutex listeners_mu_;
  std::vector<std::string> listeners_;

  std::mutex rl_mu_;
  std::unordered_map<std::string, TokenBucket> buckets_;

  /// On its own line: reads load it, and only shutdown writes it.
  alignas(kCacheLineBytes) std::atomic<bool> stopping_{false};
  std::once_flag shutdown_once_;
};

}  // namespace smp::serve
