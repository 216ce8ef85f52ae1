#include "serve/service_core.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <deque>
#include <exception>
#include <filesystem>
#include <future>
#include <optional>
#include <shared_mutex>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/error.hpp"
#include "dynamic/dynamic_msf.hpp"
#include "dynamic/write_group.hpp"
#include "graph/io.hpp"
#include "query/forest_index.hpp"
#include "serve/protocol.hpp"

namespace smp::serve {

using graph::EdgeId;
using graph::EdgeList;
using graph::VertexId;
using graph::WEdge;

/// One published MVCC epoch of a session: an O(1) view of the session's
/// edge store, an O(1) view of the committed forest, and lazily built read
/// caches — the kSnapshot payload, the forest's materialized ids and edges,
/// and the query ForestIndex.  A reader holding a shared_ptr to one of
/// these answers weight/edges/connected/pathmax/conn/cut/topk
/// bit-identically to a scratch solve of this epoch's graph, no matter how
/// far the session has moved on since.
struct SessionSnapshot {
  std::uint64_t epoch = 0;
  dynamic::StoreView view;
  /// The forest's membership blocks, size and version; the blocks are
  /// shared with the session's DynamicMsf and with every epoch whose forest
  /// did not touch them.
  dynamic::ForestView forest;
  graph::Weight weight = 0;
  std::size_t trees = 0;
  /// The store's compaction count: forest ids of two epochs name the same
  /// edges only when these match.
  std::uint64_t compactions = 0;

  /// Lazy caches, each built at most once.  aux_mu guards the cheap ones;
  /// the index (expensive, separately buildable) has its own mutex so a
  /// slow index build never blocks a `weight` or `edges` read.  Epochs with
  /// the same forest version share fids, fedges and the index body.
  mutable std::mutex aux_mu;
  mutable std::shared_ptr<SnapshotData> data;
  /// The forest as ascending store ids, and its edges in the same order.
  mutable std::shared_ptr<const std::vector<EdgeId>> fids;
  mutable std::shared_ptr<const std::vector<WEdge>> fedges;
  mutable std::mutex index_mu;
  mutable std::shared_ptr<const query::ForestIndex> index;
};

/// The words of a session that a reader's pinned view checks on every hit,
/// each on its own cache line.  The committer stores `latest_epoch` once per
/// published epoch; drop and shutdown store `closed` once.  Views hold it by
/// shared_ptr, never the Session.
struct SessionHead {
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> latest_epoch{0};
  alignas(kCacheLineBytes) std::atomic<bool> closed{false};
};

/// A reading thread's pinned view of one session's latest epoch.  A read
/// whose core, session and epoch match it answers from `snap` and `index`
/// without copying a shared_ptr or taking a lock.  It holds no Session, so
/// a dropped session's log and flusher thread never outlive the drop; what
/// it keeps alive is one epoch, released at the thread's next read that
/// misses, or at its exit.
struct ReadView {
  std::uint64_t core = 0;  ///< ServiceCore::id_; 0 = empty
  std::string session;
  std::uint64_t epoch = 0;
  std::shared_ptr<const SessionSnapshot> snap;
  /// The epoch's index; null when the view was filled before it had one.
  std::shared_ptr<const query::ForestIndex> index;
  std::shared_ptr<const SessionHead> head;
};

/// One named graph session.  `state_mu` is the writer lock: the write
/// flusher and recompute/compact hold it exclusively.  Reads never take it
/// — every committed mutation publishes an immutable SessionSnapshot into
/// the epoch ring, and reads serve from a ring entry (latest by default,
/// pinned via Request::pin_epoch otherwise) or from the reading thread's
/// ReadView of the latest one.  The pending list + flushing flag implement
/// write coalescing.
struct Session {
  std::string name;
  std::shared_ptr<SessionHead> head = std::make_shared<SessionHead>();

  std::shared_mutex state_mu;
  std::unique_ptr<dynamic::DynamicMsf> msf;  ///< guarded by state_mu
  std::uint64_t version = 0;  ///< committed-mutation counter, guarded by state_mu
  std::atomic<bool> ready{false};  ///< set once the initial solve committed

  ServiceCore::Shard* home = nullptr;  ///< shard placement, fixed at open

  std::mutex pending_mu;
  std::vector<ServiceCore::QueuedRequest> pending;
  bool flushing = false;

  // --- MVCC epoch ring ---
  /// snap_mu guards only the deque itself (push/retire/back); the snapshots
  /// are immutable, so a reader copies one shared_ptr and drops the mutex.
  std::mutex snap_mu;
  std::deque<std::shared_ptr<SessionSnapshot>> snaps;
  std::atomic<std::uint64_t> reclaimed_epochs{0};

  // --- query engine (src/query) ---
  /// Lock-free mirror of `version`, updated by every committer right after
  /// the bump: health compares it against the latest snapshot's index
  /// version without touching state_mu.
  std::atomic<std::uint64_t> committed_version{0};
  /// Set by the first query op; write flushes only rebuild the index
  /// eagerly for sessions that actually serve queries.  Stored only while
  /// still false, so reads keep its line shared.
  std::atomic<bool> query_active{false};
  std::atomic<std::uint64_t> index_rebuilds{0};

  // --- durability (log is null when the service runs without a data dir).
  // All SessionLog mutations (append / snapshot / mark_clean) happen under
  // the exclusive state lock; only wait_durable runs unlocked, so reads
  // never block on an fsync. ---
  std::unique_ptr<persist::SessionLog> log;
  std::atomic<bool> dropped{false};  ///< directory is being deleted
  std::atomic<std::uint64_t> committed_lsn{0};
  bool log_broken = false;  ///< an append failed; serve on, stop logging
  /// Idempotency window: id -> commit LSN, FIFO-bounded.  Guarded by the
  /// exclusive state lock (single active flusher; recovery runs before
  /// serving starts).
  std::unordered_map<std::string, std::uint64_t> idem;
  std::deque<std::string> idem_fifo;
};

namespace {

constexpr auto kNoDeadline =
    std::chrono::steady_clock::time_point::max();

Response make_error(Status s, std::string detail) {
  Response r;
  r.status = s;
  r.detail = std::move(detail);
  return r;
}

/// The status a failure answers with: an Error's own code, kInternal for
/// any other exception (an unbudgeted bad_alloc, an injected logic fault).
Status status_of(const std::exception& e) {
  const auto* err = dynamic_cast<const Error*>(&e);
  if (err == nullptr) return Status::kInternal;
  switch (err->code()) {
    case ErrorCode::kCancelled:
      return Status::kCancelled;
    case ErrorCode::kDeadlineExceeded:
      return Status::kDeadlineExceeded;
    case ErrorCode::kOutOfMemory:
      return Status::kOutOfMemory;
    case ErrorCode::kInvalidInput:
      return Status::kInvalidInput;
  }
  return Status::kInternal;
}

bool valid_session_name(const std::string& name) {
  if (name.empty() || name.size() > kMaxSessionNameBytes) return false;
  // Session names double as directory names under the data dir: "." and
  // ".." would escape it, and the ".dropping" suffix is reserved for
  // half-deleted directories startup recovery sweeps away.
  if (name == "." || name == "..") return false;
  if (name.size() >= 9 &&
      name.compare(name.size() - 9, 9, ".dropping") == 0) {
    return false;
  }
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' &&
        c != '-' && c != '.') {
      return false;
    }
  }
  return true;
}

/// Read-shaped ops serve from an immutable MVCC snapshot: no state lock, no
/// queueing — submit() executes them inline (the priority lane).
bool is_read_shaped(Op op) {
  switch (op) {
    case Op::kWeight:
    case Op::kConnected:
    case Op::kForestEdges:
    case Op::kSnapshot:
    case Op::kPathMax:
    case Op::kConn:
    case Op::kCut:
    case Op::kTopK:
      return true;
    default:
      return false;
  }
}

bool is_query_op(Op op) {
  return op == Op::kConnected || op == Op::kPathMax || op == Op::kConn ||
         op == Op::kCut || op == Op::kTopK;
}

/// Bound on remembered idempotency ids per session; old ids age out FIFO.
constexpr std::size_t kIdemWindow = 65536;

void register_idem(Session& s, std::string id, std::uint64_t lsn) {
  if (id.empty()) return;
  const auto [it, inserted] = s.idem.emplace(std::move(id), lsn);
  if (!inserted) {
    it->second = lsn;
    return;
  }
  s.idem_fifo.push_back(it->first);
  while (s.idem_fifo.size() > kIdemWindow) {
    s.idem.erase(s.idem_fifo.front());
    s.idem_fifo.pop_front();
  }
}

/// The idempotency window as snapshot payload, oldest first.
std::vector<std::pair<std::string, std::uint64_t>> idem_window(
    const Session& s) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(s.idem_fifo.size());
  for (const std::string& id : s.idem_fifo) {
    const auto it = s.idem.find(id);
    if (it != s.idem.end()) out.emplace_back(it->first, it->second);
  }
  return out;
}

/// Committed-mutation bump, called under the exclusive state lock.  Every
/// path that changes what a scratch solve of the session would return
/// (apply / recompute / compact — compaction renumbers the store
/// ids the query index holds) goes through here, so the lock-free mirror
/// stays in step with the locked counter.  The committer publishes an MVCC
/// snapshot once its run of bumps is complete.
void bump_version(Session& s) {
  ++s.version;
  s.committed_version.store(s.version, std::memory_order_release);
}

/// Whether the session appends to its log: it has one, no append has
/// failed, and it is not being dropped.
bool logging(const Session& s) {
  return s.log != nullptr && !s.log_broken &&
         !s.dropped.load(std::memory_order_acquire);
}

/// Appends `rec` to the session's log when it logs; returns the record's
/// LSN, 0 when it was not logged.  Caller holds the exclusive state lock,
/// under which the mutation the record describes was applied.
std::uint64_t append_record(Session& s, persist::WalRecord rec) {
  if (!logging(s)) return 0;
  try {
    const std::uint64_t lsn = s.log->append(std::move(rec));
    s.committed_lsn.store(lsn, std::memory_order_relaxed);
    return lsn;
  } catch (...) {
    // The mutation is applied in memory but could not be logged.  Any
    // later append would leave a gap replay refuses to cross, so logging
    // stops for this session: served state stays correct, durability
    // degrades to the last good record, and responses carry lsn 0.
    s.log_broken = true;
    return 0;
  }
}

/// Runs `solve` on the session's DynamicMsf under a budget that expires at
/// `deadline` (none at kNoDeadline), holding the home shard's solver lock.
/// The budget is cleared on every exit, an exception's included.
template <class Solve>
void solve_budgeted(Session& s, std::chrono::steady_clock::time_point deadline,
                    Solve&& solve) {
  ExecutionBudget budget;
  const bool bounded = deadline != kNoDeadline;
  if (bounded) {
    budget.set_deadline_after(std::chrono::duration<double>(
                                  deadline - std::chrono::steady_clock::now())
                                  .count());
  }
  struct Clear {
    dynamic::DynamicMsf& m;
    ~Clear() { m.set_budget(nullptr); }
  } clear{*s.msf};
  s.msf->set_budget(bounded ? &budget : nullptr);
  std::lock_guard<std::mutex> solver(s.home->solver_mu);
  solve(*s.msf);
}

void fill_forest_facts(Response& r, const dynamic::DynamicMsf& m) {
  r.weight = m.total_weight();
  r.trees = m.num_trees();
  r.forest_edges = m.forest_size();
  r.live_edges = m.store().num_live();
}

void fill_snapshot_facts(Response& r, const SessionSnapshot& snap) {
  r.weight = snap.weight;
  r.trees = snap.trees;
  r.forest_edges = snap.forest.size();
  r.live_edges = snap.view.num_live();
}

/// The snapshot's forest ids, materialized from its forest view on first use
/// (O(slots / 64 + n)).  Caller holds aux_mu.
const std::vector<EdgeId>& forest_ids_locked(const SessionSnapshot& snap) {
  if (snap.fids == nullptr) {
    snap.fids = std::make_shared<const std::vector<EdgeId>>(snap.forest.ids());
  }
  return *snap.fids;
}

/// The snapshot's kSnapshot payload, materialized from its view on first
/// use (O(m)) and cached for every later kSnapshot of the epoch.
std::shared_ptr<SnapshotData> snapshot_data(const SessionSnapshot& snap) {
  std::lock_guard<std::mutex> lk(snap.aux_mu);
  if (snap.data != nullptr) return snap.data;
  auto d = std::make_shared<SnapshotData>();
  d->live = snap.view.live_graph(&d->live_ids);
  d->forest_ids = forest_ids_locked(snap);
  d->weight = snap.weight;
  d->trees = snap.trees;
  d->version = snap.epoch;
  snap.data = d;
  return d;
}

/// The snapshot's forest edges (ascending by store id), read from the view
/// by id in O(n) and built once under aux_mu.
std::shared_ptr<const std::vector<WEdge>> snapshot_forest_edges(
    const SessionSnapshot& snap) {
  std::lock_guard<std::mutex> lk(snap.aux_mu);
  if (snap.fedges != nullptr) return snap.fedges;
  const std::vector<EdgeId>& ids = forest_ids_locked(snap);
  auto fe = std::make_shared<std::vector<WEdge>>();
  fe->reserve(ids.size());
  for (const EdgeId id : ids) fe->push_back(snap.view.edge(id));
  snap.fedges = fe;
  return fe;
}

/// A kWeight / kForestEdges / kSnapshot answer from one epoch.
Response answer_read(const Request& req, const SessionSnapshot& snap) {
  Response r;
  r.epoch = snap.epoch;
  switch (req.op) {
    case Op::kWeight:
      fill_snapshot_facts(r, snap);
      return r;
    case Op::kForestEdges: {
      fill_snapshot_facts(r, snap);
      const auto fe = snapshot_forest_edges(snap);
      r.edges_total = fe->size();
      const std::size_t take =
          req.limit == 0 ? fe->size() : std::min(req.limit, fe->size());
      r.edges.assign(fe->begin(),
                     fe->begin() + static_cast<std::ptrdiff_t>(take));
      return r;
    }
    case Op::kSnapshot:
      // Built from the epoch's view once, then immutable and shared —
      // handing the pointer out is the whole copy.
      fill_snapshot_facts(r, snap);
      r.snapshot = snapshot_data(snap);
      return r;
    default:
      return make_error(Status::kInternal, "bad read dispatch");
  }
}

/// A kConnected / kConn / kPathMax / kCut / kTopK answer from one epoch and
/// its ForestIndex.
Response answer_query(const Request& req, const SessionSnapshot& snap,
                      const query::ForestIndex& idx) {
  Response r;
  r.epoch = snap.epoch;
  r.index_version = idx.version();
  const VertexId n = idx.num_vertices();
  switch (req.op) {
    case Op::kConnected:
    case Op::kConn:
      if (req.u >= n || req.v >= n) {
        return make_error(Status::kInvalidInput, "vertex out of range");
      }
      r.connected = idx.connected(req.u, req.v);
      return r;
    case Op::kPathMax: {
      if (req.u >= n || req.v >= n) {
        return make_error(Status::kInvalidInput, "vertex out of range");
      }
      if (req.u == req.v) {
        return make_error(Status::kInvalidInput,
                          "pathmax endpoints must differ (empty path has no "
                          "bottleneck edge)");
      }
      const query::ForestIndex::PathMax pm = idx.path_max(req.u, req.v);
      r.pathmax_found = pm.connected;
      r.connected = pm.connected;
      if (pm.connected) {
        r.pathmax_id = pm.edge_id;
        r.pathmax_u = pm.u;
        r.pathmax_v = pm.v;
        r.pathmax_w = pm.weight;
      }
      return r;
    }
    case Op::kCut: {
      if (!std::isfinite(req.lambda)) {
        return make_error(Status::kInvalidInput, "lambda must be finite");
      }
      const query::ForestIndex::Cut c = idx.cut(req.lambda);
      r.clusters = c.num_clusters;
      r.cut_digest = c.labels_digest;
      return r;
    }
    case Op::kTopK: {
      // The line protocol validates these before the core; the binary
      // protocol hands requests straight through, so the core re-checks.
      if (req.limit == 0 || req.limit > kMaxTopK) {
        return make_error(Status::kInvalidInput,
                          "topk needs k in [1, " + std::to_string(kMaxTopK) +
                              "]");
      }
      std::optional<graph::Weight> lambda;
      if (req.has_lambda) {
        if (!std::isfinite(req.lambda)) {
          return make_error(Status::kInvalidInput, "lambda must be finite");
        }
        lambda = req.lambda;
      }
      // The scan runs over the epoch's immutable store view — no lock,
      // inline on this thread.
      ThreadTeam local(1);
      const std::vector<query::ForestIndex::TopkEdge> top =
          idx.top_k(local, snap.view, req.limit, lambda);
      r.edges.reserve(top.size());
      r.edge_ids.reserve(top.size());
      for (const auto& e : top) {
        r.edges.push_back(WEdge{e.u, e.v, e.w});
        r.edge_ids.push_back(e.id);
      }
      return r;
    }
    default:
      return make_error(Status::kInternal, "bad query dispatch");
  }
}

/// This thread's pinned view (see ReadView).
thread_local ReadView t_view;

std::uint64_t next_core_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

int auto_shards() {
  const unsigned hw = std::thread::hardware_concurrency();
  // One shard per four hardware threads: a shard spends its parallelism on
  // its solver team, not on shard count, and small machines stay at 1.
  return std::max(1, static_cast<int>(hw / 4));
}

ServeOptions normalize(ServeOptions opts) {
  opts.msf.threads = std::max(1, opts.msf.threads);
  opts.dispatchers = std::max(1, opts.dispatchers);
  opts.queue_capacity = std::max<std::size_t>(1, opts.queue_capacity);
  if (opts.shards == 0) opts.shards = auto_shards();
  opts.shards = std::max(1, opts.shards);
  opts.snapshot_ring = std::max(1, opts.snapshot_ring);
  if (opts.rate_limit_rps > 0 && opts.rate_limit_burst <= 0) {
    opts.rate_limit_burst = opts.rate_limit_rps;
  }
  // Per-request budgets are installed by the dispatcher; a caller-supplied
  // one would dangle across requests.
  opts.msf.budget = nullptr;
  if (opts.fsync_interval_s <= 0) opts.fsync_interval_s = 0.005;
  opts.snapshot_retain = std::max(1, opts.snapshot_retain);
  return opts;
}

}  // namespace

ServiceCore::ServiceCore(ServeOptions opts)
    : opts_(normalize(std::move(opts))),
      id_(next_core_id()),
      started_(Clock::now()),
      ring_(opts_.shards) {
  // Shards first: recovery schedules replay solves on their teams.  With
  // several memory nodes, shard i's solver team pins to node i mod nodes so
  // each shard's working set stays node-local.
  const std::vector<std::vector<int>> nodes = placement::numa_nodes();
  shards_.reserve(static_cast<std::size_t>(opts_.shards));
  for (int i = 0; i < opts_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->id = i;
    shard->team = std::make_unique<ThreadTeam>(opts_.msf.threads);
    shard->queue =
        std::make_unique<BoundedQueue<QueuedRequest>>(opts_.queue_capacity);
    if (nodes.size() > 1 && opts_.shards > 1) {
      shard->cpus = nodes[static_cast<std::size_t>(i) % nodes.size()];
      const std::vector<int>& cpus = shard->cpus;
      // Workers self-pin; tid 0 is this (caller) thread and stays free.
      shard->team->run([&cpus](TeamCtx& ctx) {
        if (ctx.tid() != 0) placement::pin_current_thread(cpus);
      });
    }
    shards_.push_back(std::move(shard));
  }
  // Recovery happens before the first dispatcher exists, so every restored
  // session is fully replayed before any request can observe it.
  if (!opts_.data_dir.empty()) recover_sessions();
  for (auto& shard : shards_) {
    shard->dispatchers.reserve(static_cast<std::size_t>(opts_.dispatchers));
    for (int i = 0; i < opts_.dispatchers; ++i) {
      Shard* sp = shard.get();
      shard->dispatchers.emplace_back([this, sp] { dispatcher_loop(*sp); });
    }
  }
}

ServiceCore::~ServiceCore() { shutdown(); }

void ServiceCore::shutdown() {
  std::call_once(shutdown_once_, [&] {
    stopping_.store(true, std::memory_order_release);
    {
      // Thread views of this core's sessions stop hitting, so a read after
      // shutdown reaches the stopping_ check.
      std::lock_guard<std::mutex> lk(sessions_mu_);
      for (auto& [name, s] : sessions_) {
        s->head->closed.store(true, std::memory_order_release);
      }
    }
    for (auto& shard : shards_) shard->queue->close();  // admitted work drains
    for (auto& shard : shards_) {
      for (auto& t : shard->dispatchers) t.join();
    }
    if (!opts_.data_dir.empty() && opts_.clean_shutdown) {
      // Graceful drain: every write is flushed and logged, so a final
      // snapshot + CLEAN marker lets the next startup skip replay.
      std::lock_guard<std::mutex> lk(sessions_mu_);
      for (auto& [name, s] : sessions_) {
        if (!s->ready.load(std::memory_order_acquire) || !logging(*s)) continue;
        std::unique_lock<std::shared_mutex> state(s->state_mu);
        try {
          s->log->mark_clean(s->msf->store(), s->msf->forest_edge_ids(),
                             idem_window(*s));
        } catch (...) {
          // Best effort: without the marker the next start replays the WAL.
        }
      }
    }
  });
}

void ServiceCore::add_listener(const std::string& name) {
  std::lock_guard<std::mutex> lk(listeners_mu_);
  listeners_.push_back(name);
}

void ServiceCore::remove_listener(const std::string& name) {
  std::lock_guard<std::mutex> lk(listeners_mu_);
  const auto it = std::find(listeners_.begin(), listeners_.end(), name);
  if (it != listeners_.end()) listeners_.erase(it);
}

ServiceCore::Shard& ServiceCore::shard_of(const std::string& session_name) {
  if (shards_.size() == 1 || session_name.empty()) return *shards_[0];
  return *shards_[static_cast<std::size_t>(ring_.shard_for(session_name))];
}

bool ServiceCore::rate_admit(const std::string& client_id) {
  if (opts_.rate_limit_rps <= 0 || client_id.empty()) return true;
  std::lock_guard<std::mutex> lk(rl_mu_);
  const auto now = Clock::now();
  TokenBucket& b = buckets_[client_id];
  if (b.last == Clock::time_point{}) {
    b.tokens = opts_.rate_limit_burst;  // first sight: a full bucket
    b.last = now;
  }
  const double dt = std::chrono::duration<double>(now - b.last).count();
  b.tokens = std::min(opts_.rate_limit_burst,
                      b.tokens + opts_.rate_limit_rps * dt);
  b.last = now;
  if (b.tokens >= 1.0) {
    b.tokens -= 1.0;
    return true;
  }
  return false;
}

bool ServiceCore::submit(Request req, std::function<void(Response)> done) {
  const Clock::time_point now = Clock::now();
  if (is_read_shaped(req.op)) {
    // The read priority lane: snapshot reads run inline on the submitting
    // (transport) thread — no queueing behind writes, no dispatcher
    // handoff, and overload shedding never touches them.  Unknown sessions
    // fall through to the queue for the uniform kNotFound path.
    if (std::optional<Response> r = serve_read(req, now)) {
      done(std::move(*r));
      return true;
    }
  }
  metrics_.submitted.fetch_add(1, std::memory_order_relaxed);
  QueuedRequest qr;
  qr.req = std::move(req);
  qr.done = std::move(done);
  qr.submitted = now;
  qr.deadline = kNoDeadline;
  const double dl =
      qr.req.deadline_s > 0 ? qr.req.deadline_s : opts_.default_deadline_s;
  if (dl > 0) {
    qr.deadline =
        qr.submitted + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(dl));
  }
  if (stopping_.load(std::memory_order_acquire)) {
    metrics_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
    qr.done(make_error(Status::kShuttingDown, "service is shutting down"));
    return false;
  }
  // Tiered back-pressure: write/admin ops pay the per-client token bucket;
  // read-shaped ops ride the priority lane and are never limited.
  if (!is_read_shaped(qr.req.op) && !rate_admit(qr.req.client_id)) {
    metrics_.rejected_rate_limited.fetch_add(1, std::memory_order_relaxed);
    qr.done(make_error(Status::kRateLimited,
                       "client '" + qr.req.client_id + "' over rate limit"));
    return false;
  }
  Shard& shard = shard_of(qr.req.session);
  if (!shard.queue->try_push(std::move(qr))) {
    // try_push only consumes the item on success, so qr is intact here.
    const bool down = stopping_.load(std::memory_order_acquire);
    auto& counter = down ? metrics_.rejected_shutdown : metrics_.rejected_overload;
    counter.fetch_add(1, std::memory_order_relaxed);
    qr.done(make_error(down ? Status::kShuttingDown : Status::kOverloaded,
                       down ? "service is shutting down"
                            : "request queue is full"));
    return false;
  }
  metrics_.record_queue_depth(shard.queue->size());
  return true;
}

Response ServiceCore::call(Request req) {
  if (is_read_shaped(req.op)) {
    if (std::optional<Response> r = serve_read(req, Clock::now())) {
      return std::move(*r);
    }
  }
  std::promise<Response> p;
  std::future<Response> f = p.get_future();
  submit(std::move(req), [&p](Response r) { p.set_value(std::move(r)); });
  return f.get();
}

std::string ServiceCore::stats_json() const {
  const double uptime =
      std::chrono::duration<double>(Clock::now() - started_).count();
  std::vector<std::uint64_t> depths;
  depths.reserve(shards_.size());
  for (const auto& shard : shards_) depths.push_back(shard->queue->size());
  return metrics_.to_json(opts_.queue_capacity, uptime, depths);
}

void ServiceCore::dispatcher_loop(Shard& shard) {
  if (!shard.cpus.empty()) placement::pin_current_thread(shard.cpus);
  while (auto item = shard.queue->pop()) {
    metrics_.record_queue_depth(shard.queue->size());
    execute(std::move(*item));
  }
}

void ServiceCore::finish(QueuedRequest& qr, Response r) {
  const auto us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            qr.submitted)
          .count());
  metrics_.record_completion(qr.req.op, r.status, us);
  qr.done(std::move(r));
}

std::shared_ptr<Session> ServiceCore::find_session(const std::string& name) {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end() ||
      !it->second->ready.load(std::memory_order_acquire)) {
    return nullptr;
  }
  return it->second;
}

std::optional<Response> ServiceCore::serve_read(const Request& req,
                                                Clock::time_point submitted) {
  ReadView& view = t_view;
  const bool query = is_query_op(req.op);
  Response r;
  try {
    // The hit: two acquire loads of lines only committers write, and a
    // name compare.  No lock, no refcount, no store to a shared line.
    if (req.pin_epoch == 0 && view.core == id_ &&
        (view.index != nullptr || !query) && view.session == req.session &&
        !view.head->closed.load(std::memory_order_acquire) &&
        view.head->latest_epoch.load(std::memory_order_acquire) ==
            view.epoch) {
      if (query) metrics_.index_hits.fetch_add(1, std::memory_order_relaxed);
      r = query ? answer_query(req, *view.snap, *view.index)
                : answer_read(req, *view.snap);
    } else {
      view = ReadView{};  // a thread keeps at most one epoch alive
      if (stopping_.load(std::memory_order_acquire)) return std::nullopt;
      const std::shared_ptr<Session> s = find_session(req.session);
      if (s == nullptr) return std::nullopt;
      r = read_locked(*s, req, &view);
    }
  } catch (const std::exception& e) {
    r = make_error(status_of(e), e.what());
  }
  metrics_.submitted.fetch_add(1, std::memory_order_relaxed);
  metrics_.reads_inline.fetch_add(1, std::memory_order_relaxed);
  metrics_.record_completion(
      req.op, r.status,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                submitted)
              .count()));
  return r;
}

Response ServiceCore::read_locked(Session& s, const Request& req,
                                  ReadView* view) {
  const bool query = is_query_op(req.op);
  if (query && !s.query_active.load(std::memory_order_relaxed)) {
    s.query_active.store(true, std::memory_order_relaxed);
  }
  Response err;
  const std::shared_ptr<SessionSnapshot> snap =
      pinned_snapshot(s, req.pin_epoch, &err);
  if (snap == nullptr) return err;
  // The snapshot's index when it is already built (eagerly at a flush
  // tail, or by an earlier query against this epoch).
  std::shared_ptr<const query::ForestIndex> idx;
  {
    std::lock_guard<std::mutex> lk(snap->index_mu);
    idx = snap->index;
  }
  if (query) {
    if (idx != nullptr) {
      metrics_.index_hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      metrics_.index_misses.fetch_add(1, std::memory_order_relaxed);
      idx = snapshot_index(s, *snap, /*eager=*/false);
    }
  }
  if (view != nullptr && req.pin_epoch == 0) {
    view->core = id_;
    view->session = s.name;
    view->epoch = snap->epoch;
    view->snap = snap;
    view->index = idx;
    view->head = s.head;
  }
  return query ? answer_query(req, *snap, *idx) : answer_read(req, *snap);
}

void ServiceCore::execute(QueuedRequest qr) {
  if (qr.deadline != kNoDeadline && Clock::now() >= qr.deadline) {
    finish(qr, make_error(Status::kDeadlineExceeded,
                          "deadline expired while queued"));
    return;
  }
  try {
    switch (qr.req.op) {
      case Op::kPing:
        finish(qr, Response{});
        return;
      case Op::kStats: {
        Response r;
        r.stats_json = stats_json();
        finish(qr, std::move(r));
        return;
      }
      case Op::kOpen:
        finish(qr, do_open(qr.req));
        return;
      case Op::kDrop:
        finish(qr, do_drop(qr.req));
        return;
      case Op::kList:
        finish(qr, do_list());
        return;
      case Op::kHealth:
        finish(qr, do_health(qr.req));
        return;
      default:
        break;
    }
    const std::shared_ptr<Session> s = find_session(qr.req.session);
    if (s == nullptr) {
      finish(qr, make_error(Status::kNotFound,
                            "no session named '" + qr.req.session + "'"));
      return;
    }
    switch (qr.req.op) {
      case Op::kInsert:
      case Op::kDelete:
        if (qr.req.idem_id.size() > kMaxIdemIdBytes) {
          finish(qr, make_error(Status::kInvalidInput,
                                "idempotency id longer than " +
                                    std::to_string(kMaxIdemIdBytes) +
                                    " bytes"));
          return;
        }
        enqueue_write(s, std::move(qr));  // responds from the flusher
        return;
      case Op::kRecompute:
        finish(qr, do_recompute(*s, qr));
        return;
      case Op::kCompact:
        finish(qr, do_compact(*s));
        return;
      default:
        finish(qr, read_locked(*s, qr.req, nullptr));
        return;
    }
  } catch (const std::exception& e) {
    finish(qr, make_error(status_of(e), e.what()));
  }
}

void ServiceCore::publish_snapshot_locked(Session& s, bool with_index) {
  std::shared_ptr<SessionSnapshot> prev;
  {
    std::lock_guard<std::mutex> lk(s.snap_mu);
    if (!s.snaps.empty()) prev = s.snaps.back();
  }
  const dynamic::EdgeStore& store = s.msf->store();
  auto snap = std::make_shared<SessionSnapshot>();
  snap->epoch = s.version;
  snap->view = store.view();
  snap->weight = s.msf->total_weight();
  snap->trees = s.msf->num_trees();
  snap->compactions = store.compactions();
  if (prev != nullptr && prev->compactions == snap->compactions &&
      prev->forest.version() == s.msf->forest_version()) {
    // Same forest version, same ids: everything derived from the forest
    // carries over, and the index is restamped with this epoch in O(1).
    snap->forest = prev->forest;
    {
      std::lock_guard<std::mutex> lk(prev->aux_mu);
      snap->fids = prev->fids;
      snap->fedges = prev->fedges;
    }
    std::lock_guard<std::mutex> lk(prev->index_mu);
    if (prev->index != nullptr) {
      snap->index = prev->index->restamped(snap->epoch);
      metrics_.index_carried.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    snap->forest = s.msf->share_forest();
  }
  // Attach the index before the epoch becomes visible, so no reader finds
  // this epoch without one and builds it inline.
  if (with_index && snap->index == nullptr) {
    snapshot_index(s, *snap, /*eager=*/true);
  }
  const std::uint64_t epoch = snap->epoch;
  {
    std::lock_guard<std::mutex> lk(s.snap_mu);
    s.snaps.push_back(std::move(snap));
    while (s.snaps.size() > static_cast<std::size_t>(opts_.snapshot_ring)) {
      s.snaps.pop_front();
      s.reclaimed_epochs.fetch_add(1, std::memory_order_relaxed);
      metrics_.epochs_reclaimed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // After the push: a view that sees this epoch as the latest either holds
  // it already or finds it in the ring.
  s.head->latest_epoch.store(epoch, std::memory_order_release);
  metrics_.snapshots_published.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<SessionSnapshot> ServiceCore::pinned_snapshot(
    Session& s, std::uint64_t pin_epoch, Response* err) {
  std::lock_guard<std::mutex> lk(s.snap_mu);
  if (s.snaps.empty()) {
    *err = make_error(Status::kInternal, "session has no published snapshot");
    return nullptr;
  }
  if (pin_epoch == 0) return s.snaps.back();
  for (const auto& snap : s.snaps) {
    if (snap->epoch == pin_epoch) return snap;
  }
  if (pin_epoch > s.snaps.back()->epoch) {
    *err = make_error(Status::kInvalidInput,
                      "epoch " + std::to_string(pin_epoch) +
                          " not committed yet (latest is " +
                          std::to_string(s.snaps.back()->epoch) + ")");
  } else {
    *err = make_error(Status::kInvalidInput,
                      "epoch " + std::to_string(pin_epoch) +
                          " retired (ring keeps " +
                          std::to_string(s.snaps.size()) +
                          " epochs, oldest is " +
                          std::to_string(s.snaps.front()->epoch) + ")");
  }
  return nullptr;
}

std::shared_ptr<const query::ForestIndex> ServiceCore::snapshot_index(
    Session& s, SessionSnapshot& snap, bool eager) {
  // index_mu serializes concurrent builders: the first one builds, the rest
  // find the published index under the same mutex.
  std::lock_guard<std::mutex> lk(snap.index_mu);
  if (snap.index != nullptr) return snap.index;
  std::vector<WEdge> fedges = *snapshot_forest_edges(snap);
  std::vector<EdgeId> fids;
  {
    std::lock_guard<std::mutex> aux(snap.aux_mu);
    fids = forest_ids_locked(snap);
  }
  std::shared_ptr<const query::ForestIndex> idx;
  if (eager) {
    // Flusher path (exclusive state lock held): build in parallel on the
    // session's shard team.
    std::lock_guard<std::mutex> solver(s.home->solver_mu);
    idx = std::make_shared<query::ForestIndex>(
        *s.home->team, snap.view.num_vertices(), std::move(fedges),
        std::move(fids), snap.epoch);
  } else {
    // Read path: build inline on the calling thread — a ThreadTeam of one
    // runs regions in place with zero threading overhead, and the shard
    // team stays free for solves.
    ThreadTeam local(1);
    idx = std::make_shared<query::ForestIndex>(
        local, snap.view.num_vertices(), std::move(fedges),
        std::move(fids), snap.epoch);
  }
  snap.index = idx;
  s.index_rebuilds.fetch_add(1, std::memory_order_relaxed);
  metrics_.index_rebuilds.fetch_add(1, std::memory_order_relaxed);
  metrics_.index_rebuild_us.record(
      static_cast<std::uint64_t>(idx->stats().build_seconds * 1e6));
  return idx;
}

Response ServiceCore::do_open(const Request& req) {
  if (!valid_session_name(req.session)) {
    return make_error(Status::kInvalidInput,
                      "session names are [A-Za-z0-9_.-]{1,64}");
  }
  if (req.path.empty() && req.num_vertices == 0) {
    return make_error(Status::kInvalidInput,
                      "open needs a vertex count or a graph file");
  }
  auto session = std::make_shared<Session>();
  session->name = req.session;
  session->home = &shard_of(req.session);
  {
    // Reserve the name first so two concurrent opens cannot both build the
    // (possibly expensive) initial solve for it.
    std::lock_guard<std::mutex> lk(sessions_mu_);
    const auto [it, inserted] = sessions_.emplace(req.session, session);
    if (!inserted) {
      return make_error(
          it->second->ready.load(std::memory_order_acquire)
              ? Status::kAlreadyExists
              : Status::kInvalidInput,
          "session '" + req.session + "' already exists or is opening");
    }
  }
  const auto drop_placeholder = [&] {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    sessions_.erase(req.session);
  };
  try {
    dynamic::DynamicMsfOptions dopts;
    dopts.msf = opts_.msf;
    dopts.team = session->home->team.get();
    if (req.path.empty()) {
      session->msf = std::make_unique<dynamic::DynamicMsf>(req.num_vertices,
                                                           dopts);
    } else {
      const EdgeList g = graph::load_graph(req.path);
      // The initial solve is scheduled like any other on the home shard.
      std::lock_guard<std::mutex> solver(session->home->solver_mu);
      session->msf = std::make_unique<dynamic::DynamicMsf>(g, dopts);
    }
  } catch (const Error& e) {
    drop_placeholder();
    return make_error(status_of(e), e.what());
  } catch (const std::exception& e) {
    drop_placeholder();
    return make_error(Status::kInvalidInput, e.what());
  }
  if (!opts_.data_dir.empty()) {
    const std::string dir = session_dir(req.session);
    try {
      persist::RecoveredState st;
      session->log = std::make_unique<persist::SessionLog>(dir, log_options(),
                                                           &st);
      if (st.have_snapshot || !st.tail.empty()) {
        // Unreachable after a correct recovery pass, but never overwrite
        // durable state that a fresh open did not create.
        throw Error(ErrorCode::kInvalidInput,
                    "directory '" + dir + "' already holds durable state");
      }
      // Initial snapshot at LSN 0: recovery reads the vertex count (and any
      // file-loaded edges) from it, so it must exist before open is acked.
      session->log->write_snapshot(session->msf->store(),
                                   session->msf->forest_edge_ids(), {});
    } catch (const Error& e) {
      session->log.reset();
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      drop_placeholder();
      return make_error(status_of(e), e.what());
    }
  }
  // Epoch 0 — the initial committed state — publishes before the session is
  // visible, so a read can never find an empty ring.
  publish_snapshot_locked(*session);
  session->ready.store(true, std::memory_order_release);
  Response r;
  fill_forest_facts(r, *session->msf);
  return r;
}

Response ServiceCore::do_drop(const Request& req) {
  std::shared_ptr<Session> victim;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    const auto it = sessions_.find(req.session);
    if (it == sessions_.end() ||
        !it->second->ready.load(std::memory_order_acquire)) {
      return make_error(Status::kNotFound,
                        "no session named '" + req.session + "'");
    }
    // In-flight requests hold their own shared_ptr and finish against the
    // detached session; new lookups fail from here on.
    victim = it->second;
    sessions_.erase(it);
  }
  // Before the ack: once the client sees it, no thread view answers from
  // the dropped session.
  victim->head->closed.store(true, std::memory_order_release);
  if (victim->log != nullptr) {
    // Atomic-rename the directory out of the namespace first: a crash
    // mid-delete leaves a '<name>.dropping' husk recovery sweeps, never a
    // half-valid session.  Open fds inside keep working (writes land in
    // unlinked inodes), so a straggling flusher is harmless.
    victim->dropped.store(true, std::memory_order_release);
    const std::string dir = session_dir(req.session);
    const std::string doomed = dir + ".dropping";
    std::error_code ec;
    std::filesystem::rename(dir, doomed, ec);
    if (!ec) std::filesystem::remove_all(doomed, ec);
  }
  return Response{};
}

Response ServiceCore::do_list() {
  Response r;
  std::lock_guard<std::mutex> lk(sessions_mu_);
  for (const auto& [name, s] : sessions_) {
    if (s->ready.load(std::memory_order_acquire)) r.sessions.push_back(name);
  }
  return r;
}

Response ServiceCore::do_health(const Request& req) {
  Response r;
  std::uint64_t depth_sum = 0;
  r.shard_depths.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const std::uint64_t d = shard->queue->size();
    r.shard_depths.push_back(d);
    depth_sum += d;
  }
  r.health_queue_depth = depth_sum;
  r.uptime_s = std::chrono::duration<double>(Clock::now() - started_).count();
  {
    std::lock_guard<std::mutex> lk(listeners_mu_);
    r.listeners = listeners_;
  }
  std::lock_guard<std::mutex> lk(sessions_mu_);
  std::uint64_t lsn = 0;
  std::uint64_t reclaimed = 0;
  std::size_t count = 0;
  for (const auto& [name, s] : sessions_) {
    if (!s->ready.load(std::memory_order_acquire)) continue;
    ++count;
    lsn = std::max(lsn, s->committed_lsn.load(std::memory_order_relaxed));
    reclaimed += s->reclaimed_epochs.load(std::memory_order_relaxed);
  }
  r.reclaimed_epochs = reclaimed;
  if (!req.session.empty()) {
    const auto it = sessions_.find(req.session);
    if (it == sessions_.end() ||
        !it->second->ready.load(std::memory_order_acquire)) {
      return make_error(Status::kNotFound,
                        "no session named '" + req.session + "'");
    }
    Session& s = *it->second;
    lsn = s.committed_lsn.load(std::memory_order_relaxed);
    r.epoch = s.committed_version.load(std::memory_order_acquire);
    // Per-session query-index status, read off the latest MVCC snapshot.
    r.index_status = true;
    r.index_rebuilds = s.index_rebuilds.load(std::memory_order_relaxed);
    std::shared_ptr<SessionSnapshot> snap;
    {
      std::lock_guard<std::mutex> slk(s.snap_mu);
      if (!s.snaps.empty()) snap = s.snaps.back();
    }
    std::shared_ptr<const query::ForestIndex> idx;
    if (snap != nullptr) {
      std::lock_guard<std::mutex> ilk(snap->index_mu);
      idx = snap->index;
    }
    if (idx != nullptr) {
      r.index_present = true;
      r.index_version = idx->version();
      r.index_fresh =
          idx->version() ==
          s.committed_version.load(std::memory_order_acquire);
      r.index_vertices = idx->num_vertices();
      r.index_edges = idx->num_forest_edges();
      r.index_age_s =
          std::chrono::duration<double>(Clock::now() - idx->built_at())
              .count();
      r.index_build_s = idx->stats().build_seconds;
    }
  }
  r.health_sessions = count;
  r.lsn = lsn;
  return r;
}

Response ServiceCore::do_recompute(Session& s, const QueuedRequest& qr) {
  std::unique_lock<std::shared_mutex> lk(s.state_mu);
  try {
    solve_budgeted(s, qr.deadline,
                   [](dynamic::DynamicMsf& m) { m.recompute(); });
  } catch (const Error& e) {
    // A failed recompute commits nothing: the previous forest stays.
    return make_error(status_of(e), e.what());
  }
  bump_version(s);
  publish_snapshot_locked(s);
  Response r;
  fill_forest_facts(r, *s.msf);
  r.epoch = s.version;
  return r;
}

Response ServiceCore::do_compact(Session& s) {
  std::unique_lock<std::shared_mutex> lk(s.state_mu);
  const std::uint64_t lsn = compact_locked(s);
  publish_snapshot_locked(s);
  Response r;
  fill_forest_facts(r, *s.msf);
  r.remapped = s.msf->store().size();
  r.lsn = lsn;
  r.epoch = s.version;
  lk.unlock();
  if (lsn != 0) s.log->wait_durable(lsn);
  return r;
}

std::uint64_t ServiceCore::compact_locked(Session& s) {
  const std::size_t before = s.msf->store().size();
  s.msf->compact_store();
  bump_version(s);
  metrics_.compactions.fetch_add(1, std::memory_order_relaxed);
  metrics_.slots_reclaimed.fetch_add(before - s.msf->store().size(),
                                     std::memory_order_relaxed);
  // Compaction renumbers store ids, which every later WAL record names —
  // replay must reproduce the renumbering at exactly this point.
  persist::WalRecord rec;
  rec.compact = true;
  return append_record(s, std::move(rec));
}

void ServiceCore::enqueue_write(const std::shared_ptr<Session>& s,
                                QueuedRequest qr) {
  {
    std::lock_guard<std::mutex> lk(s->pending_mu);
    s->pending.push_back(std::move(qr));
    if (s->flushing) return;  // the active flusher will pick it up
    s->flushing = true;
  }
  // This thread became the session's flusher.  An optional coalescing
  // window lets a burst accumulate behind us before the first drain.
  if (opts_.coalesce_window_s > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(opts_.coalesce_window_s));
  }
  flush_writes(*s);
}

void ServiceCore::flush_writes(Session& s) {
  std::unique_lock<std::shared_mutex> state(s.state_mu);
  for (;;) {
    std::vector<QueuedRequest> batch;
    {
      std::lock_guard<std::mutex> lk(s.pending_mu);
      batch.swap(s.pending);
      if (batch.empty()) {
        s.flushing = false;
        return;
      }
    }

    // Merge the drained writes, in arrival order, into groups that one
    // apply_batch can serve.  dynamic::WriteGroup decides where a group must
    // end (a delete that depends on an earlier write of the group); applying
    // first keeps replay order-exact.
    std::size_t i = 0;
    while (i < batch.size()) {
      std::vector<std::size_t> members;
      dynamic::WriteGroup group(s.msf->store());
      std::vector<std::string> group_idem;
      std::unordered_set<std::string> group_idem_set;
      auto earliest = kNoDeadline;
      const auto now = Clock::now();

      while (i < batch.size()) {
        QueuedRequest& w = batch[i];
        if (w.deadline != kNoDeadline && now >= w.deadline) {
          // Expired while waiting to be merged: dropped atomically, nothing
          // of it reaches the store.
          finish(w, make_error(Status::kDeadlineExceeded,
                               "deadline expired before apply"));
          ++i;
          continue;
        }
        if (!w.req.idem_id.empty()) {
          const auto hit = s.idem.find(w.req.idem_id);
          if (hit != s.idem.end()) {
            // A retry of a write that already committed (the ack was lost in
            // transit): answer from the idempotency window instead of
            // re-applying, echoing the original commit LSN.  The original
            // ack already waited for durability, so no wait here.
            metrics_.dedup_hits.fetch_add(1, std::memory_order_relaxed);
            Response r;
            fill_forest_facts(r, *s.msf);
            r.coalesced = 1;
            r.dedup = true;
            r.lsn = hit->second;
            r.idem_id = w.req.idem_id;
            r.epoch = s.version;
            finish(w, std::move(r));
            ++i;
            continue;
          }
          if (group_idem_set.count(w.req.idem_id) != 0) {
            // Same id twice in one group (an eager retry caught up with the
            // original): cut the group here; once it commits and registers
            // its ids, the retry dedups on the next pass.
            metrics_.coalesce_conflicts.fetch_add(1,
                                                  std::memory_order_relaxed);
            break;
          }
        }
        const bool is_insert = w.req.op == Op::kInsert;
        std::string bad;
        bool cut = false;
        std::vector<EdgeId> resolved;  // a delete's canonical live edges
        dynamic::PairTable seen;       // the same ids, as a set
        if (is_insert) {
          for (const WEdge& e : w.req.insertions) {
            try {
              s.msf->store().validate_edge(e.u, e.v, e.w);
            } catch (const Error& err) {
              bad = err.what();
              break;
            }
          }
        } else {
          const VertexId n = s.msf->store().num_vertices();
          for (const auto& [u, v] : w.req.deletions) {
            if (u >= n || v >= n || u == v) {
              bad = "delete endpoint out of range";
              break;
            }
            EdgeId id = 0;
            const auto res = group.resolve(u, v, &id);
            if (res == dynamic::WriteGroup::Resolve::kCut) {
              cut = true;
              break;
            }
            if (res == dynamic::WriteGroup::Resolve::kNotLive) {
              bad = "no live edge (" + std::to_string(u + 1) + "," +
                    std::to_string(v + 1) + ")";
              break;
            }
            if (!seen.insert_unique(id)) {
              bad =
                  "duplicate delete of the same canonical edge in one request";
              break;
            }
            resolved.push_back(id);
          }
        }
        if (cut) {
          // Leave w for the next group; the current group applies first.
          metrics_.coalesce_conflicts.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        if (!bad.empty()) {
          finish(w, make_error(Status::kInvalidInput, bad));
          ++i;
          continue;
        }
        members.push_back(i);
        if (is_insert) group.insert(w.req.insertions);
        for (const EdgeId id : resolved) group.erase(id);
        if (!w.req.idem_id.empty()) {
          group_idem.push_back(w.req.idem_id);
          group_idem_set.insert(w.req.idem_id);
        }
        earliest = std::min(earliest, w.deadline);
        ++i;
      }

      if (members.empty()) continue;

      // One apply_batch for the whole group — this is the coalescing the
      // serving layer is about: burst traffic pays one sparsified solve.
      // An insert-only group applies by path-max when the latest epoch's
      // index describes exactly the committed forest.
      const bool insert_only =
          group.deletions().empty() && !group.insertions().empty();
      std::shared_ptr<const query::ForestIndex> oracle;
      if (insert_only) {
        std::shared_ptr<SessionSnapshot> latest;
        {
          std::lock_guard<std::mutex> lk(s.snap_mu);
          latest = s.snaps.back();
        }
        std::lock_guard<std::mutex> lk(latest->index_mu);
        if (latest->index != nullptr && latest->index->version() == s.version) {
          oracle = latest->index;
        }
      }
      const std::uint64_t by_path_max = s.msf->path_max_batches();
      try {
        solve_budgeted(s, earliest, [&](dynamic::DynamicMsf& m) {
          m.apply_batch(group.insertions(), group.deletions(),
                        oracle ? &oracle->dendrogram() : nullptr);
        });
      } catch (const std::exception& e) {
        // apply_batch is all or nothing: a rejected, expired or failed group
        // left no trace, so there is nothing to log, publish or repair.
        const Response r = make_error(status_of(e), e.what());
        for (const std::size_t idx : members) finish(batch[idx], r);
        continue;
      }
      if (insert_only) {
        auto& counter = s.msf->path_max_batches() != by_path_max
                            ? metrics_.insert_index_path
                            : metrics_.insert_solve_fallbacks;
        counter.fetch_add(1, std::memory_order_relaxed);
      }
      bump_version(s);
      metrics_.apply_batches.fetch_add(1, std::memory_order_relaxed);
      metrics_.coalesced_writes.fetch_add(members.size(),
                                          std::memory_order_relaxed);
      metrics_.coalesce_size.record(members.size());
      // Commit: one WAL record for the whole group, appended under the
      // same exclusive lock as the mutation so log order == store order.
      // Nothing reads the group after this, so the record takes its writes.
      std::uint64_t lsn = 0;
      if (logging(s)) {
        persist::WalRecord rec;
        std::tie(rec.insertions, rec.deletions) = group.release();
        rec.idem_ids = group_idem;
        lsn = append_record(s, std::move(rec));
      }
      // Registered even without a log (persistence off, or just broken): the
      // group IS applied, so a client retry must dedup either way.
      for (std::string& id : group_idem) register_idem(s, std::move(id), lsn);
      // Compact before the snapshot publishes so a reader that sees the
      // write response also sees the post-compaction store.  The compact
      // record is logged but not awaited: auto-compaction is not separately
      // acked, and any later acked write's fsync covers it.
      const dynamic::EdgeStore& st = s.msf->store();
      if (st.size() >= opts_.compact_min_slots &&
          static_cast<double>(st.num_live()) <
              kCompactLiveRatio * static_cast<double>(st.size())) {
        compact_locked(s);
      }
      // Publish the committed state as the newest MVCC epoch — from here
      // on reads serve this (or a pinned older) snapshot.  Query-active
      // sessions get the epoch's ForestIndex (carried, or built on the
      // shard team) attached before it is visible — but only when no
      // further writes are pending, so a coalesced burst pays one build
      // at its tail, not one per group.
      bool with_index = false;
      if (s.query_active.load(std::memory_order_relaxed) &&
          i >= batch.size()) {
        std::lock_guard<std::mutex> lk(s.pending_mu);
        with_index = s.pending.empty();
      }
      publish_snapshot_locked(s, with_index);
      Response base;
      fill_forest_facts(base, *s.msf);
      base.coalesced = members.size();
      base.lsn = lsn;
      base.epoch = s.version;
      if (s.log != nullptr && s.log->snapshot_due()) {
        snapshot_session_locked(s);
      }
      // Acks only after the commit LSN is durable.  Only the wait runs
      // unlocked — reads proceed, the pending list refills behind us, and
      // no other flusher can exist while s.flushing is set.
      state.unlock();
      if (lsn != 0) s.log->wait_durable(lsn);
      for (const std::size_t idx : members) {
        Response r(base);
        r.idem_id = batch[idx].req.idem_id;
        finish(batch[idx], std::move(r));
      }
      state.lock();
    }
  }
}

persist::SessionLogOptions ServiceCore::log_options() {
  persist::SessionLogOptions lo;
  lo.fsync = opts_.fsync;
  lo.fsync_interval_s = opts_.fsync_interval_s;
  lo.snapshot_wal_bytes = opts_.snapshot_wal_bytes;
  lo.snapshot_every_records = opts_.snapshot_every_records;
  lo.snapshot_retain = opts_.snapshot_retain;
  lo.counters = &metrics_.persist;
  return lo;
}

std::string ServiceCore::session_dir(const std::string& name) const {
  return opts_.data_dir + "/" + name;
}

void ServiceCore::recover_sessions() {
  namespace fs = std::filesystem;
  fs::create_directories(opts_.data_dir);
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(opts_.data_dir)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() >= 9 &&
        name.compare(name.size() - 9, 9, ".dropping") == 0) {
      // A drop that died between rename and remove: finish it.
      std::error_code ec;
      fs::remove_all(entry.path(), ec);
      recovery_notes_.push_back("removed interrupted drop '" + name + "'");
      continue;
    }
    if (!valid_session_name(name)) {
      recovery_notes_.push_back("ignoring non-session entry '" + name + "'");
      continue;
    }
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());

  for (const std::string& name : names) {
    persist::RecoveredState st;
    std::unique_ptr<persist::SessionLog> log;
    try {
      log = std::make_unique<persist::SessionLog>(session_dir(name),
                                                  log_options(), &st);
    } catch (const Error& e) {
      throw Error(e.code(), "recovering session '" + name + "': " + e.what());
    }
    if (!st.have_snapshot) {
      // open() crashed before the initial snapshot: the open was never
      // acknowledged, so the session does not exist.  Remove the husk.
      log.reset();
      std::error_code ec;
      fs::remove_all(session_dir(name), ec);
      recovery_notes_.push_back("removed half-opened session '" + name + "'");
      continue;
    }
    for (const std::string& w : st.warnings) {
      recovery_notes_.push_back("session '" + name + "': " + w);
    }

    auto session = std::make_shared<Session>();
    session->name = name;
    session->home = &shard_of(name);
    dynamic::DynamicMsfOptions dopts;
    dopts.msf = opts_.msf;
    dopts.team = session->home->team.get();
    const std::size_t tail_records = st.tail.size();
    try {
      session->msf = std::make_unique<dynamic::DynamicMsf>(
          std::move(st.store), std::move(st.forest), dopts);
      for (auto& [id, lsn] : st.idem) {
        register_idem(*session, std::move(id), lsn);
      }
      session->log = std::move(log);
      if (!st.tail.empty()) replay_tail(*session, std::move(st.tail));
    } catch (const Error& e) {
      throw Error(e.code(), "recovering session '" + name + "': " + e.what());
    }
    session->committed_lsn.store(session->log->last_lsn(),
                                 std::memory_order_relaxed);
    // One snapshot for the recovered state: replay published nothing (a
    // live-graph copy per replay group would be pure waste), so the final
    // state becomes the ring's first epoch here.
    publish_snapshot_locked(*session);
    session->ready.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lk(sessions_mu_);
      sessions_.emplace(name, std::move(session));
    }
    metrics_.recoveries.fetch_add(1, std::memory_order_relaxed);
    metrics_.replayed_records.fetch_add(tail_records,
                                        std::memory_order_relaxed);
    std::string note = "recovered session '" + name + "': snapshot lsn " +
                       std::to_string(st.snapshot_lsn);
    note += st.clean ? ", clean shutdown"
                     : ", replayed " + std::to_string(tail_records) +
                           " WAL records";
    if (st.torn_tail_truncated) note += ", torn tail truncated";
    recovery_notes_.push_back(std::move(note));
  }
}

void ServiceCore::replay_tail(Session& s,
                              std::vector<persist::WalRecord> tail) {
  // Replay reuses the flusher's coalescing: consecutive batch records merge
  // into one apply_batch (one sparsified solve) until a compact record
  // intervenes or dynamic::WriteGroup cuts — a record deletes an id the group
  // inserted or already deletes, the same rule the flusher's groups obeyed —
  // so a 10^6-record tail costs a handful of solves, not 10^6.
  std::size_t i = 0;
  while (i < tail.size()) {
    if (tail[i].compact) {
      s.msf->compact_store();
      bump_version(s);
      ++i;
      continue;
    }
    dynamic::WriteGroup group(s.msf->store());
    std::size_t j = i;
    while (j < tail.size() && !tail[j].compact) {
      const std::vector<EdgeId>& dels = tail[j].deletions;
      // j == i cannot legitimately cut (a record's deletions always name
      // pre-record ids); if a malformed log does, the record goes through
      // alone and apply_batch rejects it with a clear diagnostic.
      if (j > i && std::any_of(dels.begin(), dels.end(), [&](EdgeId id) {
            return group.cuts(id);
          })) {
        break;
      }
      group.insert(tail[j].insertions);
      for (const EdgeId id : dels) group.erase(id);
      for (std::string& id : tail[j].idem_ids) {
        register_idem(s, std::move(id), tail[j].lsn);
      }
      ++j;
    }
    {
      std::lock_guard<std::mutex> solver(s.home->solver_mu);
      s.msf->apply_batch(group.insertions(), group.deletions());
    }
    bump_version(s);
    i = j;
  }
}

void ServiceCore::snapshot_session_locked(Session& s) {
  if (!logging(s)) return;
  try {
    s.log->write_snapshot(s.msf->store(), s.msf->forest_edge_ids(),
                          idem_window(s));
  } catch (...) {
    // Not fatal: the WAL still covers everything; the next due snapshot
    // retries.
  }
}

}  // namespace smp::serve
