#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/types.hpp"

namespace smp::serve {

/// The request vocabulary of the serving layer.  Reads (kWeight,
/// kForestEdges, kSnapshot) and the query ops (kConnected, kConn, kPathMax,
/// kCut, kTopK) serve from an immutable MVCC epoch of the session without
/// the state lock, so they cannot queue behind coalesced writes; the query
/// ops read the epoch's ForestIndex, and kTopK also scans the epoch's store
/// view.  Writes (kInsert, kDelete) are coalesced per session into one
/// apply_batch; kRecompute and kCompact are exclusive but never coalesced.
enum class Op : int {
  kPing = 0,
  kOpen,         ///< create a session (empty graph or loaded from file)
  kDrop,         ///< destroy a session
  kList,         ///< enumerate sessions
  kWeight,       ///< forest weight / tree count / edge counts
  kConnected,    ///< are u and v in the same forest component? (= kConn)
  kForestEdges,  ///< materialize forest edges (optionally capped)
  kInsert,       ///< insert an edge batch
  kDelete,       ///< delete an edge batch (by endpoints, canonical edge)
  kRecompute,    ///< force a from-scratch solve of the live graph
  kCompact,      ///< drop tombstoned store slots
  kStats,        ///< metrics dump as JSON
  kSnapshot,     ///< in-process only: atomic live-graph + forest snapshot
  kHealth,       ///< liveness probe: queue depth, sessions, LSN, uptime
  kPathMax,      ///< bottleneck edge on the u-v forest path (O(log n))
  kConn,         ///< O(1) connectivity from the index component labels
  kCut,          ///< single-linkage clustering cut at threshold lambda
  kTopK,         ///< k lightest live cluster-crossing edges
};
inline constexpr int kNumOps = static_cast<int>(Op::kTopK) + 1;

/// Ops that mutate a session: their error lines carry ` applied=0` and
/// their binary frames an applied byte equal to ok().
[[nodiscard]] constexpr bool is_write_shaped(Op op) {
  return op == Op::kInsert || op == Op::kDelete || op == Op::kRecompute ||
         op == Op::kCompact;
}

[[nodiscard]] constexpr std::string_view to_string(Op op) {
  switch (op) {
    case Op::kPing:
      return "ping";
    case Op::kOpen:
      return "open";
    case Op::kDrop:
      return "drop";
    case Op::kList:
      return "list";
    case Op::kWeight:
      return "weight";
    case Op::kConnected:
      return "connected";
    case Op::kForestEdges:
      return "edges";
    case Op::kInsert:
      return "insert";
    case Op::kDelete:
      return "delete";
    case Op::kRecompute:
      return "recompute";
    case Op::kCompact:
      return "compact";
    case Op::kStats:
      return "stats";
    case Op::kSnapshot:
      return "snapshot";
    case Op::kHealth:
      return "health";
    case Op::kPathMax:
      return "pathmax";
    case Op::kConn:
      return "conn";
    case Op::kCut:
      return "cut";
    case Op::kTopK:
      return "topk";
  }
  return "?";
}

/// Response status.  kOk aside, these are the failure surface of the
/// service: admission control (kOverloaded), per-request budgets
/// (kDeadlineExceeded / kCancelled / kOutOfMemory via PR 1's
/// ExecutionBudget), request validation (kInvalidInput, kNotFound,
/// kAlreadyExists), and lifecycle (kShuttingDown).  kInternal is the
/// catch-all for a solver failure the service could not classify.
enum class Status : int {
  kOk = 0,
  kOverloaded,
  kDeadlineExceeded,
  kCancelled,
  kOutOfMemory,
  kInvalidInput,
  kNotFound,
  kAlreadyExists,
  kShuttingDown,
  kInternal,
  kRateLimited,  ///< per-client token bucket empty (tiered back-pressure)
};

[[nodiscard]] constexpr std::string_view to_string(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kOverloaded:
      return "overloaded";
    case Status::kDeadlineExceeded:
      return "deadline_exceeded";
    case Status::kCancelled:
      return "cancelled";
    case Status::kOutOfMemory:
      return "out_of_memory";
    case Status::kInvalidInput:
      return "invalid_input";
    case Status::kNotFound:
      return "not_found";
    case Status::kAlreadyExists:
      return "already_exists";
    case Status::kShuttingDown:
      return "shutting_down";
    case Status::kInternal:
      return "internal";
    case Status::kRateLimited:
      return "rate_limited";
  }
  return "?";
}

/// One service request.  Vertices are 0-based here (the wire protocol is
/// 1-based, DIMACS style; protocol.cpp converts).  `deadline_s` is relative
/// to submission; 0 means "use the service default" (which may be none).
struct Request {
  Op op = Op::kPing;
  std::string session;
  // kOpen: exactly one of num_vertices (> 0, empty graph) or path (load).
  graph::VertexId num_vertices = 0;
  std::string path;
  // kConnected / kConn / kPathMax.
  graph::VertexId u = 0;
  graph::VertexId v = 0;
  // kInsert / kDelete payloads.
  std::vector<graph::WEdge> insertions;
  std::vector<std::pair<graph::VertexId, graph::VertexId>> deletions;
  // kForestEdges: cap on returned edges (0 = all).  kTopK: k (>= 1).
  std::size_t limit = 0;
  // kCut: the clustering threshold.  kTopK: optional (has_lambda) cluster
  // threshold restricting results to cluster-crossing edges.
  double lambda = 0;
  bool has_lambda = false;
  double deadline_s = 0;
  /// kInsert / kDelete: optional client idempotency id.  A retried write
  /// carrying the id of an already-committed one is answered from the
  /// committed state instead of being applied twice (see Response::dedup).
  std::string idem_id;
  /// Reads and queries: pin the answer to this MVCC epoch (a committed
  /// session version).  0 = latest.  Pinning an epoch that has fallen off
  /// the session's retire ring is an error, not a stale answer.
  std::uint64_t pin_epoch = 0;
  /// Transport-assigned client identity for per-client token-bucket rate
  /// limiting.  Empty = unattributed (never rate limited).
  std::string client_id;
};

/// In-process snapshot payload (kSnapshot): the live graph, its store ids,
/// and the maintained forest of one MVCC epoch — all three are consistent
/// with each other.  Materialized from the epoch's store view on the first
/// kSnapshot of that epoch and shared by every later one.  The stress tests
/// solve `live` from scratch and demand bit-identity with
/// `forest_ids`/`weight`.
struct SnapshotData {
  graph::EdgeList live;
  std::vector<graph::EdgeId> live_ids;
  std::vector<graph::EdgeId> forest_ids;  ///< ascending store ids
  graph::Weight weight = 0;
  std::size_t trees = 0;
  /// Committed session version this snapshot captured.  Query responses
  /// stamp the index version they answered from, so a stress reader can
  /// pair an answer with the snapshot of the *same* committed state.
  std::uint64_t version = 0;
};

struct Response {
  Status status = Status::kOk;
  std::string detail;  ///< human-readable reason on error
  // Forest facts (kWeight, kOpen, kInsert, kDelete, kRecompute, kCompact).
  graph::Weight weight = 0;
  std::size_t trees = 0;
  std::size_t forest_edges = 0;
  std::size_t live_edges = 0;
  bool connected = false;      // kConnected / kConn / kPathMax
  std::vector<graph::WEdge> edges;  // kForestEdges payload
  std::size_t edges_total = 0;      // kForestEdges: forest size before `limit`
  // Writes: how many requests the service merged into the apply_batch that
  // carried this one (>= 1).  A write's mutation reached the store iff the
  // response is ok(): a failed write changes nothing.
  std::size_t coalesced = 0;
  std::size_t remapped = 0;          // kCompact: live edges renumbered
  std::vector<std::string> sessions;  // kList
  std::string stats_json;             // kStats
  std::shared_ptr<SnapshotData> snapshot;  // kSnapshot
  // Durability (writes, when the service runs with a data dir): the commit
  // LSN the mutation is logged under (0 = persistence off), whether this
  // request deduplicated against an already-committed idempotency id, and
  // the echoed id so retrying clients can match responses to requests.
  std::uint64_t lsn = 0;
  bool dedup = false;
  std::string idem_id;
  // kHealth.
  std::uint64_t health_queue_depth = 0;
  std::size_t health_sessions = 0;
  double uptime_s = 0;
  std::vector<std::uint64_t> shard_depths;  // kHealth: per-shard queue depth
  std::uint64_t reclaimed_epochs = 0;  // kHealth: retired MVCC snapshots
  std::vector<std::string> listeners;  // kHealth: active transport listeners
  /// MVCC epoch the answer was served from (reads/queries), or the epoch a
  /// write committed as.  Equals the committed session version.
  std::uint64_t epoch = 0;
  // Query ops.  `index_version` is the committed version of the ForestIndex
  // snapshot that produced the answer (kPathMax/kConn/kCut/kTopK).
  std::uint64_t index_version = 0;
  bool pathmax_found = false;          // kPathMax: false = disconnected
  graph::EdgeId pathmax_id = 0;        // store id of the bottleneck edge
  graph::VertexId pathmax_u = 0;       // its endpoints (0-based here)
  graph::VertexId pathmax_v = 0;
  graph::Weight pathmax_w = 0;
  std::size_t clusters = 0;            // kCut
  std::uint64_t cut_digest = 0;        // kCut: FNV-1a over the label sequence
  std::vector<graph::EdgeId> edge_ids;  // kTopK: store ids parallel to edges
  // kHealth, per session (when a session name was given): query-index state.
  bool index_status = false;  ///< a session was named; index fields are valid
  bool index_present = false;  ///< the session has a published index
  bool index_fresh = false;
  std::size_t index_vertices = 0;
  std::size_t index_edges = 0;
  double index_age_s = 0;       ///< seconds since last rebuild
  double index_build_s = 0;     ///< duration of that rebuild
  std::uint64_t index_rebuilds = 0;

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

}  // namespace smp::serve
