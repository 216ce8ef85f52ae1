#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "persist/session_log.hpp"
#include "pprim/histogram.hpp"
#include "serve/request.hpp"

namespace smp::serve {

/// Per-op serving metrics: end-to-end latency (submission to completion,
/// microseconds — queue wait included, because that is what a client
/// experiences) plus completion and error counts.
struct OpMetrics {
  Histogram latency_us;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> errors{0};  ///< non-kOk completions
};

/// All counters of the service, updated lock-free on the hot path and
/// dumped as one JSON document by the `stats` request.  Everything here is
/// monotone or a gauge, so concurrent scrapes are always consistent enough
/// to difference across time.
class MetricsRegistry {
 public:
  // --- admission / queue ---
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> rejected_overload{0};
  std::atomic<std::uint64_t> rejected_shutdown{0};
  std::atomic<std::uint64_t> queue_depth{0};      ///< gauge
  std::atomic<std::uint64_t> max_queue_depth{0};  ///< high-water mark

  // --- scale-out serving ---
  /// Read-shaped ops served inline on the submitting thread (the priority
  /// lane) instead of crossing a shard queue.
  std::atomic<std::uint64_t> reads_inline{0};
  /// Write/admin ops shed by the per-client token bucket.
  std::atomic<std::uint64_t> rejected_rate_limited{0};
  /// MVCC epochs published / retired off session snapshot rings.
  std::atomic<std::uint64_t> snapshots_published{0};
  std::atomic<std::uint64_t> epochs_reclaimed{0};

  // --- write coalescing ---
  /// apply_batch calls issued (each serves >= 1 write request).
  std::atomic<std::uint64_t> apply_batches{0};
  /// Write requests served by those batches; mean batch size is the ratio.
  std::atomic<std::uint64_t> coalesced_writes{0};
  /// Batch-size distribution (requests per apply_batch).
  Histogram coalesce_size;
  /// Merges cut short because a later write depended on an earlier one in
  /// the same group (delete of a just-inserted or just-deleted edge).
  std::atomic<std::uint64_t> coalesce_conflicts{0};

  // --- budgets / maintenance ---
  std::atomic<std::uint64_t> deadline_exceeded{0};
  std::atomic<std::uint64_t> compactions{0};
  std::atomic<std::uint64_t> slots_reclaimed{0};

  // --- query index ---
  /// ForestIndex rebuilds (eager post-flush + lazy on the query path) and
  /// their build-time distribution.
  std::atomic<std::uint64_t> index_rebuilds{0};
  Histogram index_rebuild_us;
  /// Query fast path: answers served from a version-matched index without
  /// the state lock vs. queries that found the index stale (or absent).
  std::atomic<std::uint64_t> index_hits{0};
  std::atomic<std::uint64_t> index_misses{0};
  /// Epochs that reused the previous epoch's index (same forest) instead of
  /// building one.
  std::atomic<std::uint64_t> index_carried{0};
  /// Insert-only write groups applied by path-max over the latest index vs.
  /// solved instead (no fresh index, or the crossover chose a scratch
  /// solve).
  std::atomic<std::uint64_t> insert_index_path{0};
  std::atomic<std::uint64_t> insert_solve_fallbacks{0};

  // --- durability ---
  /// WAL append/fsync/snapshot counters, fed directly by the SessionLogs.
  persist::PersistCounters persist;
  /// Sessions restored from disk at startup and WAL records replayed.
  std::atomic<std::uint64_t> recoveries{0};
  std::atomic<std::uint64_t> replayed_records{0};
  /// Writes answered from the idempotency window instead of re-applying.
  std::atomic<std::uint64_t> dedup_hits{0};

  std::array<OpMetrics, kNumOps> ops;

  OpMetrics& op(Op o) { return ops[static_cast<std::size_t>(o)]; }
  const OpMetrics& op(Op o) const { return ops[static_cast<std::size_t>(o)]; }

  void record_queue_depth(std::uint64_t depth) {
    queue_depth.store(depth, std::memory_order_relaxed);
    std::uint64_t prev = max_queue_depth.load(std::memory_order_relaxed);
    while (prev < depth && !max_queue_depth.compare_exchange_weak(
                               prev, depth, std::memory_order_relaxed)) {
    }
  }

  void record_completion(Op o, Status s, std::uint64_t latency_us) {
    OpMetrics& m = op(o);
    m.latency_us.record(latency_us);
    m.completed.fetch_add(1, std::memory_order_relaxed);
    if (s != Status::kOk) m.errors.fetch_add(1, std::memory_order_relaxed);
    if (s == Status::kDeadlineExceeded) {
      deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Zeroes every counter and histogram.  Bench/test support for isolating
  /// a measured window from setup traffic — not used on the serving path,
  /// and not atomic with respect to concurrent recorders.
  void reset_counters() {
    submitted.store(0, std::memory_order_relaxed);
    rejected_overload.store(0, std::memory_order_relaxed);
    rejected_shutdown.store(0, std::memory_order_relaxed);
    queue_depth.store(0, std::memory_order_relaxed);
    max_queue_depth.store(0, std::memory_order_relaxed);
    reads_inline.store(0, std::memory_order_relaxed);
    rejected_rate_limited.store(0, std::memory_order_relaxed);
    snapshots_published.store(0, std::memory_order_relaxed);
    epochs_reclaimed.store(0, std::memory_order_relaxed);
    apply_batches.store(0, std::memory_order_relaxed);
    coalesced_writes.store(0, std::memory_order_relaxed);
    coalesce_size.reset();
    coalesce_conflicts.store(0, std::memory_order_relaxed);
    deadline_exceeded.store(0, std::memory_order_relaxed);
    compactions.store(0, std::memory_order_relaxed);
    slots_reclaimed.store(0, std::memory_order_relaxed);
    index_rebuilds.store(0, std::memory_order_relaxed);
    index_rebuild_us.reset();
    index_hits.store(0, std::memory_order_relaxed);
    index_misses.store(0, std::memory_order_relaxed);
    index_carried.store(0, std::memory_order_relaxed);
    insert_index_path.store(0, std::memory_order_relaxed);
    insert_solve_fallbacks.store(0, std::memory_order_relaxed);
    persist.wal_appends.store(0, std::memory_order_relaxed);
    persist.wal_bytes.store(0, std::memory_order_relaxed);
    persist.fsyncs.store(0, std::memory_order_relaxed);
    persist.snapshots.store(0, std::memory_order_relaxed);
    recoveries.store(0, std::memory_order_relaxed);
    replayed_records.store(0, std::memory_order_relaxed);
    dedup_hits.store(0, std::memory_order_relaxed);
    for (OpMetrics& m : ops) {
      m.latency_us.reset();
      m.completed.store(0, std::memory_order_relaxed);
      m.errors.store(0, std::memory_order_relaxed);
    }
  }

  /// One JSON object with build info, queue/admission counters, per-shard
  /// queue depths, coalescing stats, serving-lane counters and per-op
  /// latency percentiles (p50/p95/p99/max, microseconds).  Ops that never
  /// completed are omitted.  `shard_depths` holds each shard queue's
  /// current depth (one entry for the unsharded configuration).
  [[nodiscard]] std::string to_json(
      std::size_t queue_capacity, double uptime_s,
      const std::vector<std::uint64_t>& shard_depths = {}) const;
};

}  // namespace smp::serve
