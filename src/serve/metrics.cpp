#include "serve/metrics.hpp"

#include <cinttypes>
#include <cstdio>

#include "pprim/build_info.hpp"

namespace smp::serve {

namespace {

std::string histogram_json(const Histogram& h) {
  const Histogram::Snapshot s = h.snapshot();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"count\": %" PRIu64
                ", \"mean\": %.1f, \"p50\": %.1f, \"p95\": %.1f, "
                "\"p99\": %.1f, \"max\": %" PRIu64 "}",
                s.count, s.mean(), s.quantile(0.50), s.quantile(0.95),
                s.quantile(0.99), s.max);
  return buf;
}

}  // namespace

std::string MetricsRegistry::to_json(
    std::size_t queue_capacity, double uptime_s,
    const std::vector<std::uint64_t>& shard_depths) const {
  const auto u64 = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  char buf[512];
  std::string json = "{";
  json += "\"build\": " + build_info_json();
  std::snprintf(buf, sizeof buf, ", \"uptime_s\": %.3f", uptime_s);
  json += buf;
  std::snprintf(
      buf, sizeof buf,
      ", \"queue\": {\"capacity\": %zu, \"depth\": %" PRIu64
      ", \"max_depth\": %" PRIu64 ", \"submitted\": %" PRIu64
      ", \"rejected_overload\": %" PRIu64 ", \"rejected_shutdown\": %" PRIu64
      "}",
      queue_capacity, u64(queue_depth), u64(max_queue_depth), u64(submitted),
      u64(rejected_overload), u64(rejected_shutdown));
  json += buf;
  json += ", \"shards\": [";
  for (std::size_t i = 0; i < shard_depths.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s{\"id\": %zu, \"depth\": %" PRIu64 "}",
                  i == 0 ? "" : ", ", i, shard_depths[i]);
    json += buf;
  }
  json += "]";
  std::snprintf(buf, sizeof buf,
                ", \"serving\": {\"reads_inline\": %" PRIu64
                ", \"rejected_rate_limited\": %" PRIu64
                ", \"snapshots_published\": %" PRIu64
                ", \"epochs_reclaimed\": %" PRIu64 "}",
                u64(reads_inline), u64(rejected_rate_limited),
                u64(snapshots_published), u64(epochs_reclaimed));
  json += buf;
  std::snprintf(buf, sizeof buf,
                ", \"coalescing\": {\"apply_batches\": %" PRIu64
                ", \"coalesced_writes\": %" PRIu64 ", \"conflicts\": %" PRIu64
                ", \"batch_size\": ",
                u64(apply_batches), u64(coalesced_writes),
                u64(coalesce_conflicts));
  json += buf;
  json += histogram_json(coalesce_size) + "}";
  std::snprintf(buf, sizeof buf,
                ", \"deadline_exceeded\": %" PRIu64
                ", \"compactions\": %" PRIu64 ", \"slots_reclaimed\": %" PRIu64,
                u64(deadline_exceeded), u64(compactions), u64(slots_reclaimed));
  json += buf;
  std::snprintf(buf, sizeof buf,
                ", \"persist\": {\"wal_appends\": %" PRIu64
                ", \"wal_bytes\": %" PRIu64 ", \"fsyncs\": %" PRIu64
                ", \"snapshots\": %" PRIu64 ", \"recoveries\": %" PRIu64
                ", \"replayed_records\": %" PRIu64 ", \"dedup_hits\": %" PRIu64
                "}",
                u64(persist.wal_appends), u64(persist.wal_bytes),
                u64(persist.fsyncs), u64(persist.snapshots), u64(recoveries),
                u64(replayed_records), u64(dedup_hits));
  json += buf;
  std::snprintf(buf, sizeof buf,
                ", \"query_index\": {\"rebuilds\": %" PRIu64
                ", \"hits\": %" PRIu64 ", \"misses\": %" PRIu64
                ", \"index_carried\": %" PRIu64
                ", \"insert_index_path\": %" PRIu64
                ", \"insert_solve_fallbacks\": %" PRIu64
                ", \"rebuild_us\": ",
                u64(index_rebuilds), u64(index_hits), u64(index_misses),
                u64(index_carried), u64(insert_index_path),
                u64(insert_solve_fallbacks));
  json += buf;
  json += histogram_json(index_rebuild_us) + "}";
  json += ", \"ops\": {";
  bool first = true;
  for (int i = 0; i < kNumOps; ++i) {
    const OpMetrics& m = ops[static_cast<std::size_t>(i)];
    const std::uint64_t completed = m.completed.load(std::memory_order_relaxed);
    if (completed == 0) continue;
    if (!first) json += ", ";
    first = false;
    // Appended piecewise: GCC 12 at -O3 flags a chained std::string
    // concatenation here with a false -Wrestrict.
    json += '"';
    json += to_string(static_cast<Op>(i));
    json += "\": ";
    std::snprintf(buf, sizeof buf,
                  "{\"completed\": %" PRIu64 ", \"errors\": %" PRIu64
                  ", \"latency_us\": ",
                  completed, m.errors.load(std::memory_order_relaxed));
    json += buf;
    json += histogram_json(m.latency_us) + "}";
  }
  json += "}}";
  return json;
}

}  // namespace smp::serve
