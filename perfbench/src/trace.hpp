#pragma once

// Spans recorded by the harness around its own calls into the library.
// Recording is off unless the run is traced; each thread appends to its own
// buffer (no lock on the hot path), and the buffers are merged and written
// out once, when the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process's first call (a shared time base for spans).
std::int64_t now_ns();

struct Span {
  const char* name = "";  ///< static string, "<layer>.<call>"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< spans of one request share this
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int thread = 0;
};

class Tracer {
 public:
  /// Spans kept per thread; later ones are counted in dropped() only, so a
  /// traced read loop (millions of calls) cannot grow without bound.
  static constexpr std::size_t kMaxSpansPerThread = 1u << 15;

  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// A fresh request id (spans of one operation share it).
  std::uint64_t next_request() {
    return next_request_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Every span recorded so far, all threads, in start order.
  [[nodiscard]] std::vector<Span> collect() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Writes one JSON object per line: name, id, parent, request, thread,
  /// start/end in ns and self time in ns.  Returns false on an I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  friend class SpanScope;
  struct Buffer {
    std::vector<Span> spans;
    std::uint64_t dropped = 0;
    /// Open spans of this thread as (id, request), innermost last.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> stack;
    int thread = 0;
  };
  Buffer& local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_request_{1};
  mutable std::mutex buffers_mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span: records [construction, destruction) under the innermost open
/// span of this thread.  A no-op while tracing is off.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t request = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer::Buffer* buf_ = nullptr;
  Span span_;
};

}  // namespace perfbench
