#include "trace.hpp"

#include <algorithm>
#include <cstdio>

#include "stats.hpp"

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<Buffer>();
    buf = owned.get();
    const std::lock_guard<std::mutex> lock(buffers_mu_);
    buf->thread = static_cast<int>(buffers_.size());
    buffers_.push_back(std::move(owned));
  }
  return *buf;
}

// collect() and dropped() read other threads' buffers: call them only after
// every recording thread has been joined.
std::vector<Span> Tracer::collect() const {
  std::vector<Span> all;
  const std::lock_guard<std::mutex> lock(buffers_mu_);
  for (const auto& b : buffers_) all.insert(all.end(), b->spans.begin(), b->spans.end());
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(buffers_mu_);
  std::uint64_t d = 0;
  for (const auto& b : buffers_) d += b->dropped;
  return d;
}

bool Tracer::write_jsonl(const std::string& path) const {
  const std::vector<Span> spans = collect();
  std::vector<SpanInterval> iv;
  iv.reserve(spans.size());
  for (const Span& s : spans) iv.push_back({s.id, s.parent, s.start_ns, s.end_ns});
  const std::vector<std::int64_t> self = self_times_ns(iv);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"thread\": %d, \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"self_ns\": %lld}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(const char* name, std::uint64_t request) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  buf_ = &t.local();
  span_.name = name;
  span_.id = t.next_id_.fetch_add(1, std::memory_order_relaxed);
  if (!buf_->stack.empty()) {
    span_.parent = buf_->stack.back().first;
    if (request == 0) request = buf_->stack.back().second;
  }
  span_.request = request;
  span_.thread = buf_->thread;
  buf_->stack.emplace_back(span_.id, request);
  span_.start_ns = now_ns();
}

SpanScope::~SpanScope() {
  if (buf_ == nullptr) return;
  span_.end_ns = now_ns();
  buf_->stack.pop_back();
  if (buf_->spans.size() < Tracer::kMaxSpansPerThread) {
    buf_->spans.push_back(span_);
  } else {
    ++buf_->dropped;
  }
}

}  // namespace perfbench
