#include "dynamic/edge_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>
#include <string>

#include <sys/mman.h>

#include "core/error.hpp"
#include "pprim/fault.hpp"

namespace smp::dynamic {

using graph::EdgeId;
using graph::EdgeList;
using graph::VertexId;
using graph::WEdge;
using graph::Weight;
using graph::WeightOrder;

void EdgeStore::check_edge(VertexId u, VertexId v, Weight w, VertexId n) {
  if (u == v) {
    throw Error(ErrorCode::kInvalidInput,
                "edge store: self-loop at vertex " + std::to_string(u));
  }
  if (u >= n || v >= n) {
    throw Error(ErrorCode::kInvalidInput,
                "edge store: endpoint out of range (" + std::to_string(u) +
                    ", " + std::to_string(v) + ") with n = " + std::to_string(n));
  }
  if (!std::isfinite(w)) {
    throw Error(ErrorCode::kInvalidInput, "edge store: non-finite weight");
  }
}

namespace {

/// Smallest buffer a store allocates; growth doubles from here.
constexpr std::size_t kMinSlots = 16;

}  // namespace

SlotBuffer::SlotBuffer(std::size_t slots, std::size_t tail)
    : slots_(slots),
      bytes_(tail * sizeof(WEdge) + slots * sizeof(std::uint64_t)),
      tail_(nullptr),
      stamps_(nullptr) {
  void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  tail_ = static_cast<WEdge*>(p);
  // sizeof(WEdge) is a multiple of 8, so the stamps stay 8-aligned.
  stamps_ = reinterpret_cast<std::uint64_t*>(static_cast<char*>(p) +
                                             tail * sizeof(WEdge));
}

SlotBuffer::~SlotBuffer() { munmap(tail_, bytes_); }

std::shared_ptr<SlotBuffer> EdgeStore::copy_slots(std::size_t capacity) const {
  const auto base = static_cast<std::size_t>(base_m_);
  const auto slots = static_cast<std::size_t>(slots_);
  auto nb = std::make_shared<SlotBuffer>(capacity, capacity - base);
  if (slots > 0) {
    std::memcpy(nb->tail(), buf_->tail(), (slots - base) * sizeof(WEdge));
    for (std::size_t i = 0; i < slots; ++i) nb->set_stamp(i, buf_->stamp(i));
  }
  return nb;
}

EdgeStore::EdgeStore(const EdgeStore& other)
    : n_(other.n_),
      base_(other.base_),
      base_m_(other.base_m_),
      slots_(other.slots_),
      live_(other.live_),
      erase_clock_(other.erase_clock_),
      compactions_(other.compactions_),
      pair_index_(other.pair_index_),
      pair_index_built_(other.pair_index_built_) {
  if (other.buf_ != nullptr) {
    buf_ = other.copy_slots(other.buf_->capacity());
  }
}

EdgeStore& EdgeStore::operator=(const EdgeStore& other) {
  if (this != &other) *this = EdgeStore(other);
  return *this;
}

EdgeStore::EdgeStore(const EdgeList& g) : n_(g.num_vertices) {
  for (const auto& e : g.edges) check_edge(e.u, e.v, e.w, n_);
  const std::size_t m = g.edges.size();
  buf_ = std::make_shared<SlotBuffer>(std::max(m, kMinSlots),
                                      std::max(m, kMinSlots));
  if (m > 0) std::memcpy(buf_->tail(), g.edges.data(), m * sizeof(WEdge));
  for (std::size_t i = 0; i < m; ++i) buf_->set_stamp(i, SlotBuffer::kLive);
  slots_ = m;
  live_ = m;
}

EdgeStore::EdgeStore(std::shared_ptr<const EdgeSlab> slab)
    : n_(slab->num_vertices()),
      base_(std::move(slab)),
      base_m_(base_->num_edges()) {
  // EdgeSlab::open already enforced the insertion invariants per record, so
  // adoption is O(m) stamps, not another validation pass.
  const auto m = static_cast<std::size_t>(base_m_);
  buf_ = std::make_shared<SlotBuffer>(m + kMinSlots, kMinSlots);
  for (std::size_t i = 0; i < m; ++i) buf_->set_stamp(i, SlotBuffer::kLive);
  slots_ = base_m_;
  live_ = m;
}

void EdgeStore::reserve_slot() {
  const auto slots = static_cast<std::size_t>(slots_);
  if (buf_ != nullptr && slots < buf_->capacity()) return;
  // Views taken so far keep the full buffer; the writer moves on to a copy
  // of twice the capacity, so nothing a view reads is ever written again.
  const auto base = static_cast<std::size_t>(base_m_);
  fault_point("edge-store.grow");
  buf_ = copy_slots(std::max(base + kMinSlots, 2 * slots));
}

EdgeId EdgeStore::insert(VertexId u, VertexId v, Weight w) {
  check_edge(u, v, w, n_);
  reserve_slot();
  const EdgeId id = slots_;
  buf_->tail()[static_cast<std::size_t>(id - base_m_)] = WEdge{u, v, w};
  buf_->set_stamp(id, SlotBuffer::kLive);
  ++slots_;
  ++live_;
  if (pair_index_built_) pair_index_.emplace(pair_key(u, v), id);
  return id;
}

void EdgeStore::erase(EdgeId id) {
  if (!is_live(id)) {
    throw Error(ErrorCode::kInvalidInput,
                "edge store: erase of dead or out-of-range id " +
                    std::to_string(id));
  }
  buf_->set_stamp(id, ++erase_clock_);
  --live_;
  if (pair_index_built_) {
    const auto& e = edge(id);
    auto [it, last] = pair_index_.equal_range(pair_key(e.u, e.v));
    for (; it != last; ++it) {
      if (it->second == id) {
        pair_index_.erase(it);
        break;
      }
    }
  }
}

void EdgeStore::rollback(std::span<const EdgeId> erased,
                         EdgeId first_new) noexcept {
  for (const EdgeId id : erased) buf_->set_stamp(id, SlotBuffer::kLive);
  live_ = live_ + erased.size() - static_cast<std::size_t>(slots_ - first_new);
  erase_clock_ -= erased.size();
  slots_ = first_new;
  pair_index_.clear();
  pair_index_built_ = false;
}

StoreView EdgeStore::view() const {
  StoreView v;
  v.base_ = base_;
  v.buf_ = buf_;
  v.base_m_ = base_m_;
  v.slots_ = slots_;
  v.erase_bound_ = erase_clock_;
  v.live_ = live_;
  v.n_ = n_;
  return v;
}

void EdgeStore::ensure_pair_index() const {
  if (pair_index_built_) return;
  pair_index_.reserve(live_);
  for (EdgeId id = 0; id < size(); ++id) {
    if (!is_live(id)) continue;
    const auto& e = edge(id);
    pair_index_.emplace(pair_key(e.u, e.v), id);
  }
  pair_index_built_ = true;
}

std::optional<EdgeId> EdgeStore::find_live(VertexId u, VertexId v) const {
  ensure_pair_index();
  auto [it, last] = pair_index_.equal_range(pair_key(u, v));
  std::optional<EdgeId> best;
  for (; it != last; ++it) {
    const EdgeId id = it->second;
    if (!best) {
      best = id;
      continue;
    }
    const WeightOrder cand{edge(id).w, id};
    const WeightOrder cur{edge(*best).w, *best};
    if (cand < cur) best = id;
  }
  return best;
}

std::vector<EdgeId> EdgeStore::compact() {
  std::vector<EdgeId> remap(static_cast<std::size_t>(size()),
                            graph::kInvalidEdge);
  // Compaction materializes everything into a fresh owned buffer and
  // releases the mmap base (a compacted slab no longer matches its file
  // anyway); views of the old layout keep the old buffer.
  auto nb = std::make_shared<SlotBuffer>(std::max(live_, kMinSlots),
                                         std::max(live_, kMinSlots));
  EdgeId next = 0;
  for (EdgeId id = 0; id < size(); ++id) {
    if (!is_live(id)) continue;
    remap[static_cast<std::size_t>(id)] = next;
    nb->tail()[static_cast<std::size_t>(next)] = edge(id);
    nb->set_stamp(next, SlotBuffer::kLive);
    ++next;
  }
  base_.reset();
  base_m_ = 0;
  buf_ = std::move(nb);
  slots_ = next;
  ++compactions_;
  // The pair index maps to old ids; cheaper to rebuild lazily than remap.
  pair_index_.clear();
  pair_index_built_ = false;
  return remap;
}

namespace {

template <typename T>
void put(std::string& out, T v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

template <typename T>
T take(const unsigned char* data, std::size_t size, std::size_t& off,
       const char* what) {
  if (off + sizeof(T) > size) {
    throw Error(ErrorCode::kInvalidInput,
                std::string("edge store restore: truncated ") + what);
  }
  T v;
  std::memcpy(&v, data + off, sizeof v);
  off += sizeof v;
  return v;
}

}  // namespace

void EdgeStore::serialize(std::string& out) const {
  put<std::uint32_t>(out, n_);
  put<std::uint64_t>(out, size());
  for (EdgeId i = 0; i < size(); ++i) {
    const WEdge& e = edge(i);
    put<std::uint32_t>(out, e.u);
    put<std::uint32_t>(out, e.v);
    put<double>(out, e.w);
    put<std::uint8_t>(out, is_live(i) ? 0 : 1);
  }
}

EdgeStore EdgeStore::restore(const unsigned char* data, std::size_t size,
                             std::size_t* consumed) {
  std::size_t off = 0;
  EdgeStore s(take<std::uint32_t>(data, size, off, "vertex count"));
  const auto slots = take<std::uint64_t>(data, size, off, "slot count");
  // 17 bytes per slot: reject counts the remaining bytes cannot hold before
  // reserving anything.
  if (slots > (size - off) / 17) {
    throw Error(ErrorCode::kInvalidInput,
                "edge store restore: slot count " + std::to_string(slots) +
                    " exceeds the serialized payload");
  }
  const auto count = static_cast<std::size_t>(slots);
  s.buf_ = std::make_shared<SlotBuffer>(std::max(count, kMinSlots),
                                        std::max(count, kMinSlots));
  for (std::size_t i = 0; i < count; ++i) {
    WEdge e;
    e.u = take<std::uint32_t>(data, size, off, "edge");
    e.v = take<std::uint32_t>(data, size, off, "edge");
    e.w = take<double>(data, size, off, "edge");
    const auto dead = take<std::uint8_t>(data, size, off, "dead flag");
    if (dead > 1) {
      throw Error(ErrorCode::kInvalidInput,
                  "edge store restore: bad dead flag at slot " +
                      std::to_string(i));
    }
    check_edge(e.u, e.v, e.w, s.n_);  // tombstoned slots were once live too
    s.buf_->tail()[i] = e;
    // Restored tombstones get distinct stamps, like erase() would give.
    s.buf_->set_stamp(i, dead == 0 ? SlotBuffer::kLive : ++s.erase_clock_);
    if (dead == 0) ++s.live_;
    ++s.slots_;
  }
  if (consumed != nullptr) *consumed = off;
  return s;
}

EdgeList EdgeStore::live_graph(std::vector<EdgeId>* out_ids) const {
  return view().live_graph(out_ids);
}

EdgeList StoreView::live_graph(std::vector<EdgeId>* out_ids) const {
  EdgeList g(n_);
  g.edges.reserve(live_);
  if (out_ids != nullptr) {
    out_ids->clear();
    out_ids->reserve(live_);
  }
  for (EdgeId id = 0; id < slots_; ++id) {
    if (!is_live(id)) continue;
    g.edges.push_back(edge(id));
    if (out_ids != nullptr) out_ids->push_back(id);
  }
  return g;
}

}  // namespace smp::dynamic
