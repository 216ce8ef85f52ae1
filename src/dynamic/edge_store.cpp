#include "dynamic/edge_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>
#include <string>

#include <sys/mman.h>

#include "core/error.hpp"
#include "pprim/fault.hpp"
#include "pprim/huge_pages.hpp"
#include "pprim/partition.hpp"

namespace smp::dynamic {

using graph::EdgeId;
using graph::EdgeList;
using graph::VertexId;
using graph::WEdge;
using graph::Weight;
using graph::WeightOrder;

bool EdgeStore::valid_edge(const WEdge& e, VertexId n) {
  return e.u != e.v && e.u < n && e.v < n && std::isfinite(e.w);
}

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

SlotBuffer::SlotBuffer(std::size_t slots)
    : slots_(slots),
      reserved_(2 * slots),
      bytes_(reserved_ * (sizeof(WEdge) + sizeof(std::uint64_t))),
      edges_(nullptr),
      stamps_(nullptr) {
  void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  edges_ = static_cast<WEdge*>(p);
  // sizeof(WEdge) is a multiple of 8, so the stamps stay 8-aligned.
  stamps_ = reinterpret_cast<std::uint64_t*>(edges_ + reserved_);
  // Huge pages for the room the store fills when it makes the buffer; the
  // reservation beyond it takes small pages, so a batch that appends past
  // that fill faults a few kilobytes in, not a zeroed 2 MiB page.
  advise_huge_pages(edges_, slots * sizeof(WEdge));
  advise_huge_pages(stamps_, slots * sizeof(std::uint64_t));
}

SlotBuffer::~SlotBuffer() { munmap(edges_, bytes_); }

bool SlotBuffer::grow() {
  if (2 * slots_ > reserved_) return false;
  slots_ *= 2;
  return true;
}

std::shared_ptr<SlotBuffer> EdgeStore::copy_slots(std::size_t capacity) const {
  const auto slots = static_cast<std::size_t>(slots_);
  auto nb = std::make_shared<SlotBuffer>(capacity);
  if (slots > 0) {
    std::memcpy(nb->edges(), buf_->edges(), slots * sizeof(WEdge));
    for (std::size_t i = 0; i < slots; ++i) nb->set_stamp(i, buf_->stamp(i));
  }
  return nb;
}

EdgeStore::EdgeStore(const EdgeStore& other)
    : n_(other.n_),
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

EdgeStore::EdgeStore(const EdgeList& g) {
  ThreadTeam calling_thread(1);
  *this = EdgeStore(g, calling_thread);
}

EdgeStore::EdgeStore(const EdgeList& g, ThreadTeam& team) : n_(g.num_vertices) {
  const std::size_t m = g.edges.size();
  buf_ = std::make_shared<SlotBuffer>(std::max(m, kMinSlots));
  // Each thread checks and copies one block, stopping at its first bad
  // edge; the first bad edge of all is the least of those.
  std::vector<std::size_t> bad(static_cast<std::size_t>(team.size()), m);
  SlotBuffer& b = *buf_;
  team.run([&](TeamCtx& ctx) {
    const IndexRange r = block_range(m, ctx.tid(), ctx.nthreads());
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const WEdge& e = g.edges[i];
      if (!valid_edge(e, n_)) {
        bad[static_cast<std::size_t>(ctx.tid())] = i;
        return;
      }
      b.edges()[i] = e;
      b.set_stamp(i, SlotBuffer::kLive);
    }
  });
  const std::size_t first = *std::min_element(bad.begin(), bad.end());
  if (first < m) {
    const WEdge& e = g.edges[first];
    check_edge(e.u, e.v, e.w, n_);
  }
  slots_ = m;
  live_ = m;
}

void EdgeStore::reserve_slot() {
  const auto slots = static_cast<std::size_t>(slots_);
  if (buf_ != nullptr && slots < buf_->capacity()) return;
  // Every doubling passes the fault point, in place or not.  Either way the
  // writer only writes past every view's slot bound: in place, into the
  // reservation no view reads; otherwise into a copy of twice the room,
  // while the views keep the full buffer.
  fault_point("edge-store.grow");
  if (buf_ != nullptr && buf_->grow()) return;
  buf_ = copy_slots(std::max(kMinSlots, 2 * slots));
}

EdgeId EdgeStore::insert(VertexId u, VertexId v, Weight w) {
  check_edge(u, v, w, n_);
  reserve_slot();
  const EdgeId id = slots_;
  buf_->edges()[static_cast<std::size_t>(id)] = WEdge{u, v, w};
  buf_->set_stamp(id, SlotBuffer::kLive);
  ++slots_;
  ++live_;
  if (pair_index_built_) pair_index_.insert(pair_key(u, v), id);
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
    const WEdge& e = edge(id);
    pair_index_.erase(pair_key(e.u, e.v), id);
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
  v.buf_ = buf_;
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
    pair_index_.insert(pair_key(e.u, e.v), id);
  }
  pair_index_built_ = true;
}

std::optional<EdgeId> EdgeStore::find_live(VertexId u, VertexId v) const {
  ensure_pair_index();
  std::optional<EdgeId> best;
  pair_index_.for_each(pair_key(u, v), [&](EdgeId id) {
    if (!best ||
        WeightOrder{edge(id).w, id} < WeightOrder{edge(*best).w, *best}) {
      best = id;
    }
  });
  return best;
}

std::vector<EdgeId> EdgeStore::compact() {
  std::vector<EdgeId> remap(static_cast<std::size_t>(size()),
                            graph::kInvalidEdge);
  // Compaction moves the live slots into a fresh buffer; views of the old
  // layout keep the old buffer.
  auto nb = std::make_shared<SlotBuffer>(std::max(live_, kMinSlots));
  EdgeId next = 0;
  for (EdgeId id = 0; id < size(); ++id) {
    if (!is_live(id)) continue;
    remap[static_cast<std::size_t>(id)] = next;
    nb->edges()[static_cast<std::size_t>(next)] = edge(id);
    nb->set_stamp(next, SlotBuffer::kLive);
    ++next;
  }
  buf_ = std::move(nb);
  slots_ = next;
  ++compactions_;
  // The pair index maps to old ids; cheaper to rebuild lazily than remap.
  pair_index_.clear();
  pair_index_built_ = false;
  return remap;
}

void EdgeStore::serialize(std::string& out) const {
  ByteWriter w(out);
  w.u32(n_);
  w.u64(size());
  for (EdgeId i = 0; i < size(); ++i) {
    const WEdge& e = edge(i);
    w.u32(e.u);
    w.u32(e.v);
    w.f64(e.w);
    w.u8(is_live(i) ? 0 : 1);
  }
}

EdgeStore EdgeStore::restore(const unsigned char* data, std::size_t size,
                             std::size_t* consumed) {
  ByteReader in(data, size);
  EdgeStore s = restore(in);
  if (consumed != nullptr) *consumed = in.offset();
  return s;
}

EdgeStore EdgeStore::restore(ByteReader& in) {
  const auto fail = [](const std::string& why) {
    throw Error(ErrorCode::kInvalidInput, "edge store restore: " + why);
  };
  EdgeStore s(in.u32());
  if (!in.ok()) fail("truncated vertex count");
  const std::uint64_t slots = in.u64();
  if (!in.ok()) fail("truncated slot count");
  // 17 bytes per slot: reject counts the remaining bytes cannot hold before
  // reserving anything.
  if (!in.count(slots, 17)) {
    fail("slot count " + std::to_string(slots) +
         " exceeds the serialized payload");
  }
  const auto count = static_cast<std::size_t>(slots);
  s.buf_ = std::make_shared<SlotBuffer>(std::max(count, kMinSlots));
  for (std::size_t i = 0; i < count; ++i) {
    WEdge e;
    e.u = in.u32();
    e.v = in.u32();
    e.w = in.f64();
    const std::uint8_t dead = in.u8();
    if (dead > 1) fail("bad dead flag at slot " + std::to_string(i));
    check_edge(e.u, e.v, e.w, s.n_);  // tombstoned slots were once live too
    s.buf_->edges()[i] = e;
    // Restored tombstones get distinct stamps, like erase() would give.
    s.buf_->set_stamp(i, dead == 0 ? SlotBuffer::kLive : ++s.erase_clock_);
    if (dead == 0) ++s.live_;
    ++s.slots_;
  }
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
