#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dynamic/edge_slab.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"

namespace smp::dynamic {

/// Fixed-capacity slot storage shared by an EdgeStore and the StoreViews
/// taken from it: the owned tail's edge records and one erase stamp per slot
/// (base-slab slots included).  The store only ever appends past every
/// view's slot bound and stamps slots; it never moves or frees a buffer a
/// view holds — growth and compaction start a new buffer instead.
class SlotBuffer {
 public:
  /// Stamp of a slot that has never been erased.
  static constexpr std::uint64_t kLive = ~std::uint64_t{0};

  /// `slots` slot stamps, of which the last `tail` also get edge records.
  /// Both arrays live in one anonymous mapping, left uninitialized: untouched
  /// capacity costs address space, not resident memory, and the destructor
  /// returns every page to the system (a freed heap block this large can
  /// stay resident).  Throws std::bad_alloc when the mapping fails.
  SlotBuffer(std::size_t slots, std::size_t tail);
  ~SlotBuffer();
  SlotBuffer(const SlotBuffer&) = delete;
  SlotBuffer& operator=(const SlotBuffer&) = delete;

  [[nodiscard]] std::size_t capacity() const { return slots_; }
  [[nodiscard]] const graph::WEdge* tail() const { return tail_; }
  [[nodiscard]] graph::WEdge* tail() { return tail_; }
  [[nodiscard]] std::uint64_t stamp(graph::EdgeId id) const {
    return std::atomic_ref<std::uint64_t>(stamps_[id]).load(
        std::memory_order_relaxed);
  }
  void set_stamp(graph::EdgeId id, std::uint64_t s) {
    std::atomic_ref<std::uint64_t>(stamps_[id]).store(
        s, std::memory_order_relaxed);
  }

 private:
  std::size_t slots_;
  std::size_t bytes_;
  graph::WEdge* tail_;
  std::uint64_t* stamps_;
};

/// Immutable O(1) snapshot of an EdgeStore: the slots below `size()` as they
/// were when the view was taken.  Later inserts land past the slot bound,
/// and a slot erased later carries a stamp above the view's erase bound, so
/// the view keeps answering for its own moment while the store moves on —
/// the MVCC epochs of the serving layer hold one of these instead of a copy
/// of the live graph.  Any number of threads may read one view (and views
/// of the same store) concurrently with the store's single writer.
class StoreView {
 public:
  StoreView() = default;

  [[nodiscard]] graph::VertexId num_vertices() const { return n_; }
  /// Slot bound: every id below it is live or tombstoned in this view.
  [[nodiscard]] graph::EdgeId size() const { return slots_; }
  [[nodiscard]] std::size_t num_live() const { return live_; }
  [[nodiscard]] bool is_live(graph::EdgeId id) const {
    return id < slots_ && buf_->stamp(id) > erase_bound_;
  }
  /// The edge in slot `id` (id must be < size()).
  [[nodiscard]] const graph::WEdge& edge(graph::EdgeId id) const {
    return id < base_m_ ? base_->edges()[static_cast<std::size_t>(id)]
                        : buf_->tail()[static_cast<std::size_t>(id - base_m_)];
  }
  /// The view's live edges in ascending store-id order (see
  /// EdgeStore::live_graph).
  [[nodiscard]] graph::EdgeList live_graph(
      std::vector<graph::EdgeId>* out_ids = nullptr) const;

 private:
  friend class EdgeStore;

  std::shared_ptr<const EdgeSlab> base_;
  std::shared_ptr<const SlotBuffer> buf_;
  graph::EdgeId base_m_ = 0;
  graph::EdgeId slots_ = 0;
  std::uint64_t erase_bound_ = 0;
  std::size_t live_ = 0;
  graph::VertexId n_ = 0;
};

/// Mutable edge container backing the batch-dynamic subsystem.
///
/// Storage is two layers: an optional read-only mmap-backed base slab
/// (billion-edge sessions preload one; see EdgeSlab) followed by an owned
/// append-only tail.  Ids are global across both layers, so everything
/// below is layout-agnostic.
///
/// Edges get a *store id* on insertion — their index in the append-only
/// slab — and keep it forever: deletion tombstones the slot instead of
/// compacting, so ids held by callers (forest membership, deltas, update
/// traces) never dangle or get reused.  Ascending store-id order therefore
/// doubles as the repo-wide WeightOrder tie-break order: `live_graph()`
/// materializes live edges ascending, which makes a from-scratch solve on
/// the snapshot resolve weight ties exactly like the incremental solver
/// does (the determinism the test suite asserts).
///
/// Parallel edges are allowed (they are ordinary edges under the total
/// order); `find_live` resolves an endpoint pair to its canonical
/// ⟨weight, store-id⟩-minimal live edge, matching
/// graph::canonicalize_parallel_edges, so delete-by-endpoints trace
/// operations are deterministic.
///
/// Slots live in a shared, fixed-capacity SlotBuffer (see StoreView):
/// appends fill it, growth doubles into a new one, and a deletion stamps the
/// slot with the next value of an erase clock, so `view()` is O(1).
///
/// Not thread-safe: one writer, external synchronization if shared.  Views
/// may be read concurrently with the writer.  Copying a store copies its
/// slots into a buffer of its own; two stores never share a writable one.
class EdgeStore {
 public:
  EdgeStore() = default;
  explicit EdgeStore(graph::VertexId num_vertices) : n_(num_vertices) {}
  EdgeStore(const EdgeStore& other);
  EdgeStore& operator=(const EdgeStore& other);
  EdgeStore(EdgeStore&& other) = default;
  EdgeStore& operator=(EdgeStore&& other) = default;
  /// Adopts `g` with store ids equal to positions in `g.edges`.
  /// Throws Error{kInvalidInput} on self-loops, out-of-range endpoints or
  /// non-finite weights.
  explicit EdgeStore(const graph::EdgeList& g);
  /// Adopts a validated mmap-backed slab as the base layer: slots
  /// [0, slab->num_edges()) serve reads straight from the mapped file (zero
  /// heap bytes per edge), while later insert()s append to an owned tail —
  /// store-id semantics are identical to the all-owned store.  compact()
  /// and restore() drop the base layer (they materialize owned slots).
  explicit EdgeStore(std::shared_ptr<const EdgeSlab> slab);

  [[nodiscard]] graph::VertexId num_vertices() const { return n_; }
  /// Total slots, live and tombstoned; also the next id to be assigned.
  [[nodiscard]] graph::EdgeId size() const { return slots_; }
  [[nodiscard]] std::size_t num_live() const { return live_; }
  [[nodiscard]] bool is_live(graph::EdgeId id) const {
    return id < slots_ && buf_->stamp(id) == SlotBuffer::kLive;
  }
  /// The edge in slot `id` (live or tombstoned; id must be < size()).
  [[nodiscard]] const graph::WEdge& edge(graph::EdgeId id) const {
    return id < base_m_ ? base_->edges()[static_cast<std::size_t>(id)]
                        : buf_->tail()[static_cast<std::size_t>(id - base_m_)];
  }
  /// O(1) immutable view of the store as it is now (see StoreView).
  [[nodiscard]] StoreView view() const;
  /// How many times compact() has renumbered this store's ids: two views
  /// with equal counts name the same edge by the same id.
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }
  /// Slots served from the mmap-backed base layer (0 = fully owned).
  [[nodiscard]] graph::EdgeId base_size() const { return base_m_; }

  /// Appends a live edge and returns its store id.
  /// Throws Error{kInvalidInput} like the adopting constructor.
  graph::EdgeId insert(graph::VertexId u, graph::VertexId v, graph::Weight w);

  /// The validation insert() would apply, without inserting — lets batch
  /// callers reject a whole batch before mutating anything.
  void validate_edge(graph::VertexId u, graph::VertexId v,
                     graph::Weight w) const {
    check_edge(u, v, w, n_);
  }

  /// Tombstones a live edge.  Throws Error{kInvalidInput} if `id` is out of
  /// range or already dead.
  void erase(graph::EdgeId id);

  /// Undoes one batch: revives `erased` (every id erase() tombstoned since
  /// size() was `first_new`, in erase order) and drops the slots inserted
  /// since.  The pair index is cleared, not patched, so nothing here can
  /// throw; find_live rebuilds it on its next call.  Views taken before the
  /// batch read the same as before it: their slot bound is <= `first_new`
  /// and their erase bound lies below the batch's stamps.  No view may have
  /// been taken during the batch.
  void rollback(std::span<const graph::EdgeId> erased,
                graph::EdgeId first_new) noexcept;

  /// The canonical live edge with unordered endpoints {u, v}: minimal under
  /// ⟨weight, store-id⟩ among live parallels, or nullopt if none is live.
  /// Builds a pair index lazily on first call (kept incrementally after).
  [[nodiscard]] std::optional<graph::EdgeId> find_live(graph::VertexId u,
                                                       graph::VertexId v) const;

  /// Snapshot of the live edges in ascending store-id order.
  /// `out_ids` (optional) receives the store id of each snapshot position —
  /// strictly increasing, as minimum_spanning_forest_of_candidates requires.
  [[nodiscard]] graph::EdgeList live_graph(
      std::vector<graph::EdgeId>* out_ids = nullptr) const;

  /// Drops every tombstoned slot, renumbering the live edges to
  /// [0, num_live()) in ascending old-id order.  Because the renumbering is
  /// order-preserving, the relative ⟨weight, store-id⟩ total order of the
  /// live edges — the repo-wide WeightOrder tie-break — is unchanged, so a
  /// from-scratch solve after compaction picks the same forest edge for
  /// edge.  Returns the remap table: old id -> new id, kInvalidEdge for
  /// tombstoned slots.  Every id held outside the store is stale afterwards
  /// and must be translated through the table.  Without compaction a
  /// sustained delete workload grows the slab (and every live_graph scan)
  /// without bound; the serving layer calls this when live/size falls below
  /// its threshold.
  std::vector<graph::EdgeId> compact();

  /// Appends the full store state — vertex count, every slot (live *and*
  /// tombstoned, so store ids survive the round trip), dead flags — to
  /// `out` in the fixed little-endian layout the persistence layer
  /// snapshots.  The pair index is derived state and not serialized.
  void serialize(std::string& out) const;

  /// Inverse of serialize(): reconstructs a store from `size` bytes at
  /// `data`, validating structure and every slot like the adopting
  /// constructor (tombstoned slots are exempt from liveness-only checks but
  /// still bounds-checked).  `consumed` (optional) receives the bytes read.
  /// Throws Error{kInvalidInput} on truncated or malformed input.
  static EdgeStore restore(const unsigned char* data, std::size_t size,
                           std::size_t* consumed = nullptr);

 private:
  static void check_edge(graph::VertexId u, graph::VertexId v, graph::Weight w,
                         graph::VertexId n);
  void ensure_pair_index() const;
  /// Makes room for one more slot, doubling into a new buffer when full.
  void reserve_slot();
  /// A fresh buffer holding room for `capacity` slots, with slots
  /// [0, slots_) copied from the current one.
  [[nodiscard]] std::shared_ptr<SlotBuffer> copy_slots(
      std::size_t capacity) const;
  static std::uint64_t pair_key(graph::VertexId u, graph::VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  graph::VertexId n_ = 0;
  /// Base layer: validated mmap-backed records for ids [0, base_m_).
  /// Shared so snapshot copies of the store share one mapping.
  std::shared_ptr<const EdgeSlab> base_;
  graph::EdgeId base_m_ = 0;
  /// Owned tail records for ids [base_m_, slots_) and the stamps of ALL
  /// slots; shared with the views taken since it was allocated.
  std::shared_ptr<SlotBuffer> buf_;
  graph::EdgeId slots_ = 0;
  std::size_t live_ = 0;
  /// Stamps handed out so far: erase() stamps with ++erase_clock_, and a
  /// view sees a slot as dead iff its stamp is <= the clock at view time.
  std::uint64_t erase_clock_ = 0;
  std::uint64_t compactions_ = 0;
  /// pair_key -> live store ids, built on first find_live (delete-by-id
  /// workloads never pay for it).
  mutable std::unordered_multimap<std::uint64_t, graph::EdgeId> pair_index_;
  mutable bool pair_index_built_ = false;
};

}  // namespace smp::dynamic
