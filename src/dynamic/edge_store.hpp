#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dynamic/pair_table.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "pprim/byte_codec.hpp"
#include "pprim/thread_team.hpp"

namespace smp::dynamic {

/// Slot storage shared by an EdgeStore and the StoreViews taken from it:
/// one edge record and one erase stamp per slot.  The store only ever
/// appends past every view's slot bound and stamps slots; it never moves or
/// frees a buffer a view holds.  A buffer reserves address space for twice
/// the slots it is made with, and grow() extends it into that reservation in
/// place, once; past that, and on compaction, the store starts a new buffer.
class SlotBuffer {
 public:
  /// Stamp of a slot that has never been erased.
  static constexpr std::uint64_t kLive = ~std::uint64_t{0};

  /// Room for `slots` edge records and slot stamps, in one anonymous
  /// mapping that reserves room for twice as many.  The mapping is
  /// MAP_NORESERVE and left uninitialized, and the room is advised for huge
  /// pages: untouched room costs address space, not resident memory, and
  /// the destructor returns every page to the system (a freed heap block
  /// this large can stay resident).  Throws std::bad_alloc when the mapping
  /// fails.
  explicit SlotBuffer(std::size_t slots);
  ~SlotBuffer();
  SlotBuffer(const SlotBuffer&) = delete;
  SlotBuffer& operator=(const SlotBuffer&) = delete;

  [[nodiscard]] std::size_t capacity() const { return slots_; }
  /// Doubles capacity() in place when the reservation holds it, and
  /// returns false, changing nothing, when it does not.  No slot moves, so
  /// the views reading this buffer are undisturbed.  Only the store that
  /// writes the buffer may call it.
  bool grow();
  [[nodiscard]] const graph::WEdge* edges() const { return edges_; }
  [[nodiscard]] graph::WEdge* edges() { return edges_; }
  [[nodiscard]] std::uint64_t stamp(graph::EdgeId id) const {
    return std::atomic_ref<std::uint64_t>(stamps_[id]).load(
        std::memory_order_relaxed);
  }
  void set_stamp(graph::EdgeId id, std::uint64_t s) {
    std::atomic_ref<std::uint64_t>(stamps_[id]).store(
        s, std::memory_order_relaxed);
  }
  /// Starts loading slot `id`'s edge and stamp into the cache.
  void prefetch(graph::EdgeId id) const {
    __builtin_prefetch(edges_ + id);
    __builtin_prefetch(stamps_ + id);
  }

 private:
  std::size_t slots_;     ///< usable now
  std::size_t reserved_;  ///< mapped: edge records and stamps for this many
  std::size_t bytes_;
  graph::WEdge* edges_;
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
    return buf_->edges()[static_cast<std::size_t>(id)];
  }
  /// The view's live edges in ascending store-id order (see
  /// EdgeStore::live_graph).
  [[nodiscard]] graph::EdgeList live_graph(
      std::vector<graph::EdgeId>* out_ids = nullptr) const;

 private:
  friend class EdgeStore;

  std::shared_ptr<const SlotBuffer> buf_;
  graph::EdgeId slots_ = 0;
  std::uint64_t erase_bound_ = 0;
  std::size_t live_ = 0;
  graph::VertexId n_ = 0;
};

/// Mutable edge container backing the batch-dynamic subsystem: one owned,
/// append-only array of slots.
///
/// Edges get a *store id* on insertion — their index in the slot array —
/// and keep it forever: deletion tombstones the slot instead of
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
/// Slots live in a shared SlotBuffer (see StoreView): appends fill it, a
/// deletion stamps the slot with the next value of an erase clock, so
/// `view()` is O(1), and growth doubles the room.  Every other doubling
/// extends the buffer in place and the rest move to a new buffer of twice
/// the room; the first one after adoption, restore, compaction or a copy is
/// in place, so the first batch after any of them copies no slot.
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
  /// non-finite weights, naming the first such edge.
  explicit EdgeStore(const graph::EdgeList& g);
  /// The same, with the checks and the copy split across `team`.
  EdgeStore(const graph::EdgeList& g, ThreadTeam& team);

  [[nodiscard]] graph::VertexId num_vertices() const { return n_; }
  /// Total slots, live and tombstoned; also the next id to be assigned.
  [[nodiscard]] graph::EdgeId size() const { return slots_; }
  [[nodiscard]] std::size_t num_live() const { return live_; }
  [[nodiscard]] bool is_live(graph::EdgeId id) const {
    return id < slots_ && buf_->stamp(id) == SlotBuffer::kLive;
  }
  /// The edge in slot `id` (live or tombstoned; id must be < size()).
  [[nodiscard]] const graph::WEdge& edge(graph::EdgeId id) const {
    return buf_->edges()[static_cast<std::size_t>(id)];
  }
  /// Starts loading slot `id` (< size()) into the cache, for a reader that
  /// will ask for it soon.
  void prefetch(graph::EdgeId id) const { buf_->prefetch(id); }
  /// O(1) immutable view of the store as it is now (see StoreView).
  [[nodiscard]] StoreView view() const;
  /// How many times compact() has renumbered this store's ids: two views
  /// with equal counts name the same edge by the same id.
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

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
  /// sustained delete workload grows the store (and every live_graph scan)
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
  /// The same, reading from `in` and leaving it just past the store.
  static EdgeStore restore(ByteReader& in);

 private:
  /// Whether check_edge passes, without throwing.
  static bool valid_edge(const graph::WEdge& e, graph::VertexId n);
  static void check_edge(graph::VertexId u, graph::VertexId v, graph::Weight w,
                         graph::VertexId n);
  void ensure_pair_index() const;
  /// Makes room for one more slot, doubling the room when full: in place
  /// when the buffer's reservation holds it, into a new buffer otherwise.
  void reserve_slot();
  /// A fresh buffer holding room for `capacity` slots, with slots
  /// [0, slots_) copied from the current one.
  [[nodiscard]] std::shared_ptr<SlotBuffer> copy_slots(
      std::size_t capacity) const;

  graph::VertexId n_ = 0;
  /// Records and stamps of slots [0, slots_); shared with the views taken
  /// since it was allocated.
  std::shared_ptr<SlotBuffer> buf_;
  graph::EdgeId slots_ = 0;
  std::size_t live_ = 0;
  /// Stamps handed out so far: erase() stamps with ++erase_clock_, and a
  /// view sees a slot as dead iff its stamp is <= the clock at view time.
  std::uint64_t erase_clock_ = 0;
  std::uint64_t compactions_ = 0;
  /// pair_key -> live store ids, built on first find_live (delete-by-id
  /// workloads never pay for it).
  mutable PairTable pair_index_;
  mutable bool pair_index_built_ = false;
};

}  // namespace smp::dynamic
