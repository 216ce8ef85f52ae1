#pragma once

#include <span>
#include <utility>
#include <vector>

#include "dynamic/edge_store.hpp"
#include "dynamic/pair_table.hpp"
#include "graph/edge_list.hpp"

namespace smp::dynamic {

/// One pending DynamicMsf::apply_batch group and the rule that decides which
/// writes may join it.  A batch deletes store ids that are live at batch
/// entry, so a write whose meaning depends on an earlier write of the same
/// group must start the next group instead (a *cut*):
///
///  * a deletion joins only if it names an edge that was live before the
///    group and that the group does not already delete;
///  * a delete-by-endpoints also requires that the group inserted no edge on
///    that pair, since after the group applies the pair's canonical edge may
///    be the new one.
///
/// Applying the writes group by group then assigns the same store ids and
/// commits the same forest as applying them one at a time.  The serve
/// flusher, WAL replay and `smpmsf solve --mode dynamic` all build their
/// groups here.  The group reads `store` (which must outlive it) and never
/// writes it: the caller applies insertions() and deletions() itself.
///
/// Every check is O(1) and nothing is allocated per write: the sets live in
/// flat PairTables, and the set of inserted pairs is built from the
/// insertions only on the first resolve(), so a group that never deletes by
/// endpoints (a bulk load, WAL replay) never builds it.
class WriteGroup {
 public:
  /// An empty group that starts from `store` as it is now.
  explicit WriteGroup(const EdgeStore& store)
      : store_(&store), base_(store.size()) {}

  enum class Resolve { kJoin, kCut, kNotLive };
  /// Resolves a delete of (u, v), endpoints in range and distinct: kCut when
  /// it depends on the group, kNotLive when no edge on the pair is live,
  /// else kJoin with `*id` set to the pair's canonical live edge.  Adds
  /// nothing; erase() does.
  [[nodiscard]] Resolve resolve(graph::VertexId u, graph::VertexId v,
                                graph::EdgeId* id) const {
    if (!pairs_built_) {
      pairs_.reserve(ins_.size());
      for (const graph::WEdge& e : ins_) {
        pairs_.insert_unique(pair_key(e.u, e.v));
      }
      pairs_built_ = true;
    }
    if (pairs_.contains(pair_key(u, v))) return Resolve::kCut;
    const auto live = store_->find_live(u, v);
    if (!live) return Resolve::kNotLive;
    *id = *live;
    return deleted_.contains(*live) ? Resolve::kCut : Resolve::kJoin;
  }
  /// Whether a deletion of store id `id` cuts: the group inserted that id,
  /// or already deletes it.
  [[nodiscard]] bool cuts(graph::EdgeId id) const {
    return id >= base_ || deleted_.contains(id);
  }

  void insert(std::span<const graph::WEdge> edges) {
    ins_.insert(ins_.end(), edges.begin(), edges.end());
    if (!pairs_built_) return;
    for (const graph::WEdge& e : edges) {
      pairs_.insert_unique(pair_key(e.u, e.v));
    }
  }
  void insert(const graph::WEdge& e) { insert(std::span(&e, 1)); }
  void erase(graph::EdgeId id) {
    del_.push_back(id);
    deleted_.insert_unique(id);
  }

  [[nodiscard]] const std::vector<graph::WEdge>& insertions() const {
    return ins_;
  }
  [[nodiscard]] const std::vector<graph::EdgeId>& deletions() const {
    return del_;
  }
  /// Operations in the group: insertions plus deletions.
  [[nodiscard]] std::size_t size() const { return ins_.size() + del_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Empties the group; the next one starts from the store as it is now.
  void clear() {
    ins_.clear();
    del_.clear();
    pairs_.clear();
    pairs_built_ = false;
    deleted_.clear();
    base_ = store_->size();
  }

  /// Moves the insertions and deletions out, then clear()s the group.
  std::pair<std::vector<graph::WEdge>, std::vector<graph::EdgeId>> release() {
    std::pair out{std::move(ins_), std::move(del_)};
    clear();
    return out;
  }

 private:
  const EdgeStore* store_;
  graph::EdgeId base_;  ///< store size at the group's start
  std::vector<graph::WEdge> ins_;
  std::vector<graph::EdgeId> del_;
  /// pair_key of each insertion, built on the first resolve().
  mutable PairTable pairs_;
  mutable bool pairs_built_ = false;
  PairTable deleted_;  ///< ids in del_
};

}  // namespace smp::dynamic
