#pragma once

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dynamic/edge_store.hpp"
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
    if (pairs_.count(pair_key(u, v)) != 0) return Resolve::kCut;
    const auto live = store_->find_live(u, v);
    if (!live) return Resolve::kNotLive;
    *id = *live;
    return deleted_.count(*live) != 0 ? Resolve::kCut : Resolve::kJoin;
  }
  /// Whether a deletion of store id `id` cuts: the group inserted that id,
  /// or already deletes it.
  [[nodiscard]] bool cuts(graph::EdgeId id) const {
    return id >= base_ || deleted_.count(id) != 0;
  }

  void insert(const graph::WEdge& e) {
    ins_.push_back(e);
    pairs_.insert(pair_key(e.u, e.v));
  }
  void erase(graph::EdgeId id) {
    del_.push_back(id);
    deleted_.insert(id);
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
    deleted_.clear();
    base_ = store_->size();
  }

 private:
  static std::uint64_t pair_key(graph::VertexId u, graph::VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  const EdgeStore* store_;
  graph::EdgeId base_;  ///< store size at the group's start
  std::vector<graph::WEdge> ins_;
  std::vector<graph::EdgeId> del_;
  std::unordered_set<std::uint64_t> pairs_;  ///< pair_key of each insertion
  std::unordered_set<graph::EdgeId> deleted_;
};

}  // namespace smp::dynamic
