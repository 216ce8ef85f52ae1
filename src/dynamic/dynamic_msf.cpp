#include "dynamic/dynamic_msf.hpp"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "core/connected_components.hpp"
#include "core/error.hpp"

namespace smp::dynamic {

using graph::EdgeId;
using graph::EdgeList;
using graph::MsfResult;
using graph::VertexId;
using graph::WEdge;

DynamicMsf::DynamicMsf(const EdgeList& initial, DynamicMsfOptions opts)
    : store_(initial), opts_(std::move(opts)) {
  // The dispatcher re-validates the graph; this also vets the MsfOptions
  // (threads, bc_base_size, algorithm) once, up front.
  MsfResult r = opts_.team != nullptr
                    ? core::minimum_spanning_forest(*opts_.team, initial,
                                                    opts_.msf)
                    : core::minimum_spanning_forest(initial, opts_.msf);
  forest_ = std::move(r.edge_ids);
  std::sort(forest_.begin(), forest_.end());
  trees_ = r.num_trees;
  recompute_weight();
}

DynamicMsf::DynamicMsf(EdgeStore store, DynamicMsfOptions opts)
    : store_(std::move(store)), opts_(std::move(opts)) {
  // Candidate-set solve over the full live graph: ids come back in store id
  // space, which for a fresh slab store is the identity.  The EdgeList copy
  // live_graph materializes is transient — it dies with this frame while the
  // store keeps serving from its mmap base.
  std::vector<EdgeId> ids;
  const EdgeList live = store_.live_graph(&ids);
  MsfResult r =
      opts_.team != nullptr
          ? core::minimum_spanning_forest_of_candidates(*opts_.team, live, ids,
                                                        opts_.msf)
          : core::minimum_spanning_forest_of_candidates(live, ids, opts_.msf);
  forest_ = std::move(r.edge_ids);
  std::sort(forest_.begin(), forest_.end());
  trees_ = r.num_trees;
  recompute_weight();
}

DynamicMsf::DynamicMsf(VertexId num_vertices, DynamicMsfOptions opts)
    : store_(num_vertices), opts_(std::move(opts)) {
  core::validate_request(EdgeList(num_vertices), opts_.msf);
  trees_ = num_vertices;
}

DynamicMsf::DynamicMsf(EdgeStore store, std::vector<EdgeId> forest,
                       DynamicMsfOptions opts)
    : store_(std::move(store)), opts_(std::move(opts)),
      forest_(std::move(forest)) {
  core::validate_request(EdgeList(store_.num_vertices()), opts_.msf);
  std::sort(forest_.begin(), forest_.end());
  for (std::size_t i = 0; i < forest_.size(); ++i) {
    if (i > 0 && forest_[i] == forest_[i - 1]) {
      throw Error(ErrorCode::kInvalidInput,
                  "restore: duplicate forest id " + std::to_string(forest_[i]));
    }
    if (!store_.is_live(forest_[i])) {
      throw Error(ErrorCode::kInvalidInput,
                  "restore: forest id " + std::to_string(forest_[i]) +
                      " is dead or unknown in the store");
    }
  }
  const auto n = static_cast<std::size_t>(store_.num_vertices());
  if (!forest_.empty() && forest_.size() >= n) {
    throw Error(ErrorCode::kInvalidInput,
                "restore: " + std::to_string(forest_.size()) +
                    " forest edges cannot be acyclic on " + std::to_string(n) +
                    " vertices");
  }
  // A forest with k edges on n vertices has exactly n - k trees.
  trees_ = n - forest_.size();
  recompute_weight();
}

MsfDelta DynamicMsf::apply_batch(std::span<const WEdge> insertions,
                                 std::span<const EdgeId> deletions,
                                 const ForestOracle* oracle) {
  // ---- Validate the whole batch before mutating anything (a bad batch
  // must not leave the store half-applied). ----
  for (const auto& e : insertions) store_.validate_edge(e.u, e.v, e.w);
  std::vector<EdgeId> del(deletions.begin(), deletions.end());
  std::sort(del.begin(), del.end());
  for (std::size_t i = 0; i < del.size(); ++i) {
    if (i > 0 && del[i] == del[i - 1]) {
      throw Error(ErrorCode::kInvalidInput,
                  "apply_batch: duplicate deletion of id " +
                      std::to_string(del[i]));
    }
    if (!store_.is_live(del[i])) {
      throw Error(ErrorCode::kInvalidInput,
                  "apply_batch: deletion of dead or unknown id " +
                      std::to_string(del[i]));
    }
  }

  const std::vector<EdgeId> old_forest = forest_;

  // ---- Deletions first: a batch's ids always name pre-batch edges. ----
  for (const EdgeId id : del) store_.erase(id);
  std::vector<EdgeId> retained;
  retained.reserve(forest_.size());
  std::set_difference(forest_.begin(), forest_.end(), del.begin(), del.end(),
                      std::back_inserter(retained));
  const bool forest_cut = retained.size() != forest_.size();

  // ---- Insertions: appended after every existing id. ----
  const EdgeId first_new = store_.size();
  for (const auto& e : insertions) store_.insert(e.u, e.v, e.w);

  // ---- Fast paths that need no solve. ----
  if (insertions.empty() && !forest_cut) {
    // Nothing inserted and only non-tree edges died: each dead edge was the
    // WeightOrder-maximum of a cycle whose other edges all survive, so the
    // forest is unchanged.  (Covers the empty batch too.)
    forest_ = retained;  // == forest_, kept for clarity
    return snapshot_delta(old_forest);
  }

  // ---- Crossover heuristic: a batch touching a large fraction of the
  // graph gains nothing from sparsification — the candidate set approaches
  // the live set while the filtering adds a components pass and a full
  // store scan on top. ----
  const std::size_t live = store_.num_live();
  const std::size_t batch_ops = insertions.size() + del.size();
  const bool scratch =
      static_cast<double>(batch_ops) >=
      opts_.scratch_batch_fraction * static_cast<double>(live);

  EdgeList cand(store_.num_vertices());
  std::vector<EdgeId> ids;
  if (scratch) {
    cand = store_.live_graph(&ids);
  } else if (!forest_cut && oracle != nullptr &&
             oracle->num_forest_edges() == forest_.size()) {
    return apply_by_path_max(*oracle, first_new, old_forest);
  } else if (!forest_cut) {
    // Insertion-only sparsification: MSF(G ∪ B) = MSF(F ∪ B), so the
    // candidate set is ~n−1+|B| edges no matter how large m is.
    ids = retained;
    ids.reserve(retained.size() + insertions.size());
    for (EdgeId id = first_new; id < store_.size(); ++id) ids.push_back(id);
    cand.edges.reserve(ids.size());
    for (const EdgeId id : ids) cand.edges.push_back(store_.edge(id));
  } else {
    // Deletions cut the forest: label the surviving forest components, then
    // one ascending store sweep merges the three candidate groups —
    // retained forest edges, batch insertions, and retained non-tree edges
    // now crossing two components (a retained non-tree edge *within* a
    // component still closes a surviving forest cycle it is the maximum of,
    // so it can never enter the new forest).
    EdgeList fg(store_.num_vertices());
    fg.edges.reserve(retained.size());
    for (const EdgeId id : retained) fg.edges.push_back(store_.edge(id));
    const core::CcResult cc =
        core::connected_components(fg, opts_.msf.threads);

    std::size_t ri = 0;
    for (EdgeId id = 0; id < store_.size(); ++id) {
      if (!store_.is_live(id)) continue;
      bool take = false;
      if (ri < retained.size() && retained[ri] == id) {
        take = true;
        ++ri;
      } else if (id >= first_new) {
        take = true;
      } else {
        const WEdge& e = store_.edge(id);
        take = cc.label[e.u] != cc.label[e.v];
      }
      if (take) {
        ids.push_back(id);
        cand.edges.push_back(store_.edge(id));
      }
    }
  }
  return solve_and_commit(cand, ids, old_forest, scratch);
}

MsfDelta DynamicMsf::apply_by_path_max(const ForestOracle& oracle,
                                        EdgeId first_new,
                                        const std::vector<EdgeId>& old_forest) {
  const EdgeId last = store_.size();
  // Compressed path tree: the batch endpoints in (tree, preorder) order,
  // closed under the LCAs of adjacent same-tree pairs.  In that closed,
  // ordered set the tree parent of each vertex is its LCA with its
  // predecessor.
  const auto key = [&](VertexId x) {
    return (std::uint64_t{oracle.component(x)} << 32) | oracle.tin(x);
  };
  const auto by_key = [&](VertexId a, VertexId b) { return key(a) < key(b); };
  std::vector<VertexId> pts;
  pts.reserve(4 * static_cast<std::size_t>(last - first_new));
  for (EdgeId id = first_new; id < last; ++id) {
    pts.push_back(store_.edge(id).u);
    pts.push_back(store_.edge(id).v);
  }
  std::sort(pts.begin(), pts.end(), by_key);
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  const std::size_t endpoints = pts.size();
  for (std::size_t i = 1; i < endpoints; ++i) {
    if (oracle.component(pts[i - 1]) == oracle.component(pts[i])) {
      pts.push_back(oracle.lca(pts[i - 1], pts[i]));
    }
  }
  std::sort(pts.begin(), pts.end(), by_key);
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  const auto slot = [&](VertexId x) {
    return static_cast<std::uint32_t>(
        std::lower_bound(pts.begin(), pts.end(), x, by_key) - pts.begin());
  };

  // Kruskal candidates under ⟨weight, store id⟩: each compressed edge
  // carries its path's bottleneck forest edge, each batch edge itself.
  struct Cand {
    graph::WeightOrder order;
    std::uint32_t a, b;
    bool batch;
  };
  std::vector<Cand> cands;
  cands.reserve(pts.size() + static_cast<std::size_t>(last - first_new));
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (oracle.component(pts[i - 1]) != oracle.component(pts[i])) continue;
    const VertexId parent = oracle.lca(pts[i - 1], pts[i]);
    const EdgeId bottleneck = oracle.bottleneck(pts[i], parent);
    cands.push_back(Cand{{store_.edge(bottleneck).w, bottleneck},
                         static_cast<std::uint32_t>(i), slot(parent), false});
  }
  for (EdgeId id = first_new; id < last; ++id) {
    const WEdge& e = store_.edge(id);
    cands.push_back(Cand{{e.w, id}, slot(e.u), slot(e.v), true});
  }
  std::sort(cands.begin(), cands.end(),
            [](const Cand& x, const Cand& y) { return x.order < y.order; });

  std::vector<std::uint32_t> uf(pts.size());
  for (std::uint32_t i = 0; i < uf.size(); ++i) uf[i] = i;
  const auto find = [&](std::uint32_t x) {
    while (uf[x] != x) x = uf[x] = uf[uf[x]];
    return x;
  };
  std::vector<EdgeId> removed;
  std::vector<EdgeId> added;
  for (const Cand& c : cands) {
    const std::uint32_t ra = find(c.a);
    const std::uint32_t rb = find(c.b);
    if (ra != rb) {
      uf[ra] = rb;
      if (c.batch) added.push_back(c.order.orig);
    } else if (!c.batch) {
      removed.push_back(c.order.orig);
    }
  }

  // Commit: batch ids exceed every existing id, so appending keeps the
  // forest ascending.
  std::sort(removed.begin(), removed.end());
  std::sort(added.begin(), added.end());
  std::vector<EdgeId> next;
  next.reserve(forest_.size() - removed.size() + added.size());
  std::set_difference(forest_.begin(), forest_.end(), removed.begin(),
                      removed.end(), std::back_inserter(next));
  next.insert(next.end(), added.begin(), added.end());
  forest_ = std::move(next);
  trees_ = static_cast<std::size_t>(store_.num_vertices()) - forest_.size();
  recompute_weight();
  ++path_max_batches_;

  MsfDelta d = snapshot_delta(old_forest);
  // The candidate set a solve would have taken: retained forest ∪ batch.
  d.candidate_edges =
      old_forest.size() + static_cast<std::size_t>(last - first_new);
  return d;
}

std::vector<EdgeId> DynamicMsf::compact_store() {
  const std::vector<EdgeId> remap = store_.compact();
  // Forest ids are live by definition, so every remap hit is valid; the
  // renumbering is monotone, so the forest stays ascending.
  for (EdgeId& id : forest_) id = remap[static_cast<std::size_t>(id)];
  return remap;
}

MsfDelta DynamicMsf::recompute() {
  const std::vector<EdgeId> old_forest = forest_;
  std::vector<EdgeId> ids;
  const EdgeList live = store_.live_graph(&ids);
  return solve_and_commit(live, ids, old_forest, /*from_scratch=*/true);
}

MsfDelta DynamicMsf::solve_and_commit(const EdgeList& candidates,
                                      const std::vector<EdgeId>& ids,
                                      const std::vector<EdgeId>& old_forest,
                                      bool from_scratch) {
  MsfResult r = opts_.team != nullptr
                    ? core::minimum_spanning_forest_of_candidates(
                          *opts_.team, candidates, ids, opts_.msf)
                    : core::minimum_spanning_forest_of_candidates(
                          candidates, ids, opts_.msf);
  forest_ = std::move(r.edge_ids);
  std::sort(forest_.begin(), forest_.end());
  trees_ = r.num_trees;
  recompute_weight();

  MsfDelta d = snapshot_delta(old_forest);
  d.candidate_edges = candidates.edges.size();
  d.recomputed_from_scratch = from_scratch;
  return d;
}

MsfDelta DynamicMsf::snapshot_delta(
    const std::vector<EdgeId>& old_forest) const {
  MsfDelta d;
  std::set_difference(forest_.begin(), forest_.end(), old_forest.begin(),
                      old_forest.end(), std::back_inserter(d.forest_added));
  std::set_difference(old_forest.begin(), old_forest.end(), forest_.begin(),
                      forest_.end(), std::back_inserter(d.forest_removed));
  d.total_weight = weight_;
  d.num_trees = trees_;
  d.live_edges = store_.num_live();
  return d;
}

void DynamicMsf::recompute_weight() {
  weight_ = 0;
  for (const EdgeId id : forest_) weight_ += store_.edge(id).w;
}

MsfResult DynamicMsf::forest() const {
  MsfResult r;
  r.edge_ids = forest_;
  r.edges.reserve(forest_.size());
  for (const EdgeId id : forest_) r.edges.push_back(store_.edge(id));
  r.total_weight = weight_;
  r.num_trees = trees_;
  return r;
}

}  // namespace smp::dynamic
