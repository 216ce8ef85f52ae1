#include "dynamic/dynamic_msf.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "core/error.hpp"
#include "pprim/fault.hpp"
#include "pprim/partition.hpp"
#include "pprim/timer.hpp"
#include "seq/union_find.hpp"

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
                                 const core::Dendrogram* oracle) {
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

  // The forest edges the batch deletes, ascending.
  std::vector<EdgeId> cut;
  for (const EdgeId id : del) {
    if (std::binary_search(forest_.begin(), forest_.end(), id)) {
      cut.push_back(id);
    }
  }

  // ---- Deletions first: a batch's ids always name pre-batch edges.  Each
  // one was checked live above, so no erase throws. ----
  for (const EdgeId id : del) store_.erase(id);
  const EdgeId first_new = store_.size();

  // ---- All or nothing: any failure from here on (an insertion's
  // bad_alloc, a budget trip or an injected fault while deciding) rolls the
  // store back and rethrows.  Every apply path allocates all it needs
  // before its first write to the forest state, so that state is untouched
  // too. ----
  try {
    // ---- Insertions: appended after every existing id. ----
    for (const auto& e : insertions) store_.insert(e.u, e.v, e.w);

    // ---- Fast paths that need no solve. ----
    if (insertions.empty() && cut.empty()) {
      // Nothing inserted and only non-tree edges died: each dead edge was the
      // WeightOrder-maximum of a cycle whose other edges all survive, so the
      // forest is unchanged.  (Covers the empty batch too.)
      return commit({}, {});
    }

    // ---- Crossover heuristic: a batch touching a large fraction of the
    // graph gains nothing from sparsification — the candidate set approaches
    // the live set while the filtering adds a components pass and a full
    // store scan on top. ----
    const std::size_t live = store_.num_live();
    const std::size_t batch_ops = insertions.size() + del.size();
    if (static_cast<double>(batch_ops) >=
        opts_.scratch_batch_fraction * static_cast<double>(live)) {
      std::vector<EdgeId> ids;
      const EdgeList all = store_.live_graph(&ids);
      return solve_and_commit(all, ids, /*from_scratch=*/true);
    }
    if (cut.empty() && oracle != nullptr &&
        oracle->num_merges() == forest_.size()) {
      return apply_by_path_max(*oracle, first_new);
    }
    if (opts_.msf.algorithm == core::Algorithm::kChampion) {
      return apply_by_kruskal(first_new, std::move(cut));
    }

    // ---- An explicitly named backend solves the candidate set, ascending
    // by store id: the retained forest edges, after a cut the retained
    // non-tree edges that now cross two of its components (one *within* a
    // component still closes a surviving forest cycle it is the maximum of,
    // so it can never enter), and the insertions, which follow every
    // existing id. ----
    std::vector<EdgeId> retained;
    retained.reserve(forest_.size() - cut.size());
    std::set_difference(forest_.begin(), forest_.end(), cut.begin(), cut.end(),
                        std::back_inserter(retained));
    std::vector<EdgeId> ids;
    if (cut.empty()) {
      ids = std::move(retained);
    } else {
      seq::MinRootUnionFind uf(store_.num_vertices());
      for (const EdgeId id : retained) {
        uf.unite(store_.edge(id).u, store_.edge(id).v);
      }
      std::vector<EdgeId> crossing;
      const std::vector<VertexId> label = std::move(uf).flatten();
      for (const Record& r : crossing_records(first_new, label)) {
        crossing.push_back(r.id);
      }
      ids.reserve(retained.size() + crossing.size());
      std::merge(retained.begin(), retained.end(), crossing.begin(),
                 crossing.end(), std::back_inserter(ids));
    }
    for (EdgeId id = first_new; id < store_.size(); ++id) ids.push_back(id);
    EdgeList cand(store_.num_vertices());
    cand.edges.reserve(ids.size());
    for (const EdgeId id : ids) cand.edges.push_back(store_.edge(id));
    return solve_and_commit(cand, ids, /*from_scratch=*/false);
  } catch (...) {
    store_.rollback(del, first_new);
    throw;
  }
}

MsfDelta DynamicMsf::apply_by_kruskal(EdgeId first_new,
                                      std::vector<EdgeId> cut) {
  core::StepTimes* const steps = opts_.msf.step_times;
  const VertexId n = store_.num_vertices();
  const EdgeId last = store_.size();
  WallTimer sort_timer;
  // ordered_ caches the entry forest, which a failed batch leaves in place.
  build_ordered();
  double sort_s = sort_timer.elapsed_s();

  // Positions of the deleted forest records in ordered_, ascending, closed
  // by a sentinel no position reaches.
  std::vector<std::size_t> skip;
  skip.reserve(cut.size() + 1);
  for (const EdgeId id : cut) {
    skip.push_back(static_cast<std::size_t>(
        std::lower_bound(ordered_.begin(), ordered_.end(), record(id),
                         before) -
        ordered_.begin()));
  }
  std::sort(skip.begin(), skip.end());
  skip.push_back(std::numeric_limits<std::size_t>::max());

  // ---- Candidates: after a cut, the retained non-tree edges that now
  // cross two of the split forest's components; then the insertions. ----
  std::vector<Record> cands;
  if (!cut.empty()) {
    seq::MinRootUnionFind uf(n);
    for (std::size_t i = 0, s = 0; i < ordered_.size(); ++i) {
      if (i == skip[s]) {
        ++s;
        continue;
      }
      uf.unite(ordered_[i].u, ordered_[i].v);
    }
    const std::vector<VertexId> label = std::move(uf).flatten();
    core::iteration_checkpoint(opts_.msf, "forest Kruskal sweep");
    cands = crossing_records(first_new, label);
  }
  cands.reserve(cands.size() + static_cast<std::size_t>(last - first_new));
  for (EdgeId id = first_new; id < last; ++id) cands.push_back(record(id));
  sort_timer.reset();
  std::sort(cands.begin(), cands.end(), before);
  sort_s += sort_timer.elapsed_s();

  // ---- One union-find scan over the merge of the ordered forest (minus
  // its deleted records) and the sorted candidates. ----
  core::iteration_checkpoint(opts_.msf, "forest Kruskal scan");
  fault_point("dynamic.kruskal-scan");
  WallTimer scan_timer;
  seq::MinRootUnionFind uf(n);
  ordered_next_.clear();
  // The output is a forest: at most n − 1 records.
  ordered_next_.reserve(std::min<std::size_t>(n, ordered_.size() + cands.size()));
  std::vector<EdgeId> dropped;
  std::vector<EdgeId> added;
  const std::size_t nf = ordered_.size();
  const std::size_t nc = cands.size();
  std::size_t fi = 0;
  std::size_t ci = 0;
  std::size_t si = 0;
  for (std::size_t scanned = 1;; ++scanned) {
    if (fi == skip[si]) {
      ++fi;
      ++si;
      continue;
    }
    const bool forest = fi < nf && (ci == nc || before(ordered_[fi], cands[ci]));
    if (!forest && ci == nc) break;
    const Record& r = forest ? ordered_[fi++] : cands[ci++];
    if (uf.unite(r.u, r.v)) {
      ordered_next_.push_back(r);
      if (!forest) added.push_back(r.id);
    } else if (forest) {
      dropped.push_back(r.id);
    }
    if (scanned % (std::size_t{1} << 16) == 0) {
      core::iteration_checkpoint(opts_.msf, "forest Kruskal scan");
    }
  }
  if (steps != nullptr) {
    steps->rank_build += sort_s;
    steps->other += sort_s;
    steps->connect += scan_timer.elapsed_s();
  }

  // ---- Commit: the delta is the deleted and dropped forest edges out,
  // the entering candidates in. ----
  std::sort(dropped.begin(), dropped.end());
  std::sort(added.begin(), added.end());
  std::vector<EdgeId> removed;
  removed.reserve(cut.size() + dropped.size());
  std::merge(cut.begin(), cut.end(), dropped.begin(), dropped.end(),
             std::back_inserter(removed));
  const std::size_t candidates = nf - cut.size() + nc;
  MsfDelta d = commit(std::move(removed), std::move(added));
  ordered_.swap(ordered_next_);
  d.candidate_edges = candidates;
  return d;
}

std::vector<DynamicMsf::Record> DynamicMsf::crossing_records(
    EdgeId end, const std::vector<VertexId>& label) const {
  const auto crosses = [&](std::size_t id) {
    if (!store_.is_live(id)) return false;
    const WEdge& e = store_.edge(id);
    return label[e.u] != label[e.v];
  };
  // Runs fn(tid, nthreads) on every thread of the team, or inline.
  const auto on_team = [&](const auto& fn) {
    if (opts_.team == nullptr) {
      fn(0, 1);
    } else {
      opts_.team->run([&](TeamCtx& ctx) { fn(ctx.tid(), ctx.nthreads()); });
    }
  };
  // One sweep marks the crossing ids in a bitmap (64 ids per word, each
  // thread owning whole words) and counts them; a gather then writes each
  // thread's records at its offset.  The output is allocated once, here, so
  // the workers allocate nothing (memory a worker allocates stays in its own
  // malloc arena).
  const auto m = static_cast<std::size_t>(end);
  std::vector<std::uint64_t> marks((m + 63) / 64);
  const auto p =
      static_cast<std::size_t>(opts_.team != nullptr ? opts_.team->size() : 1);
  std::vector<std::size_t> offset(p + 1, 0);
  on_team([&](int tid, int nthreads) {
    const IndexRange r = block_range(marks.size(), tid, nthreads);
    std::size_t count = 0;
    for (std::size_t w = r.begin; w < r.end; ++w) {
      std::uint64_t bits = 0;
      const std::size_t base = 64 * w;
      for (std::size_t id = base; id < std::min(base + 64, m); ++id) {
        if (crosses(id)) bits |= std::uint64_t{1} << (id - base);
      }
      marks[w] = bits;
      count += static_cast<std::size_t>(std::popcount(bits));
    }
    offset[static_cast<std::size_t>(tid) + 1] = count;
  });
  for (std::size_t t = 0; t < p; ++t) offset[t + 1] += offset[t];
  std::vector<Record> out(offset[p]);
  on_team([&](int tid, int nthreads) {
    const IndexRange r = block_range(marks.size(), tid, nthreads);
    std::size_t o = offset[static_cast<std::size_t>(tid)];
    for (std::size_t w = r.begin; w < r.end; ++w) {
      for (std::uint64_t bits = marks[w]; bits != 0; bits &= bits - 1) {
        out[o++] = record(64 * w + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  });
  return out;
}

void DynamicMsf::build_ordered() {
  if (ordered_ready_) return;
  ordered_.clear();
  ordered_.reserve(forest_.size());
  for (const EdgeId id : forest_) ordered_.push_back(record(id));
  std::sort(ordered_.begin(), ordered_.end(), before);
  ordered_ready_ = true;
}

void DynamicMsf::drop_ordered() {
  ordered_ = {};
  ordered_next_ = {};
  ordered_ready_ = false;
}

MsfDelta DynamicMsf::apply_by_path_max(const core::Dendrogram& oracle,
                                        EdgeId first_new) {
  const EdgeId last = store_.size();
  // The batch endpoints in leaf order.  Along it, the heaviest junction
  // between two endpoints of one run is their forest bottleneck, so the
  // chain of adjacent same-run pairs, each labelled with its range-max
  // edge, has the forest's bottleneck distances; adjacent ranges are
  // disjoint, so no forest edge labels two pairs.
  const auto by_pos = [&](VertexId a, VertexId b) {
    return oracle.pos(a) < oracle.pos(b);
  };
  std::vector<VertexId> pts;
  pts.reserve(2 * static_cast<std::size_t>(last - first_new));
  for (EdgeId id = first_new; id < last; ++id) {
    pts.push_back(store_.edge(id).u);
    pts.push_back(store_.edge(id).v);
  }
  std::sort(pts.begin(), pts.end(), by_pos);
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  const auto slot = [&](VertexId x) {
    return static_cast<std::uint32_t>(
        std::lower_bound(pts.begin(), pts.end(), x, by_pos) - pts.begin());
  };

  // Kruskal candidates under ⟨weight, store id⟩: each chain edge carries
  // its bottleneck forest edge, each batch edge itself.
  struct Cand {
    graph::WeightOrder order;
    std::uint32_t a, b;
    bool batch;
  };
  std::vector<Cand> cands;
  cands.reserve(pts.size() + static_cast<std::size_t>(last - first_new));
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (!oracle.connected(pts[i - 1], pts[i])) continue;
    const std::uint32_t j = oracle.path_max(pts[i - 1], pts[i]);
    cands.push_back(Cand{{oracle.merge_height(j), oracle.merge_id(j)},
                         static_cast<std::uint32_t>(i - 1),
                         static_cast<std::uint32_t>(i), false});
  }
  for (EdgeId id = first_new; id < last; ++id) {
    const WEdge& e = store_.edge(id);
    cands.push_back(Cand{{e.w, id}, slot(e.u), slot(e.v), true});
  }
  std::sort(cands.begin(), cands.end(),
            [](const Cand& x, const Cand& y) { return x.order < y.order; });

  core::iteration_checkpoint(opts_.msf, "path-max scan");
  fault_point("dynamic.path-max");
  seq::MinRootUnionFind uf(pts.size());
  std::vector<EdgeId> removed;
  std::vector<EdgeId> added;
  for (const Cand& c : cands) {
    if (uf.unite(c.a, c.b)) {
      if (c.batch) added.push_back(c.order.orig);
    } else if (!c.batch) {
      removed.push_back(c.order.orig);
    }
  }

  std::sort(removed.begin(), removed.end());
  std::sort(added.begin(), added.end());
  // The candidate set a solve would have taken: retained forest ∪ batch.
  const std::size_t candidates =
      forest_.size() + static_cast<std::size_t>(last - first_new);
  MsfDelta d = commit(std::move(removed), std::move(added));
  ++path_max_batches_;
  // A batch that left the forest as it was keeps its ordered records (a
  // served insert costs about a millisecond; an O(n) rebuild would show).
  if (d.changed_forest()) drop_ordered();
  d.candidate_edges = candidates;
  return d;
}

std::vector<EdgeId> DynamicMsf::compact_store() {
  const std::vector<EdgeId> remap = store_.compact();
  // Forest ids are live by definition, so every remap hit is valid; the
  // renumbering is monotone, so the forest stays ascending.
  for (EdgeId& id : forest_) id = remap[static_cast<std::size_t>(id)];
  for (Record& r : ordered_) r.id = remap[static_cast<std::size_t>(r.id)];
  return remap;
}

MsfDelta DynamicMsf::recompute() {
  std::vector<EdgeId> ids;
  const EdgeList live = store_.live_graph(&ids);
  return solve_and_commit(live, ids, /*from_scratch=*/true);
}

MsfDelta DynamicMsf::solve_and_commit(const EdgeList& candidates,
                                      const std::vector<EdgeId>& ids,
                                      bool from_scratch) {
  MsfResult r = opts_.team != nullptr
                    ? core::minimum_spanning_forest_of_candidates(
                          *opts_.team, candidates, ids, opts_.msf)
                    : core::minimum_spanning_forest_of_candidates(
                          candidates, ids, opts_.msf);
  std::sort(r.edge_ids.begin(), r.edge_ids.end());
  // The diff allocates, so it is taken before anything is committed.
  MsfDelta d;
  std::set_difference(r.edge_ids.begin(), r.edge_ids.end(), forest_.begin(),
                      forest_.end(), std::back_inserter(d.forest_added));
  std::set_difference(forest_.begin(), forest_.end(), r.edge_ids.begin(),
                      r.edge_ids.end(), std::back_inserter(d.forest_removed));
  drop_ordered();
  forest_ = std::move(r.edge_ids);
  trees_ = r.num_trees;
  recompute_weight();
  d.total_weight = weight_;
  d.num_trees = trees_;
  d.live_edges = store_.num_live();
  d.candidate_edges = candidates.edges.size();
  d.recomputed_from_scratch = from_scratch;
  return d;
}

MsfDelta DynamicMsf::commit(std::vector<EdgeId> removed,
                            std::vector<EdgeId> added) {
  if (!removed.empty() || !added.empty()) {
    std::vector<EdgeId> next;
    next.reserve(forest_.size() - removed.size() + added.size());
    auto r = removed.begin();
    auto a = added.begin();
    for (const EdgeId id : forest_) {
      if (r != removed.end() && *r == id) {
        ++r;
        continue;
      }
      while (a != added.end() && *a < id) next.push_back(*a++);
      next.push_back(id);
    }
    next.insert(next.end(), a, added.end());
    forest_ = std::move(next);
    trees_ = static_cast<std::size_t>(store_.num_vertices()) - forest_.size();
    recompute_weight();
  }
  MsfDelta d;
  d.forest_added = std::move(added);
  d.forest_removed = std::move(removed);
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
