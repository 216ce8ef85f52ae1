#include "dynamic/dynamic_msf.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <iterator>
#include <limits>
#include <optional>
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

namespace {

/// Steps between two budget checkpoints in the Kruskal pass's long loops.
constexpr std::size_t kCheckEvery = std::size_t{1} << 16;

/// slot_ entry of a vertex the scan has not numbered.
constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

/// A forest version no other forest of the process has had.
std::uint64_t fresh_forest_version() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Points `o.team` at a team of o.msf.threads held by `own` unless the
/// caller gave one.
void adopt_team(DynamicMsfOptions& o, std::unique_ptr<ThreadTeam>& own) {
  if (o.team != nullptr) return;
  own = std::make_unique<ThreadTeam>(o.msf.threads);
  o.team = own.get();
}

}  // namespace

DynamicMsf::DynamicMsf(const EdgeList& initial, DynamicMsfOptions opts)
    : store_(initial), opts_(std::move(opts)) {
  adopt_team(opts_, own_team_);
  // The dispatcher re-validates the graph; this also vets the MsfOptions
  // (threads, bc_base_size, algorithm) once, up front.  Store ids are the
  // positions in initial.edges, so the result needs no id map.
  MsfResult r = core::minimum_spanning_forest(*opts_.team, initial, opts_.msf);
  std::sort(r.edge_ids.begin(), r.edge_ids.end());
  commit({}, std::move(r.edge_ids));
  forest_version_ = fresh_forest_version();
}

DynamicMsf::DynamicMsf(VertexId num_vertices, DynamicMsfOptions opts)
    : store_(num_vertices), opts_(std::move(opts)) {
  core::validate_request(EdgeList(num_vertices), opts_.msf);
  adopt_team(opts_, own_team_);
  trees_ = num_vertices;
  forest_version_ = fresh_forest_version();
}

DynamicMsf::DynamicMsf(EdgeStore store, std::vector<EdgeId> forest,
                       DynamicMsfOptions opts)
    : store_(std::move(store)), opts_(std::move(opts)) {
  core::validate_request(EdgeList(store_.num_vertices()), opts_.msf);
  adopt_team(opts_, own_team_);
  std::sort(forest.begin(), forest.end());
  for (std::size_t i = 0; i < forest.size(); ++i) {
    if (i > 0 && forest[i] == forest[i - 1]) {
      throw Error(ErrorCode::kInvalidInput,
                  "restore: duplicate forest id " + std::to_string(forest[i]));
    }
    if (!store_.is_live(forest[i])) {
      throw Error(ErrorCode::kInvalidInput,
                  "restore: forest id " + std::to_string(forest[i]) +
                      " is dead or unknown in the store");
    }
  }
  const auto n = static_cast<std::size_t>(store_.num_vertices());
  if (!forest.empty() && forest.size() >= n) {
    throw Error(ErrorCode::kInvalidInput,
                "restore: " + std::to_string(forest.size()) +
                    " forest edges cannot be acyclic on " + std::to_string(n) +
                    " vertices");
  }
  commit({}, std::move(forest));
  forest_version_ = fresh_forest_version();
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
    if (forest_->contains(id)) cut.push_back(id);
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
        kScratchBatchFraction * static_cast<double>(live)) {
      return recompute();
    }
    if (cut.empty() && oracle != nullptr &&
        oracle->num_merges() == forest_size_) {
      return apply_by_path_max(*oracle, first_new);
    }
    return apply_by_kruskal(first_new, cut);
  } catch (...) {
    store_.rollback(del, first_new);
    throw;
  }
}

MsfDelta DynamicMsf::apply_by_kruskal(EdgeId first_new,
                                      const std::vector<EdgeId>& cut) {
  core::StepTimes* const steps = opts_.msf.step_times;
  const VertexId n = store_.num_vertices();
  const EdgeId last = store_.size();
  WallTimer sort_timer;
  // links_ caches the entry forest, which a failed batch leaves in place.
  build_rooted();
  if (slot_.empty()) {
    stop_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
    slot_.assign(n, kNoSlot);
  }
  // The scratch is clear on entry; clear what this batch set on every exit.
  struct Clear {
    DynamicMsf& m;
    ~Clear() {
      for (const VertexId x : m.stopped_) m.stop_[x / 64] = 0;
      for (const VertexId x : m.numbered_) m.slot_[x] = kNoSlot;
      m.stopped_.clear();
      m.numbered_.clear();
    }
  } clear{*this};
  double sort_s = sort_timer.elapsed_s();

  // stop_[x] is set while x's parent edge must not be gathered: it was cut,
  // or a root-path walk already took it.
  const auto stopped = [&](VertexId x) {
    return (stop_[x / 64] >> (x % 64) & 1) != 0;
  };
  const auto set_stop = [&](VertexId x) {
    stopped_.push_back(x);
    stop_[x / 64] |= std::uint64_t{1} << (x % 64);
  };
  for (const EdgeId id : cut) {
    const WEdge& e = store_.edge(id);
    set_stop(links_[e.u].edge == id ? e.u : e.v);
  }

  // ---- Candidates: after a cut, the replacements R — the MSF of the
  // retained non-tree edges that cross two pieces of F', each piece
  // contracted to a point; then the insertions.  The crossing edges come
  // from the piece search, or past its limit from labels for every vertex
  // and a sweep of every slot. ----
  double connect_s = 0;
  std::size_t crossing = 0;
  ReplacementPath how = ReplacementPath::kNone;
  std::size_t search_arcs = 0;
  std::vector<Record> cands;
  if (!cut.empty()) {
    WallTimer connect_timer;
    core::iteration_checkpoint(opts_.msf, "forest Kruskal search");
    std::optional<Crossing> found;
    if (first_new <= IncidenceList::kMaxSlots) {
      incidence_.sync(*opts_.team, store_, first_new);
      const auto limit = static_cast<std::size_t>(
          kSearchFraction * static_cast<double>(store_.num_live()));
      found = search_pieces(cut, limit, search_arcs);
    }
    how = found ? ReplacementPath::kSearch : ReplacementPath::kSweep;
    if (!found) {
      seq::MinRootUnionFind uf(n);
      for (VertexId x = 0; x < n; ++x) {
        if (links_[x].parent != x && !stopped(x)) uf.unite(x, links_[x].parent);
        if ((x + 1) % kCheckEvery == 0) {
          core::iteration_checkpoint(opts_.msf, "forest Kruskal labels");
        }
      }
      const std::vector<VertexId> label = std::move(uf).dense_labels();
      core::iteration_checkpoint(opts_.msf, "forest Kruskal sweep");
      // F' has |forest| − |cut| edges, so n − that many pieces.
      found = Crossing{crossing_records(first_new, label),
                       n - (forest_size_ - cut.size())};
    }
    crossing = found->edges.size();
    cands = replacements(std::move(*found));
    connect_s += connect_timer.elapsed_s();
  }
  cands.reserve(cands.size() + static_cast<std::size_t>(last - first_new));
  for (EdgeId id = first_new; id < last; ++id) cands.push_back(record(id));

  // ---- Gather: every forest edge a candidate can close a cycle on lies on
  // one of its endpoints' root paths in F'.  A walk stops at a root, a cut
  // edge or an edge already gathered (the walk that took it went on up).
  // The scan's union-find holds only the vertices the walks reach, so the
  // walks number them densely and the records keep those numbers.  The
  // walks go up together, one step each per round, each loading the link it
  // reads next: their cache misses overlap instead of queueing.  Each edge
  // is gathered once whatever the order, and the scan sorts what it reads,
  // so the order changes nothing downstream. ----
  sort_timer.reset();
  const auto number = [&](VertexId x) {
    if (slot_[x] == kNoSlot) {
      numbered_.push_back(x);
      slot_[x] = static_cast<std::uint32_t>(numbered_.size() - 1);
    }
    return slot_[x];
  };
  struct Walk {
    VertexId x;
    std::uint32_t at;  ///< x's number
  };
  std::vector<Walk> walks;
  walks.reserve(2 * cands.size());
  for (Record& c : cands) {
    for (VertexId* end : {&c.u, &c.v}) {
      walks.push_back(Walk{*end, number(*end)});
      __builtin_prefetch(&links_[*end]);
      *end = walks.back().at;
    }
  }
  // The candidates' endpoints, numbered first: slots [0, terminals).
  const auto terminals = static_cast<std::uint32_t>(numbered_.size());
  std::vector<Record> path;
  std::size_t walked = 0;
  while (!walks.empty()) {
    std::size_t keep = 0;
    for (const Walk w : walks) {
      if (links_[w.x].parent == w.x || stopped(w.x)) continue;
      set_stop(w.x);
      const Link& l = links_[w.x];
      const std::uint32_t up = number(l.parent);
      path.push_back(Record{l.w, l.edge, w.at, up});
      __builtin_prefetch(&links_[l.parent]);
      walks[keep++] = Walk{l.parent, up};
      if (++walked % kCheckEvery == 0) {
        core::iteration_checkpoint(opts_.msf, "forest Kruskal gather");
      }
    }
    walks.resize(keep);
  }

  // ---- Compress: the gathered edges form trees whose leaves are all
  // terminals.  A vertex is key if it is a terminal or has two or more
  // gathered children; every other numbered vertex has one child and at
  // most one parent edge, so it lies inside a chain that runs up from one
  // key vertex.  Every cycle through a chain edge uses the whole chain, so
  // only the chain's heaviest edge can be a cycle's maximum: one record per
  // chain, that edge between the chain's key ends, decides the same edges.
  // A chain that ends at a root or a cut edge before reaching a key vertex
  // is all bridges and stays; it gets no record.  key_ counts each slot's
  // children, then holds its number in the scan's union-find (terminals
  // keep theirs) or kNoSlot.  A vertex that is not key was reached only by
  // the walk from its one child, which took the child's edge a round
  // before its own, so one pass in gathering order carries each chain up:
  // below_ holds, per vertex that is not key, the chain's heaviest edge so
  // far and its bottom key. ----
  const std::size_t slots = numbered_.size();
  key_.assign(slots, 0);
  below_.resize(slots);
  for (const Record& r : path) ++key_[r.v];
  std::uint32_t keys = terminals;
  for (std::uint32_t x = terminals; x < slots; ++x) {
    key_[x] = key_[x] >= 2 ? keys++ : kNoSlot;
  }
  for (std::uint32_t x = 0; x < terminals; ++x) key_[x] = x;
  std::vector<Record> chains;
  chains.reserve(keys);
  for (const Record& r : path) {
    Record c{r.w, r.id, key_[r.u], 0};
    if (c.u == kNoSlot) {
      c = below_[r.u];
      if (before(c, r)) {
        c.w = r.w;
        c.id = r.id;
      }
    }
    if (key_[r.v] == kNoSlot) {
      below_[r.v] = c;
    } else {
      c.v = key_[r.v];
      chains.push_back(c);
    }
  }
  std::sort(chains.begin(), chains.end(), before);
  std::sort(cands.begin(), cands.end(), before);
  sort_s += sort_timer.elapsed_s();

  // ---- One union-find scan over the key vertices: the merge of the chain
  // records and the candidates.  Every forest edge off the gathered paths
  // is a bridge of F' ∪ candidates, so it stays without a find. ----
  core::iteration_checkpoint(opts_.msf, "forest Kruskal scan");
  fault_point("dynamic.kruskal-scan");
  WallTimer scan_timer;
  seq::MinRootUnionFind uf(keys);
  std::vector<EdgeId> dropped;
  std::vector<EdgeId> added;
  const std::size_t np = chains.size();
  const std::size_t nc = cands.size();
  for (std::size_t pi = 0, ci = 0; pi < np || ci < nc;) {
    const bool forest = pi < np && (ci == nc || before(chains[pi], cands[ci]));
    const Record& r = forest ? chains[pi++] : cands[ci++];
    if (uf.unite(r.u, r.v)) {
      if (!forest) added.push_back(r.id);
    } else if (forest) {
      dropped.push_back(r.id);
    }
    if ((pi + ci) % kCheckEvery == 0) {
      core::iteration_checkpoint(opts_.msf, "forest Kruskal scan");
    }
  }
  connect_s += scan_timer.elapsed_s();
  if (steps != nullptr) {
    steps->rank_build += sort_s;
    steps->other += sort_s;
    steps->connect += connect_s;
  }

  // ---- Commit: the delta is the deleted and dropped forest edges out,
  // the entering candidates in. ----
  std::sort(dropped.begin(), dropped.end());
  std::sort(added.begin(), added.end());
  std::vector<EdgeId> removed;
  removed.reserve(cut.size() + dropped.size());
  std::merge(cut.begin(), cut.end(), dropped.begin(), dropped.end(),
             std::back_inserter(removed));
  // The candidate set a solve would take: the retained forest, the crossing
  // edges and the insertions.
  const std::size_t candidates = forest_size_ - cut.size() + crossing +
                                 static_cast<std::size_t>(last - first_new);
  MsfDelta d = commit(std::move(removed), std::move(added));
  d.candidate_edges = candidates;
  d.gathered_edges = path.size();
  d.path_records = chains.size();
  d.replacement_path = how;
  d.search_arcs = search_arcs;
  return d;
}

std::optional<DynamicMsf::Crossing> DynamicMsf::search_pieces(
    const std::vector<EdgeId>& cut, std::size_t limit, std::size_t& arcs) {
  if (piece_.empty()) piece_.assign(store_.num_vertices(), kNoSlot);
  struct Clear {
    DynamicMsf& m;
    ~Clear() {
      for (const VertexId x : m.claimed_) m.piece_[x] = kNoSlot;
      m.claimed_.clear();
    }
  } clear{*this};

  // One search per claimed part of a piece.  `up` joins searches that met
  // (the union-find of merges); `group` joins the searches of one cut tree
  // known so far: the two ends of a cut edge, and searches that met.  A
  // group's root counts its cut edges and its exhausted searches.  A group's
  // searches, merged, always number its cut edges plus one, so it has one
  // search left when every other is exhausted: then it is done, and its
  // last search stops.  When every group is done, every cut tree has at
  // most one piece left unexhausted (two such pieces would put two
  // unexhausted searches in one group: the pieces between them are
  // exhausted, so their searches joined the cut edges on the way).
  struct Search {
    /// Claimed vertices in claim order; those from `head` on are unread.
    std::vector<VertexId> queue;
    std::size_t head = 0;
    /// Vertices being read: one, or more after a merge.
    std::vector<IncidenceList::Cursor> open;
    std::uint32_t up;
    std::uint32_t group;
    std::uint32_t cuts = 0;
    std::uint32_t exhausted = 0;
    std::uint32_t read = 0;  ///< arcs read
    bool child = false;      ///< holds the child end of a cut edge
    bool done = false;       ///< its piece is exhausted
  };
  std::vector<Search> s;
  const auto find = [&](std::uint32_t a) {
    while (s[a].up != a) a = s[a].up = s[s[a].up].up;
    return a;
  };
  const auto group = [&](std::uint32_t a) {
    while (s[a].group != a) a = s[a].group = s[s[a].group].group;
    return a;
  };
  const auto join_groups = [&](std::uint32_t a, std::uint32_t b,
                               std::uint32_t cuts) {
    a = group(a);
    b = group(b);
    s[b].group = a;
    s[a].cuts += s[b].cuts + cuts;
    s[a].exhausted += s[b].exhausted;
  };
  const auto claim = [&](VertexId x, std::uint32_t a) {
    piece_[x] = a;
    claimed_.push_back(x);
    s[a].queue.push_back(x);
    incidence_.prefetch(x);
  };
  const auto seed = [&](VertexId x, bool child) {
    std::uint32_t a = 0;
    if (piece_[x] != kNoSlot) {
      a = find(piece_[x]);
    } else {
      a = static_cast<std::uint32_t>(s.size());
      s.push_back(Search{{}, 0, {}, a, a});
      claim(x, a);
    }
    s[a].child = s[a].child || child;
    return a;
  };
  for (const EdgeId id : cut) {
    const WEdge& e = store_.edge(id);
    const bool u_child = links_[e.u].edge == id;
    const std::uint32_t a = seed(e.u, u_child);
    join_groups(a, seed(e.v, !u_child), 1);
  }

  // Reads one arc of search `a` (a root, not done, in a group not done):
  // claims the far end of a forest arc of F' or merges with the search that
  // holds it, and sets every non-tree arc aside unread (the membership bit
  // needs only the id); the labelling below reads those whose search ends
  // exhausted.  Vertices are read in claim order, and starting one loads
  // the slots of its forest arcs and the arc list of the next, so a
  // search's reads wait on memory together rather than one after another.
  struct Arc {
    VertexId x;
    std::uint32_t id;
  };
  std::vector<Arc> leaving;
  const auto advance = [&](std::uint32_t a) {
    Search& t = s[a];
    std::uint32_t id = 0;
    VertexId x = 0;
    for (;;) {
      if (!t.open.empty()) {
        if (incidence_.next(t.open.back(), id)) {
          x = t.open.back().x;
          break;
        }
        t.open.pop_back();
      } else if (t.head < t.queue.size()) {
        const IncidenceList::Cursor c = incidence_.arcs(t.queue[t.head++]);
        for (const std::uint32_t* p = c.pos; p != c.end; ++p) {
          if (forest_->contains(*p)) store_.prefetch(*p);
        }
        if (t.head < t.queue.size()) incidence_.prefetch_arcs(t.queue[t.head]);
        t.open.push_back(c);
      } else {
        t.done = true;
        ++s[group(a)].exhausted;
        return;
      }
    }
    ++t.read;
    if (++arcs % kCheckEvery == 0) {
      core::iteration_checkpoint(opts_.msf, "forest Kruskal search");
    }
    if (!forest_->contains(id)) {
      leaving.push_back(Arc{x, id});
      return;
    }
    if (!store_.is_live(id)) return;
    const WEdge& e = store_.edge(id);
    const VertexId y = e.u == x ? e.v : e.u;
    const std::uint32_t b = piece_[y] == kNoSlot ? kNoSlot : find(piece_[y]);
    if (b == a) return;
    if (b == kNoSlot) {
      claim(y, a);
    } else {
      // Two searches of one piece met: `a` takes over b's unread and
      // half-read vertices, and b's group, another group of the same tree,
      // joins a's.
      Search& u = s[b];
      u.up = a;
      t.child = t.child || u.child;
      if (u.queue.size() - u.head > t.queue.size() - t.head) {
        std::swap(t.queue, u.queue);
        std::swap(t.head, u.head);
      }
      t.queue.insert(t.queue.end(),
                     u.queue.begin() + static_cast<std::ptrdiff_t>(u.head),
                     u.queue.end());
      t.open.insert(t.open.end(), u.open.begin(), u.open.end());
      u.queue = {};
      u.open = {};
      join_groups(a, b, 0);
    }
  };
  const auto running = [&](std::uint32_t a) {
    if (s[a].up != a || s[a].done) return false;
    const std::uint32_t g = group(a);
    return s[g].exhausted != s[g].cuts;
  };

  // Turns: a search that holds a cut edge's child end reads one arc every
  // turn; one started only at parent ends does so for its first kOwnTurns
  // arcs, and after that the searches like it take one arc between them
  // every kRotationTurns turns, in rotation.  A child end's search reads its
  // own piece (the cut child tops it in the rooted forest, so no two child
  // ends share one), while the parent ends mostly lie in one piece, the cut
  // tree's root piece, which is nearly always the largest: reading it
  // slowly costs a quarter of the small pieces' arcs instead of all of
  // them again.  The first arcs at full rate still end the search of a
  // small root piece quickly, and a root piece smaller than a child piece
  // is read within four times its size.
  constexpr std::uint32_t kOwnTurns = 32;
  constexpr std::size_t kRotationTurns = 4;
  const auto every_turn = [&](std::uint32_t a) {
    return s[a].child || s[a].read < kOwnTurns;
  };
  std::vector<std::uint32_t> turn(s.size());
  for (std::uint32_t a = 0; a < s.size(); ++a) turn[a] = a;
  std::vector<std::uint32_t> rotation;  // from rotation_head on
  std::size_t rotation_head = 0;
  std::vector<std::uint32_t> next;
  const auto step = [&](std::uint32_t a) {
    advance(a);
    if (running(a)) (every_turn(a) ? next : rotation).push_back(a);
  };
  for (std::size_t turns = 1; !turn.empty() || rotation_head < rotation.size();
       ++turns) {
    next.clear();
    for (const std::uint32_t a : turn) {
      if (running(a)) step(a);
    }
    while (turns % kRotationTurns == 0 && rotation_head < rotation.size()) {
      const std::uint32_t a = rotation[rotation_head++];
      if (!running(a)) continue;
      if (every_turn(a)) {
        next.push_back(a);
        continue;
      }
      step(a);
      break;
    }
    if (arcs > limit) return std::nullopt;
    std::swap(turn, next);
  }

  // Each exhausted search is a piece of its own, numbered from 1; every
  // other vertex lies in the one unexhausted piece of its tree, all of them
  // labelled 0.  Sharing one label across trees is safe: crossing edges
  // never join two trees, so the contracted pieces of different trees meet
  // only at that point, and the MSF of graphs glued at one vertex is the
  // union of their MSFs.  Each crossing edge has an end in an exhausted
  // piece, which set it aside; an edge between two exhausted pieces is kept
  // from its lower-labelled end.  The slots are loaded kAhead arcs early.
  std::vector<std::uint32_t> label(s.size(), 0);
  std::uint32_t pieces = 1;
  for (std::uint32_t a = 0; a < s.size(); ++a) {
    if (s[a].done) label[a] = pieces++;
  }
  const auto piece = [&](VertexId x) {
    return piece_[x] == kNoSlot ? 0 : label[find(piece_[x])];
  };
  constexpr std::size_t kAhead = 16;
  Crossing cross{{}, pieces};
  for (std::size_t i = 0; i < leaving.size(); ++i) {
    if (i + kAhead < leaving.size()) store_.prefetch(leaving[i + kAhead].id);
    const Arc arc = leaving[i];
    const std::uint32_t px = piece(arc.x);
    if (px == 0 || !store_.is_live(arc.id)) continue;
    const WEdge& e = store_.edge(arc.id);
    const std::uint32_t py = piece(e.u == arc.x ? e.v : e.u);
    if (px != py && (py == 0 || px < py)) {
      cross.edges.push_back(Record{e.w, arc.id, px, py});
    }
  }
  return cross;
}

std::vector<DynamicMsf::Record> DynamicMsf::crossing_records(
    EdgeId end, const std::vector<VertexId>& label) const {
  const auto crosses = [&](std::size_t id) {
    if (!store_.is_live(id)) return false;
    const WEdge& e = store_.edge(id);
    return label[e.u] != label[e.v];
  };
  // One sweep marks the crossing ids in a bitmap (64 ids per word, each
  // thread owning whole words) and counts them; a gather then writes each
  // thread's records at its offset.  The output is allocated once, here, so
  // the workers allocate nothing (memory a worker allocates stays in its own
  // malloc arena).
  const auto m = static_cast<std::size_t>(end);
  std::vector<std::uint64_t> marks((m + 63) / 64);
  const auto p = static_cast<std::size_t>(opts_.team->size());
  std::vector<std::size_t> offset(p + 1, 0);
  opts_.team->run([&](TeamCtx& ctx) {
    const IndexRange r = block_range(marks.size(), ctx.tid(), ctx.nthreads());
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
    offset[static_cast<std::size_t>(ctx.tid()) + 1] = count;
  });
  for (std::size_t t = 0; t < p; ++t) offset[t + 1] += offset[t];
  std::vector<Record> out(offset[p]);
  opts_.team->run([&](TeamCtx& ctx) {
    const IndexRange r = block_range(marks.size(), ctx.tid(), ctx.nthreads());
    std::size_t o = offset[static_cast<std::size_t>(ctx.tid())];
    for (std::size_t w = r.begin; w < r.end; ++w) {
      for (std::uint64_t bits = marks[w]; bits != 0; bits &= bits - 1) {
        const EdgeId id = 64 * w + static_cast<std::size_t>(std::countr_zero(bits));
        const WEdge& e = store_.edge(id);
        out[o++] = Record{e.w, id, label[e.u], label[e.v]};
      }
    }
  });
  return out;
}

std::vector<DynamicMsf::Record> DynamicMsf::replacements(Crossing c) const {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<Record>& cross = c.edges;
  const std::size_t pieces = c.pieces;
  // Borůvka under ⟨w, store id⟩: each round every component of the pieces
  // takes its lightest crossing edge.  The order is total, so the edges
  // taken in one round close no cycle, and an edge both of its sides took
  // is found joined the second time.
  seq::MinRootUnionFind comp(pieces);
  std::vector<std::size_t> best(pieces, kNone);  // index into cross
  std::vector<std::uint32_t> touched;  // components with a best edge
  std::vector<Record> out;
  std::size_t live = cross.size();
  std::size_t steps = 0;
  while (live > 0) {
    // Drop the edges inside one component, compacting the rest in place,
    // and find each component's lightest.
    std::size_t keep = 0;
    for (std::size_t i = 0; i < live; ++i) {
      const Record r = cross[i];
      const std::uint32_t a = comp.find(r.u);
      const std::uint32_t b = comp.find(r.v);
      if (++steps % kCheckEvery == 0) {
        core::iteration_checkpoint(opts_.msf, "replacement Boruvka");
      }
      if (a == b) continue;
      cross[keep] = r;
      for (const std::uint32_t c : {a, b}) {
        if (best[c] == kNone) {
          touched.push_back(c);
          best[c] = keep;
        } else if (before(r, cross[best[c]])) {
          best[c] = keep;
        }
      }
      ++keep;
    }
    live = keep;
    for (const std::uint32_t c : touched) {
      const Record& r = cross[best[c]];
      best[c] = kNone;
      if (comp.unite(r.u, r.v)) out.push_back(record(r.id));
      if (++steps % kCheckEvery == 0) {
        core::iteration_checkpoint(opts_.msf, "replacement Boruvka");
      }
    }
    touched.clear();
  }
  return out;
}

void DynamicMsf::build_rooted() {
  if (rooted_) return;
  const auto n = static_cast<std::size_t>(store_.num_vertices());
  const std::vector<EdgeId>& forest = forest_edge_ids();
  // The forest as adjacency lists: (neighbour, position in forest) pairs
  // bucketed by vertex.
  std::vector<std::size_t> start(n + 1, 0);
  for (std::size_t i = 0; i < forest.size(); ++i) {
    ++start[store_.edge(forest[i]).u + 1];
    ++start[store_.edge(forest[i]).v + 1];
    if ((i + 1) % kCheckEvery == 0) {
      core::iteration_checkpoint(opts_.msf, "rooted forest build");
    }
  }
  for (std::size_t x = 0; x < n; ++x) start[x + 1] += start[x];
  std::vector<std::pair<VertexId, std::uint32_t>> adj(2 * forest.size());
  {
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    for (std::uint32_t i = 0; i < forest.size(); ++i) {
      const WEdge& e = store_.edge(forest[i]);
      adj[fill[e.u]++] = {e.v, i};
      adj[fill[e.v]++] = {e.u, i};
      if ((i + 1) % kCheckEvery == 0) {
        core::iteration_checkpoint(opts_.msf, "rooted forest build");
      }
    }
  }
  // BFS from the least unvisited vertex of each tree; kInvalidVertex marks
  // a vertex not reached yet.
  links_.assign(n, Link{0, graph::kInvalidEdge, graph::kInvalidVertex});
  std::vector<VertexId> queue(n);
  std::size_t tail = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (links_[r].parent != graph::kInvalidVertex) continue;
    links_[r].parent = static_cast<VertexId>(r);
    queue[tail++] = static_cast<VertexId>(r);
    for (std::size_t head = tail - 1; head < tail; ++head) {
      if ((head + 1) % kCheckEvery == 0) {
        core::iteration_checkpoint(opts_.msf, "rooted forest build");
      }
      const VertexId x = queue[head];
      for (std::size_t j = start[x]; j < start[x + 1]; ++j) {
        const auto [y, i] = adj[j];
        if (links_[y].parent != graph::kInvalidVertex) continue;
        links_[y] = Link{store_.edge(forest[i]).w, forest[i], x};
        queue[tail++] = y;
      }
    }
  }
  rooted_ = true;
}

void DynamicMsf::relink(const std::vector<EdgeId>& removed,
                        const std::vector<EdgeId>& added) {
  if (!rooted_) return;
  for (const EdgeId id : removed) {
    const WEdge& e = store_.edge(id);
    const VertexId child = links_[e.u].edge == id ? e.u : e.v;
    links_[child] = Link{0, graph::kInvalidEdge, child};
  }
  // Evert u's tree at u — reverse the links on u's root path — and hang it
  // under v, in one walk.  Past n steps in one commit, drop the rooted
  // forest instead: the next Kruskal batch rebuilds it in O(n).
  const auto n = static_cast<std::size_t>(store_.num_vertices());
  std::size_t steps = 0;
  for (const EdgeId id : added) {
    const WEdge& e = store_.edge(id);
    VertexId x = e.u;
    Link up{e.w, id, e.v};
    for (;;) {
      const Link old = links_[x];
      links_[x] = up;
      if (old.parent == x) break;
      if (++steps > n) {
        rooted_ = false;
        return;
      }
      up = Link{old.w, old.edge, x};
      x = old.parent;
    }
  }
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
      forest_size_ + static_cast<std::size_t>(last - first_new);
  MsfDelta d = commit(std::move(removed), std::move(added));
  ++path_max_batches_;
  d.candidate_edges = candidates;
  return d;
}

std::vector<EdgeId> DynamicMsf::compact_store() {
  // The renumbered forest gets fresh bits, all of them allocated before the
  // store changes: live ids become [0, num_live), so that many slots cover
  // every new id.
  auto next = std::make_shared<ForestBits>();
  next->seal = seals_;
  next->blocks.resize((store_.num_live() + kForestBlockSlots - 1) /
                      kForestBlockSlots);
  for (auto& b : next->blocks) {
    b = std::make_shared<ForestBits::Block>();
    b->seal = seals_;
  }
  const std::vector<EdgeId> remap = store_.compact();
  // Forest ids are live by definition, so every remap hit is valid.
  forest_->for_each([&](EdgeId id) {
    const auto to = static_cast<std::size_t>(remap[static_cast<std::size_t>(id)]);
    next->blocks[to / kForestBlockSlots]->words[to % kForestBlockSlots / 64] |=
        std::uint64_t{1} << (to % 64);
  });
  forest_ = std::move(next);
  forest_version_ = fresh_forest_version();
  for (Link& l : links_) {
    if (l.edge != graph::kInvalidEdge) l.edge = remap[static_cast<std::size_t>(l.edge)];
  }
  incidence_.clear();
  return remap;
}

MsfDelta DynamicMsf::recompute() {
  std::vector<EdgeId> ids;
  const EdgeList live = store_.live_graph(&ids);
  MsfResult r = core::minimum_spanning_forest_of_candidates(*opts_.team, live,
                                                            ids, opts_.msf);
  std::sort(r.edge_ids.begin(), r.edge_ids.end());
  // A whole-graph diff can be any size: the next Kruskal batch rebuilds the
  // rooted forest rather than this commit everting it.
  rooted_ = false;
  // The diff allocates, so it is taken before anything is committed.
  const std::vector<EdgeId>& forest = forest_edge_ids();
  std::vector<EdgeId> added;
  std::vector<EdgeId> removed;
  std::set_difference(r.edge_ids.begin(), r.edge_ids.end(), forest.begin(),
                      forest.end(), std::back_inserter(added));
  std::set_difference(forest.begin(), forest.end(), r.edge_ids.begin(),
                      r.edge_ids.end(), std::back_inserter(removed));
  MsfDelta d = commit(std::move(removed), std::move(added));
  d.candidate_edges = live.edges.size();
  d.recomputed_from_scratch = true;
  return d;
}

void DynamicMsf::prepare_forest(std::span<const EdgeId> a,
                                std::span<const EdgeId> b) {
  if (forest_->seal != seals_) {
    auto copy = std::make_shared<ForestBits>(*forest_);
    copy->seal = seals_;
    forest_ = std::move(copy);
  }
  std::vector<std::shared_ptr<ForestBits::Block>>& blocks = forest_->blocks;
  for (const std::span<const EdgeId> ids : {a, b}) {
    for (const EdgeId id : ids) {
      const auto at = static_cast<std::size_t>(id / kForestBlockSlots);
      if (at >= blocks.size()) blocks.resize(at + 1);
      std::shared_ptr<ForestBits::Block>& block = blocks[at];
      if (block != nullptr && block->seal == seals_) continue;
      block = block == nullptr ? std::make_shared<ForestBits::Block>()
                               : std::make_shared<ForestBits::Block>(*block);
      block->seal = seals_;
    }
  }
}

MsfDelta DynamicMsf::commit(std::vector<EdgeId> removed,
                            std::vector<EdgeId> added) {
  if (!removed.empty() || !added.empty()) {
    prepare_forest(removed, added);
    // Nothing below allocates or throws.
    for (const EdgeId id : removed) {
      const auto s = static_cast<std::size_t>(id % kForestBlockSlots);
      forest_block(id).words[s / 64] &= ~(std::uint64_t{1} << (s % 64));
      weight_sum_.sub(store_.edge(id).w);
    }
    for (const EdgeId id : added) {
      const auto s = static_cast<std::size_t>(id % kForestBlockSlots);
      forest_block(id).words[s / 64] |= std::uint64_t{1} << (s % 64);
      weight_sum_.add(store_.edge(id).w);
    }
    forest_size_ = forest_size_ - removed.size() + added.size();
    forest_version_ = fresh_forest_version();
    weight_ = weight_sum_.value();
    relink(removed, added);
  }
  // A forest with k edges on n vertices has exactly n - k trees.
  trees_ = static_cast<std::size_t>(store_.num_vertices()) - forest_size_;
  MsfDelta d;
  d.forest_added = std::move(added);
  d.forest_removed = std::move(removed);
  d.total_weight = weight_;
  d.num_trees = trees_;
  d.live_edges = store_.num_live();
  return d;
}

const std::vector<EdgeId>& DynamicMsf::forest_edge_ids() const {
  if (ids_version_ != forest_version_) {
    ids_.clear();
    ids_.reserve(forest_size_);
    forest_->for_each([&](EdgeId id) { ids_.push_back(id); });
    ids_version_ = forest_version_;
  }
  return ids_;
}

ForestView DynamicMsf::share_forest() {
  ForestView v(forest_, forest_size_, forest_version_);
  // The view reads the table and every block as they are now: seal them,
  // so the next write copies what it touches.
  ++seals_;
  return v;
}

MsfResult DynamicMsf::forest() const {
  MsfResult r;
  r.edge_ids = forest_edge_ids();
  r.edges.reserve(r.edge_ids.size());
  for (const EdgeId id : r.edge_ids) r.edges.push_back(store_.edge(id));
  r.total_weight = weight_;
  r.num_trees = trees_;
  return r;
}

}  // namespace smp::dynamic
