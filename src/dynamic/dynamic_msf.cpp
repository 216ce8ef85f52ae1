#include "dynamic/dynamic_msf.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "core/error.hpp"
#include "pprim/cacheline.hpp"
#include "pprim/fault.hpp"
#include "pprim/huge_pages.hpp"
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

/// Independent loads a latency-bound loop keeps in flight: the search's
/// labelling loads slots this many arcs ahead, the sweep's label walks go
/// up this many side by side, and the rooted forest's BFS loads the runs of
/// the vertices this many places ahead in its queue.
constexpr std::size_t kAhead = 16;

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
    : opts_(std::move(opts)) {
  adopt_team(opts_, own_team_);
  store_ = EdgeStore(initial, *opts_.team);
  // The dispatcher re-validates the graph; this also vets the MsfOptions
  // (threads, bc_base_size, algorithm) once, up front.  Store ids are the
  // positions in initial.edges, so the result needs no id map.
  MsfResult r = core::minimum_spanning_forest(*opts_.team, initial, opts_.msf);
  std::sort(r.edge_ids.begin(), r.edge_ids.end());
  commit({}, std::move(r.edge_ids));
  forest_version_ = fresh_forest_version();
  build_rooted();
}

DynamicMsf::DynamicMsf(VertexId num_vertices, DynamicMsfOptions opts)
    : store_(num_vertices), opts_(std::move(opts)) {
  core::validate_request(EdgeList(num_vertices), opts_.msf);
  adopt_team(opts_, own_team_);
  trees_ = num_vertices;
  forest_version_ = fresh_forest_version();
  // Nothing to root yet: with no live edge, every batch that decides
  // anything crosses over, and recompute() roots the forest it commits.
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
  if (!build_rooted()) {
    throw Error(ErrorCode::kInvalidInput, "restore: forest ids contain a cycle");
  }
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
  const EdgeId last = store_.size();
  WallTimer sort_timer;
  // links_ caches the entry forest, which a failed batch leaves in place.
  // Every commit keeps it current but one whose everts pass the cap, which
  // drops it for this call to rebuild.
  if (!rooted_) build_rooted();
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
  std::size_t pairs = 0;
  ReplacementPath how = ReplacementPath::kNone;
  SearchCounts search;
  std::vector<Record> cands;
  if (!cut.empty()) {
    WallTimer connect_timer;
    core::iteration_checkpoint(opts_.msf, "forest Kruskal search");
    std::optional<Crossing> found;
    if (first_new <= IncidenceList::kMaxSlots) {
      incidence_.sync(*opts_.team, store_, first_new);
      const auto limit = static_cast<std::size_t>(
          kSearchFraction * static_cast<double>(store_.num_live()));
      found = search_pieces(cut, limit, search);
    }
    how = found ? ReplacementPath::kSearch : ReplacementPath::kSweep;
    if (!found) found = sweep_pieces(first_new);
    crossing = found->edges;
    pairs = found->pairs.size();
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
  d.crossing_pairs = pairs;
  d.gathered_edges = path.size();
  d.path_records = chains.size();
  d.replacement_path = how;
  d.search_arcs = search.arcs;
  d.search_pieces = search.pieces;
  d.search_rounds = search.rounds;
  d.largest_piece_arcs = search.largest;
  return d;
}

std::optional<DynamicMsf::Crossing> DynamicMsf::search_pieces(
    const std::vector<EdgeId>& cut, std::size_t limit, SearchCounts& counts) {
  if (piece_.empty()) piece_.assign(store_.num_vertices(), kNoSlot);
  /// A vertex a piece's reading reached, and its parent edge (kNoSlot at
  /// the top, whose parent edge is cut or absent).
  struct Visit {
    VertexId x;
    std::uint32_t up;
  };
  // A piece is the subtree of its top in the rooted forest, less the
  // subtrees of the cut edges' child ends inside it; a top is a cut edge's
  // child end or the root of a cut tree.  One to a cache line: the threads
  // write their pieces side by side.
  struct alignas(kCacheLineBytes) Piece {
    explicit Piece(VertexId t, std::uint32_t r = kNoSlot) : top(t), tree(r) {}
    VertexId top;
    std::uint32_t tree;            ///< the piece that holds its tree's root
    std::uint32_t count = 0;       ///< its tree's pieces (a root piece's)
    std::uint32_t exhausted = 0;   ///< of which exhausted (a root piece's)
    /// The vertices its reading reached, in order; from `head` on unread.
    std::vector<Visit> queue;
    std::size_t head = 0;
    std::vector<std::uint32_t> aside;  ///< the non-tree arcs it set aside
    IncidenceList::Cursor at{};  ///< the vertex being read, while `open`
    std::uint32_t up = kNoSlot;  ///< at.x's parent edge
    bool open = false;
    bool done = false;      ///< exhausted
    std::size_t quota = 0;  ///< arcs it may read this round
    std::size_t read = 0;   ///< arcs it read this round
    std::size_t total = 0;  ///< arcs it read
  };
  std::vector<Piece> pieces;
  // piece_ holds the piece of every vertex a walk labelled and of every
  // vertex a reading reached; clear both on every exit.
  struct Clear {
    DynamicMsf& m;
    const std::vector<Piece>& pieces;
    ~Clear() {
      for (const VertexId x : m.claimed_) m.piece_[x] = kNoSlot;
      m.claimed_.clear();
      for (const Piece& pc : pieces) {
        for (const Visit v : pc.queue) m.piece_[v.x] = kNoSlot;
      }
    }
  } clear{*this, pieces};

  // ---- The child pieces: each cut edge's child end tops one, numbered in
  // cut order.  Its parent end, at[i], lies in another piece. ----
  const auto name = [&](VertexId x, std::uint32_t label) {
    piece_[x] = label;
    claimed_.push_back(x);
  };
  const auto cuts = static_cast<std::uint32_t>(cut.size());
  std::vector<VertexId> at(cuts);
  pieces.reserve(2 * cut.size());
  for (std::uint32_t i = 0; i < cuts; ++i) {
    const WEdge& e = store_.edge(cut[i]);
    const bool u_child = links_[e.u].edge == cut[i];
    pieces.emplace_back(u_child ? e.u : e.v);
    name(pieces.back().top, i);
    at[i] = u_child ? e.v : e.u;
  }

  // ---- Read the pieces, each from its top down, in rounds.  At a vertex x,
  // every live forest arc but x's parent edge leads to a child of x in the
  // same piece, which nothing else reaches, so the pieces are read side by
  // side without claiming anything.  Every non-tree arc is set aside unread
  // (the membership bit needs only the id), for the labelling below to read
  // if its piece ends exhausted.  Starting a vertex loads the slots of its
  // forest arcs and the arc list of the next, so a piece's reads wait on
  // memory together rather than one after another.
  //
  // Each round, a running child piece reads up to kFirstArcs arcs, doubled
  // every round after the first, and a root piece 1/kRootShare of that: it
  // is nearly always its tree's largest, and it is read only until the
  // rest of its tree is exhausted, so reading it slowly costs a fraction of
  // the small pieces' arcs instead of all of them again; a root piece
  // smaller than a child piece is still read within kRootShare times its
  // size.  No round reads past `limit` by more than one arc per piece: the
  // quotas shrink in proportion to fit what is left of it.  The threads
  // take pieces in turn, and between rounds one of them adds up, counts the
  // exhausted pieces, runs the budget checkpoint and stops the search at
  // `limit`; a tree is done when all of its pieces but one are exhausted.
  // A piece is read by one thread at a time, in one order, so what a round
  // reads depends only on the rounds before it: the arcs read, and whether
  // the search passes `limit`, are the same at every p and every schedule.
  // Rounds whose quotas sum to less than kTeamArcs run on the calling
  // thread, so a small search never wakes the team.  A piece reaches at
  // most one vertex and sets aside at most one arc per arc it reads, so
  // reserving its quota before each round leaves the threads nothing to
  // allocate (memory a worker allocates stays in its own malloc arena).
  //
  // The first rounds read only the child pieces: once all of them are
  // exhausted, every tree has at most its root piece left, and the search
  // is over without knowing where the roots are.  That ends most searches
  // of a few cuts.  A search whose child pieces still run when their
  // budget reaches kWalkArcs names the rest of its pieces first (below). ----
  constexpr std::size_t kFirstArcs = 8;
  constexpr std::size_t kRootShare = 4;
  constexpr std::size_t kWalkArcs = 64;
  constexpr std::size_t kTeamArcs = 1024;
  const auto p = static_cast<std::size_t>(opts_.team->size());
  const auto read = [&](std::uint32_t i) {
    Piece& pc = pieces[i];
    std::size_t n = 0;
    while (n < pc.quota) {
      if (!pc.open) {
        if (pc.head == pc.queue.size()) break;
        const Visit v = pc.queue[pc.head++];
        pc.at = incidence_.arcs(v.x);
        pc.up = v.up;
        pc.open = true;
        for (const std::uint32_t* a = pc.at.pos; a != pc.at.end; ++a) {
          if (forest_->contains(*a)) store_.prefetch(*a);
        }
        if (pc.head < pc.queue.size()) incidence_.prefetch_arcs(pc.queue[pc.head].x);
      }
      std::uint32_t id = 0;
      if (!incidence_.next(pc.at, id)) {
        pc.open = false;
        continue;
      }
      ++n;
      if (!forest_->contains(id)) {
        pc.aside.push_back(id);
        continue;
      }
      if (id == pc.up || !store_.is_live(id)) continue;
      const WEdge& e = store_.edge(id);
      const VertexId y = e.u == pc.at.x ? e.v : e.u;
      piece_[y] = i;
      pc.queue.push_back(Visit{y, id});
      incidence_.prefetch(y);
    }
    pc.read = n;
  };

  // The pieces reading this round, and the next one a thread takes.
  std::vector<std::uint32_t> run;
  std::atomic<std::size_t> next{0};
  const auto read_round = [&] {
    for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
         k < run.size(); k = next.fetch_add(1, std::memory_order_relaxed)) {
      read(run[k]);
    }
  };

  // ---- Name the rest of the pieces.  A cut edge's parent end lies in the
  // piece of the nearest top above it: a walk goes up links_ from there and
  // stops at a named vertex — a top, a vertex a reading reached, or one an
  // earlier walk labelled — or at a root, which tops its tree's root piece.
  // The walks go up together, one step each per round, each loading the
  // link it reads next, as the Kruskal pass's gather walks do.  A walk
  // marks what it passes with kWalk and its index, and one that reaches a
  // mark ends in the piece of the walk that made it; that walk reached the
  // vertex first, so following the marks ends.  This gives the piece tree,
  // each cut tree's piece count and its exhausted pieces so far; the root
  // pieces join the reading. ----
  bool walked = false;
  const auto walk = [&] {
    constexpr std::uint32_t kWalk = std::uint32_t{1} << 31;
    // ends[w]: the piece walk w ended in, or kWalk | the walk whose mark it
    // reached.
    std::vector<std::uint32_t> ends(cuts, kNoSlot);
    std::vector<std::uint32_t> walks(cuts);
    for (std::uint32_t w = 0; w < cuts; ++w) {
      walks[w] = w;
      __builtin_prefetch(&links_[at[w]]);
    }
    std::size_t steps = 0;
    while (!walks.empty()) {
      std::size_t keep = 0;
      for (const std::uint32_t w : walks) {
        const VertexId x = at[w];
        if (piece_[x] != kNoSlot) {
          ends[w] = piece_[x];
          continue;
        }
        const VertexId up = links_[x].parent;
        if (up == x) {
          ends[w] = static_cast<std::uint32_t>(pieces.size());
          pieces.emplace_back(x, ends[w]);
          name(x, ends[w]);
          continue;
        }
        name(x, kWalk | w);
        at[w] = up;
        __builtin_prefetch(&links_[up]);
        __builtin_prefetch(&piece_[up]);
        walks[keep++] = w;
        if (++steps % kCheckEvery == 0) {
          core::iteration_checkpoint(opts_.msf, "forest Kruskal search");
        }
      }
      walks.resize(keep);
    }
    for (std::uint32_t w = 0; w < cuts; ++w) {
      std::uint32_t end = ends[w];
      while ((end & kWalk) != 0) end = ends[end & ~kWalk];
      for (std::uint32_t v = w; (ends[v] & kWalk) != 0;) {
        const std::uint32_t up = ends[v] & ~kWalk;
        ends[v] = end;
        v = up;
      }
    }
    for (const VertexId x : claimed_) {
      if ((piece_[x] & kWalk) != 0) piece_[x] = ends[piece_[x] & ~kWalk];
    }
    // Child piece i hangs below ends[i], the piece of its cut edge's parent
    // end; a root piece tops its tree.
    for (std::uint32_t i = 0; i < cuts; ++i) {
      std::uint32_t j = i;
      while (pieces[j].tree == kNoSlot) j = ends[j];
      for (std::uint32_t k = i; pieces[k].tree == kNoSlot; k = ends[k]) {
        pieces[k].tree = pieces[j].tree;
      }
    }
    for (const Piece& pc : pieces) {
      Piece& tree = pieces[pc.tree];
      ++tree.count;
      tree.exhausted += pc.done;
    }
    for (std::uint32_t i = cuts; i < pieces.size(); ++i) {
      pieces[i].queue.push_back(Visit{pieces[i].top, kNoSlot});
      if (pieces[i].exhausted + 1 < pieces[i].count) run.push_back(i);
    }
    counts.pieces = pieces.size();
    walked = true;
  };

  std::size_t round_arcs = 0;  // the quotas of the next round
  const auto plan_round = [&] {
    const std::size_t child = kFirstArcs << std::min<std::size_t>(counts.rounds, 40);
    const std::size_t root = std::max<std::size_t>(child / kRootShare, 1);
    const std::size_t left = limit + 1 - counts.arcs;
    round_arcs = 0;
    for (const std::uint32_t i : run) {
      pieces[i].quota = std::min(i < cuts ? child : root, left);
      round_arcs += pieces[i].quota;
    }
    if (round_arcs > left) {
      const std::size_t all = round_arcs;
      round_arcs = 0;
      for (const std::uint32_t i : run) {
        pieces[i].quota = (pieces[i].quota * left + all - 1) / all;
        round_arcs += pieces[i].quota;
      }
    }
    for (const std::uint32_t i : run) {
      Piece& pc = pieces[i];
      pc.queue.reserve(pc.queue.size() + pc.quota);
      pc.aside.reserve(pc.aside.size() + pc.quota);
    }
    next.store(0, std::memory_order_relaxed);
  };
  // Each exhausted piece's label, from 1, and 0 for every other (see
  // below); `labels` counts them.  The exhausted pieces (`spent`), the arcs
  // they set aside, and each thread's crossing edges.
  std::vector<std::uint32_t> label;
  std::uint32_t labels = 1;
  std::vector<std::uint32_t> spent;
  std::size_t set_aside = 0;
  std::vector<Lane> lanes(p);
  bool over = false;
  // Settles a round; false once the search is over: past `limit` (`over`),
  // or with every tree done (`label`, `spent` and `lanes` set).
  const auto settle_round = [&] {
    ++counts.rounds;
    for (const std::uint32_t i : run) {
      Piece& pc = pieces[i];
      pc.total += pc.read;
      counts.arcs += pc.read;
      if (!pc.open && pc.head == pc.queue.size()) {
        pc.done = true;
        if (walked) ++pieces[pc.tree].exhausted;
        counts.largest = std::max(counts.largest, pc.total);
      }
    }
    core::iteration_checkpoint(opts_.msf, "forest Kruskal search");
    if (counts.arcs > limit) {
      over = true;
      return false;
    }
    std::size_t keep = 0;
    for (const std::uint32_t i : run) {
      const Piece& tree = pieces[walked ? pieces[i].tree : i];
      if (!pieces[i].done && (!walked || tree.exhausted + 1 < tree.count)) {
        run[keep++] = i;
      }
    }
    run.resize(keep);
    if (!run.empty() && !walked &&
        kFirstArcs << std::min<std::size_t>(counts.rounds, 40) >= kWalkArcs) {
      walk();
    }
    if (run.empty()) {
      label.assign(pieces.size(), 0);
      for (std::uint32_t i = 0; i < pieces.size(); ++i) {
        if (!pieces[i].done) continue;
        label[i] = labels++;
        spent.push_back(i);
        set_aside += pieces[i].aside.size();
      }
      return false;
    }
    plan_round();
    return true;
  };
  for (std::uint32_t i = 0; i < cuts; ++i) {
    pieces[i].queue.push_back(Visit{pieces[i].top, kNoSlot});
    run.push_back(i);
  }
  counts.pieces = cuts;
  plan_round();

  // ---- Label: each exhausted piece is a piece of its own, numbered from 1;
  // every other vertex lies in the one unexhausted piece of its tree, all of
  // them labelled 0.  Sharing one label across trees is safe: crossing
  // edges never join two trees, so the contracted pieces of different trees
  // meet only at that point, and the MSF of graphs glued at one vertex is
  // the union of their MSFs.  Each crossing edge has an end in an exhausted
  // piece, which set it aside; an edge between two exhausted pieces is
  // counted from its lower-labelled end.  The threads take equal blocks of
  // the arcs the exhausted pieces set aside, and load the slots kAhead arcs
  // early and the endpoints' pieces half as early; each keeps the lightest
  // edge per pair of labels in its lane. ----
  const auto label_arcs = [&](std::size_t tid) {
    const auto piece_label = [&](VertexId x) {
      return piece_[x] == kNoSlot ? 0 : label[piece_[x]];
    };
    const IndexRange r =
        block_range(set_aside, static_cast<int>(tid), static_cast<int>(p));
    std::size_t base = 0;
    for (const std::uint32_t i : spent) {
      const std::vector<std::uint32_t>& a = pieces[i].aside;
      const std::uint32_t px = label[i];
      const std::size_t hi = std::clamp(r.end, base, base + a.size()) - base;
      for (std::size_t k = std::clamp(r.begin, base, base + a.size()) - base;
           k < hi; ++k) {
        if (k + kAhead < hi) store_.prefetch(a[k + kAhead]);
        if (k + kAhead / 2 < hi) {
          const WEdge& f = store_.edge(a[k + kAhead / 2]);
          __builtin_prefetch(&piece_[f.u]);
          __builtin_prefetch(&piece_[f.v]);
        }
        if (!store_.is_live(a[k])) continue;
        const WEdge& e = store_.edge(a[k]);
        const std::uint32_t pu = piece_label(e.u);
        const std::uint32_t py = pu == px ? piece_label(e.v) : pu;
        if (px != py && (py == 0 || px < py)) {
          ++lanes[tid].edges;
          lanes[tid].keep(Record{e.w, a[k], px, py});
        }
      }
      base += a.size();
    }
  };

  bool more = true;
  while (more && (p == 1 || round_arcs < kTeamArcs)) {
    read_round();
    more = settle_round();
  }
  if (over) return std::nullopt;
  if (more || (p > 1 && set_aside >= kTeamArcs)) {
    opts_.team->run([&](TeamCtx& ctx) {
      const auto tid = static_cast<std::size_t>(ctx.tid());
      while (more) {
        read_round();
        ctx.barrier();
        if (tid == 0) more = settle_round();
        ctx.barrier();
      }
      if (!over) label_arcs(tid);
    });
    if (over) return std::nullopt;
  } else {
    for (std::size_t t = 0; t < p; ++t) label_arcs(t);
  }
  return merge(lanes, labels);
}

DynamicMsf::Crossing DynamicMsf::sweep_pieces(EdgeId end) const {
  const auto n = static_cast<std::size_t>(store_.num_vertices());
  const auto p = static_cast<std::size_t>(opts_.team->size());
  // ---- Label: a piece is named by its top, as in the search: a root, or
  // a cut edge's child end (its stop_ bit is set, and no other is yet).
  // Each thread counts the tops in its block of vertices, then numbers them
  // from the count of the blocks before it and marks the rest of its block
  // unlabelled; then it walks up links_ from each unlabelled vertex of its
  // block to a labelled one — a top, or a vertex a walk labelled — and
  // labels the path below with that label.  Walks of two threads that meet
  // write the same labels, so the labels are relaxed atomics. ----
  const auto top = [&](std::size_t x) {
    return links_[x].parent == x || (stop_[x / 64] >> (x % 64) & 1) != 0;
  };
  const auto label = std::make_unique_for_overwrite<std::uint32_t[]>(n);
  const auto at = [&](VertexId x) {
    return std::atomic_ref<std::uint32_t>(label[x]);
  };
  std::vector<std::size_t> tops(p, 0);
  opts_.team->run([&](TeamCtx& ctx) {
    const auto tid = static_cast<std::size_t>(ctx.tid());
    const IndexRange r = block_range(n, ctx.tid(), ctx.nthreads());
    std::size_t count = 0;
    for (std::size_t x = r.begin; x < r.end; ++x) count += top(x);
    tops[tid] = count;
    if (tid + 1 == p) fault_point("dynamic.piece-labels");
    ctx.barrier();
    auto next = static_cast<std::uint32_t>(
        std::accumulate(tops.begin(), tops.begin() + ctx.tid(), std::size_t{0}));
    for (std::size_t x = r.begin; x < r.end; ++x) {
      at(x).store(top(x) ? next++ : kNoSlot, std::memory_order_relaxed);
    }
    if (tid == 0) core::iteration_checkpoint(opts_.msf, "forest Kruskal labels");
    ctx.barrier();
    // kAhead walks go up side by side, one step each per turn, each
    // loading the link and label it reads next: their misses overlap.
    struct Walk {
      VertexId from, y;
    };
    std::array<Walk, kAhead> walks;
    std::size_t live = 0;
    const auto step = [&](Walk& w, VertexId y) {
      w.y = y;
      __builtin_prefetch(&links_[y]);
      __builtin_prefetch(&label[y]);
    };
    for (auto x = static_cast<VertexId>(r.begin);;) {
      for (; live < kAhead && x < r.end; ++x) {
        if (at(x).load(std::memory_order_relaxed) != kNoSlot) continue;
        walks[live].from = x;
        step(walks[live++], links_[x].parent);
      }
      if (live == 0) break;
      for (std::size_t k = 0; k < live;) {
        Walk& w = walks[k];
        const std::uint32_t l = at(w.y).load(std::memory_order_relaxed);
        if (l == kNoSlot) {
          step(w, links_[w.y].parent);
          ++k;
          continue;
        }
        for (VertexId z = w.from; z != w.y; z = links_[z].parent) {
          at(z).store(l, std::memory_order_relaxed);
        }
        w = walks[--live];
      }
    }
  });

  // ---- Sweep: each thread takes an equal block of the slots below `end`
  // and keeps the lightest edge per pair of labels in its lane. ----
  std::vector<Lane> lanes(p);
  opts_.team->run([&](TeamCtx& ctx) {
    const auto tid = static_cast<std::size_t>(ctx.tid());
    if (tid + 1 == p) fault_point("dynamic.sweep");
    if (tid == 0) core::iteration_checkpoint(opts_.msf, "forest Kruskal sweep");
    const IndexRange r = block_range(end, ctx.tid(), ctx.nthreads());
    Lane& lane = lanes[tid];
    for (EdgeId id = r.begin; id < r.end; ++id) {
      if (!store_.is_live(id)) continue;
      const WEdge& e = store_.edge(id);
      if (label[e.u] == label[e.v]) continue;
      ++lane.edges;
      lane.keep(Record{e.w, id, label[e.u], label[e.v]});
    }
  });
  return merge(lanes, std::accumulate(tops.begin(), tops.end(), std::size_t{0}));
}

DynamicMsf::Crossing DynamicMsf::merge(std::vector<Lane>& lanes,
                                       std::size_t pieces) {
  Lane& all = lanes[0];
  for (std::size_t t = 1; t < lanes.size(); ++t) {
    all.edges += lanes[t].edges;
    for (const Record& r : lanes[t].best) all.keep(r);
  }
  return Crossing{std::move(all.best), pieces, all.edges};
}

std::vector<DynamicMsf::Record> DynamicMsf::replacements(Crossing c) const {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<Record>& cross = c.pairs;
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

bool DynamicMsf::build_rooted() {
  fault_point("dynamic.rooted-build");
  rooted_ = false;
  const auto n = static_cast<std::size_t>(store_.num_vertices());
  const std::vector<EdgeId>& forest = forest_edge_ids();
  // The forest as adjacency runs, built on the team.  Each entry is the
  // link the BFS gives the neighbour it leads to — the edge's weight and
  // id, with the vertex in `parent` — so the BFS never reads the store.
  auto start = make_huge_for_overwrite<std::size_t>(n + 1);
  auto adj = make_huge_for_overwrite<Link>(2 * forest.size());
  build_team_csr(
      *opts_.team, n, forest.size(), start.get(),
      [&](std::size_t i) -> const WEdge& { return store_.edge(forest[i]); },
      [&](std::size_t at, std::size_t i, const WEdge& e, VertexId y) {
        adj[at] = Link{e.w, forest[i], y};
      });
  if (links_ == nullptr) {
    // The first build also sets up the pass's per-vertex scratch, clear.
    stop_.assign((n + 63) / 64, 0);
    slot_.assign(n, kNoSlot);
    links_ = make_huge_for_overwrite<Link>(n);
  }
  // BFS from the least unseen vertex of each tree.  Every vertex is reached
  // once, so every link is written; a forest edge that leads to a vertex
  // seen already closes a cycle and places nothing.
  std::vector<std::uint64_t> seen((n + 63) / 64, 0);
  const auto see = [&](std::size_t x) {
    std::uint64_t& word = seen[x / 64];
    const std::uint64_t bit = std::uint64_t{1} << (x % 64);
    const bool was = (word & bit) != 0;
    word |= bit;
    return was;
  };
  const auto queue = make_huge_for_overwrite<VertexId>(n);
  std::size_t tail = 0;
  std::size_t placed = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (see(r)) continue;
    links_[r] = Link{0, graph::kInvalidEdge, static_cast<VertexId>(r)};
    queue[tail++] = static_cast<VertexId>(r);
    for (std::size_t head = tail - 1; head < tail; ++head) {
      if ((head + 1) % kCheckEvery == 0) {
        core::iteration_checkpoint(opts_.msf, "rooted forest build");
      }
      // The queue says which runs come next: start loading the offsets of
      // one far ahead and the run of one nearer, whose offsets are in.
      if (head + 2 * kAhead < tail) {
        __builtin_prefetch(&start[queue[head + 2 * kAhead]]);
      }
      if (head + kAhead < tail) __builtin_prefetch(&adj[start[queue[head + kAhead]]]);
      const VertexId x = queue[head];
      for (std::size_t j = start[x]; j < start[x + 1]; ++j) {
        const Link& a = adj[j];
        if (see(a.parent)) continue;
        links_[a.parent] = Link{a.w, a.edge, x};
        queue[tail++] = a.parent;
        ++placed;
      }
    }
  }
  rooted_ = placed == forest.size();
  return rooted_;
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
  if (rooted_) {
    for (VertexId x = 0; x < store_.num_vertices(); ++x) {
      Link& l = links_[x];
      if (l.edge != graph::kInvalidEdge) {
        l.edge = remap[static_cast<std::size_t>(l.edge)];
      }
    }
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
  // A whole-graph diff can be any size: the rooted forest is built again
  // after the commit rather than everted by it.
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
  // Root the new forest here, where the solve has paid O(m) already, so no
  // later batch pays for it.  The commit stands if this fails: the forest is
  // left unrooted, and the next Kruskal batch roots it.
  try {
    build_rooted();
  } catch (...) {  // NOLINT(bugprone-empty-catch): rooted_ stays false
  }
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
