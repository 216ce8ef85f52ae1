#include "dynamic/incidence_list.hpp"

#include <iterator>

#include "pprim/partition.hpp"

namespace smp::dynamic {

using graph::EdgeId;
using graph::VertexId;
using graph::WEdge;

void IncidenceList::sync(ThreadTeam& team, const EdgeStore& store, EdgeId end) {
  const bool built = !start_.empty();
  if (built && end == covered_) return;
  try {
    const auto more = 2 * static_cast<std::size_t>(end - covered_);
    if (!built || tail_arcs_ + more > start_.back()) {
      build(team, store, end);
      return;
    }
    for (EdgeId id = covered_; id < end; ++id) {
      const WEdge& e = store.edge(id);
      append(e.u, static_cast<std::uint32_t>(id));
      append(e.v, static_cast<std::uint32_t>(id));
    }
    tail_arcs_ += more;
    covered_ = end;
  } catch (...) {
    clear();
    throw;
  }
}

void IncidenceList::clear() {
  start_ = {};
  arcs_ = {};
  tail_ = {};
  chunks_ = {};
  tail_arcs_ = 0;
  covered_ = 0;
}

void IncidenceList::build(ThreadTeam& team, const EdgeStore& store, EdgeId end) {
  clear();
  const auto n = static_cast<std::size_t>(store.num_vertices());
  const auto m = static_cast<std::size_t>(end);
  const auto p = static_cast<std::size_t>(team.size());
  start_.assign(n + 1, 0);
  arcs_.resize(2 * m);
  tail_.assign(n, kNoChunk);
  // count[t * n + x]: thread t's arcs at x, then where they start in x's run.
  // Each thread takes one block of slots, so x's run lists its slots
  // ascending.
  std::vector<std::uint32_t> count(p * n, 0);
  std::vector<std::size_t> block_sum(p + 1, 0);
  team.run([&](TeamCtx& ctx) {
    const auto t = static_cast<std::size_t>(ctx.tid());
    std::uint32_t* mine = count.data() + t * n;
    const IndexRange slots = block_range(m, ctx.tid(), ctx.nthreads());
    for (std::size_t id = slots.begin; id < slots.end; ++id) {
      const WEdge& e = store.edge(id);
      ++mine[e.u];
      ++mine[e.v];
    }
    ctx.barrier();
    // Per vertex, turn the threads' counts into offsets within its run, and
    // sum the run lengths of this thread's block of vertices.
    const IndexRange verts = block_range(n, ctx.tid(), ctx.nthreads());
    std::size_t sum = 0;
    for (std::size_t x = verts.begin; x < verts.end; ++x) {
      std::uint32_t run = 0;
      for (std::size_t u = 0; u < p; ++u) {
        const std::uint32_t c = count[u * n + x];
        count[u * n + x] = run;
        run += c;
      }
      start_[x] = sum;
      sum += run;
    }
    block_sum[t + 1] = sum;
    ctx.barrier();
    std::size_t base = 0;
    for (std::size_t u = 0; u <= t; ++u) base += block_sum[u];
    for (std::size_t x = verts.begin; x < verts.end; ++x) start_[x] += base;
    if (t + 1 == p) start_[n] = base + sum;
    ctx.barrier();
    for (std::size_t id = slots.begin; id < slots.end; ++id) {
      const WEdge& e = store.edge(id);
      arcs_[start_[e.u] + mine[e.u]++] = static_cast<std::uint32_t>(id);
      arcs_[start_[e.v] + mine[e.v]++] = static_cast<std::uint32_t>(id);
    }
  });
  covered_ = end;
}

void IncidenceList::append(VertexId x, std::uint32_t id) {
  std::uint32_t& head = tail_[x];
  if (head == kNoChunk || chunks_[head].count == std::size(chunks_[head].ids)) {
    chunks_.push_back(Chunk{head, 0, {}});
    head = static_cast<std::uint32_t>(chunks_.size() - 1);
  }
  Chunk& c = chunks_[head];
  c.ids[c.count++] = id;
}

}  // namespace smp::dynamic
