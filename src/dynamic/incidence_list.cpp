#include "dynamic/incidence_list.hpp"

#include <iterator>

namespace smp::dynamic {

using graph::EdgeId;
using graph::VertexId;
using graph::WEdge;

void IncidenceList::sync(ThreadTeam& team, const EdgeStore& store, EdgeId end) {
  const bool built = start_ != nullptr;
  if (built && end == covered_) return;
  try {
    const auto more = 2 * static_cast<std::size_t>(end - covered_);
    if (!built || tail_arcs_ + more > csr_arcs_) {
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
  start_ = nullptr;
  arcs_ = nullptr;
  csr_arcs_ = 0;
  tail_ = {};
  chunks_ = {};
  tail_arcs_ = 0;
  covered_ = 0;
}

void IncidenceList::build(ThreadTeam& team, const EdgeStore& store, EdgeId end) {
  clear();
  const auto n = static_cast<std::size_t>(store.num_vertices());
  const auto m = static_cast<std::size_t>(end);
  // Every offset and arc is written in the region before anything reads it.
  start_ = make_huge_for_overwrite<std::size_t>(n + 1);
  arcs_ = make_huge_for_overwrite<std::uint32_t>(2 * m);
  tail_.assign(n, kNoChunk);
  build_team_csr(
      team, n, m, start_.get(),
      [&](std::size_t id) -> const WEdge& { return store.edge(id); },
      [&](std::size_t at, std::size_t id, const WEdge&, VertexId) {
        arcs_[at] = static_cast<std::uint32_t>(id);
      });
  csr_arcs_ = 2 * m;
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
