#include "graph/flex_adj_list.hpp"

#include <numeric>

#include "pprim/parallel_for.hpp"

namespace smp::graph {

FlexAdjList::FlexAdjList(const CsrGraph& csr)
    : FlexAdjList(csr.num_vertices(), csr.offsets()) {}

FlexAdjList::FlexAdjList(VertexId n, std::span<const EdgeId> offsets)
    : offsets_(offsets), num_super_(n) {
  label_.resize(n);
  std::iota(label_.begin(), label_.end(), VertexId{0});
  live_end_.assign(offsets.begin() + 1, offsets.end());
}

EdgeId FlexAdjList::live_arcs() const {
  EdgeId total = 0;
  for (std::size_t x = 0; x < live_end_.size(); ++x) {
    total += live_end_[x] - offsets_[x];
  }
  return total;
}

void FlexAdjList::contract(ThreadTeam& team, std::span<const VertexId> new_label,
                           VertexId new_n) {
  team.run([&](TeamCtx& ctx) { contract(ctx, new_label, new_n); });
}

void FlexAdjList::contract(TeamCtx& ctx, std::span<const VertexId> new_label,
                           VertexId new_n) {
  // Original vertex → new supervertex; each x reads and writes only its own
  // entry, so one pass and the trailing barrier suffice.
  for_range(ctx, label_.size(), [&](std::size_t x) {
    label_[x] = new_label[label_[x]];
  });
  if (ctx.tid() == 0) num_super_ = new_n;
  ctx.barrier();
}

}  // namespace smp::graph
