#include "graph/flex_adj_list.hpp"

#include <numeric>

#include "pprim/parallel_for.hpp"

namespace smp::graph {

FlexAdjList::FlexAdjList(VertexId n) : num_super_(n), label_(n) {
  std::iota(label_.begin(), label_.end(), VertexId{0});
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
