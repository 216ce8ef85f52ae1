#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/find_min.hpp"
#include "graph/types.hpp"
#include "pprim/thread_team.hpp"

namespace smp::core {

/// The library's one weight sort: it puts edges in WeightOrder,
/// ⟨monotone_weight_bits(w), input id⟩, as a bucketed sample sort (the
/// light pass of Sanders and Schimek's Filter-Borůvka).  Champion's light
/// pass sorts its light edges with it, and every weight rank (the packed
/// prologue, build_weight_ranks, the Dendrogram) comes from it.
///
///   1. pick_split: from a fixed strided sample of the edges, the pivot —
///      the sort takes the edges ≤ it — and the splitters of a power-of-two
///      number of weight buckets, about kSortBucketEdges taken edges each.
///      Buckets split on weight bits alone, so every tie class falls in one
///      bucket.
///   2. gather_buckets: one walk over the input on the team stages the
///      taken edges into their buckets, each bucket in ascending id order.
///   3. sort_buckets: in one region the team claims buckets in weight order
///      and sorts each in cache into its place in the output.  With a
///      consumer, tid 0 walks the buckets in order and hands each to it as
///      soon as it is sorted, sorting any bucket nobody has claimed yet;
///      without one, every thread claims buckets.
///
/// sort_by_weight runs the three steps over every edge.

/// An edge's place in WeightOrder as integers.
using OrderKey = std::pair<std::uint64_t, graph::EdgeId>;

/// One taken edge as the walk stages it and the buckets hold it.
struct SortEdge {
  std::uint64_t bits;  // monotone_weight_bits(w)
  std::uint64_t ends;  // pack_ends(u, v)
  std::uint32_t id;    // input id (< 2^32)
  std::uint32_t bucket;
};

/// Step 1's output: the pivot, and the splitters that cut the taken edges
/// into B weight buckets.
struct WeightSplit {
  /// An edge is taken iff ⟨monotone_weight_bits(w), id⟩ ≤ pivot.
  OrderKey pivot;
  /// B entries, B a power of two: bound[j] for j ≥ 1 is the least weight
  /// bits bucket j takes (bound[0] is never read).  Non-decreasing, so a
  /// repeated splitter leaves the buckets between its copies empty.
  std::vector<std::uint64_t> bound;

  [[nodiscard]] std::size_t buckets() const { return bound.size(); }

  /// 1 if the edge is taken, else 0 (no branch).
  [[nodiscard]] std::size_t takes(std::uint64_t bits, graph::EdgeId e) const {
    return static_cast<std::size_t>((bits < pivot.first) |
                                    ((bits == pivot.first) & (e <= pivot.second)));
  }

  /// Sets each edge's bucket to the number of splitters ≤ its weight bits.
  /// log₂ B branchless steps over an L1-resident array, for several edges
  /// at a time so that their searches overlap.  Adds the edges of each
  /// bucket j to count[j].
  void assign_buckets(std::span<SortEdge> edges, std::uint32_t* count) const;
};

/// The pivot is the sampled edge whose sample rank matches `target` of m
/// edges; target = m takes every edge.  The sorted taken part of the sample
/// gives the splitters.  With no edge to sample there is one bucket.
/// `w_at(e)` is edge e's weight.
[[nodiscard]] WeightSplit pick_split(
    std::size_t m, std::size_t target,
    const std::function<graph::Weight(graph::EdgeId)>& w_at);

/// The taken edges, bucketed per walk block: block b's edges start at
/// block_edges[b], grouped by bucket, each group in ascending id order.
/// Bucket j's edges in ascending id order are therefore the slices (b, j)
/// for b = 0, 1, ... in turn, and `begin` places each bucket in the sorted
/// order: bucket j takes [begin[j], begin[j + 1]).  The blocks share one
/// buffer sized from the target; a block that finds it full holds its
/// edges in an allocation of its own.
struct WeightBuckets {
  std::size_t blocks = 0;
  std::size_t nb = 0;  // buckets
  std::unique_ptr<SortEdge[]> buffer;
  std::vector<std::unique_ptr<SortEdge[]>> spill;  // per block, if needed
  std::vector<const SortEdge*> block_edges;
  /// blocks rows of nb + 1 offsets: slice (b, j) is
  /// [slice[b(nb + 1) + j], slice[b(nb + 1) + j + 1]) from block_edges[b].
  std::unique_ptr<std::uint32_t[]> slice;
  std::vector<std::size_t> begin;

  [[nodiscard]] std::size_t size() const { return begin.back(); }
  [[nodiscard]] std::size_t bucket_size(std::size_t j) const {
    return begin[j + 1] - begin[j];
  }
  /// fn(first, count) for each non-empty slice of bucket j, in block order.
  template <class Fn>
  void for_each_slice(std::size_t j, Fn&& fn) const {
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::uint32_t* const row = slice.get() + b * (nb + 1);
      if (row[j + 1] > row[j]) fn(block_edges[b] + row[j], row[j + 1] - row[j]);
    }
  }
};

/// Writes the taken edges of the walk block [begin, end) to out, in
/// ascending id order and with `bucket` unset, and returns how many.
using StageBlock =
    std::function<std::size_t(graph::EdgeId begin, graph::EdgeId end, SortEdge* out)>;

/// Step 2 over a block stage: one walk on the team (on the calling thread
/// alone for an input of one walk block, 2^16 edges).  Each claimed block
/// is staged in the thread's slab, bucketed, and written to the buffer
/// grouped by bucket; a (bucket, block)-ordered scan of the per-block
/// counts then places every bucket.  Fork-join.
[[nodiscard]] WeightBuckets gather_staged(ThreadTeam& team, std::size_t m,
                                          std::size_t target,
                                          const WeightSplit& split,
                                          const StageBlock& stage);

/// Step 2 over an edge walk: `walk(begin, end, fn)` calls fn(e, edge) for
/// every edge e in [begin, end) in ascending order.  The block stage keeps
/// the edges `split` takes with no branch on the test.
template <class Walk>
[[nodiscard]] WeightBuckets gather_buckets(ThreadTeam& team, std::size_t m,
                                           std::size_t target,
                                           const WeightSplit& split, Walk walk) {
  return gather_staged(
      team, m, target, split,
      [&](graph::EdgeId begin, graph::EdgeId end, SortEdge* out) {
        std::size_t k = 0;
        walk(begin, end, [&](graph::EdgeId e, const graph::WEdge& edge) {
          const std::uint64_t bits = monotone_weight_bits(edge.w);
          out[k] = {bits, pack_ends(edge.u, edge.v), static_cast<std::uint32_t>(e), 0};
          k += split.takes(bits, e);
        });
        return k;
      });
}

/// Where sort_buckets writes the sorted edges: position i holds the
/// pack_ends word of the i-th taken edge in WeightOrder in ends[i] (unless
/// ends is null) and its input id in ids[i].
struct SortedEdges {
  std::uint64_t* ends = nullptr;
  std::uint32_t* ids = nullptr;
};

/// consume(begin, end): the sorted positions [begin, end) of one bucket.
using BucketConsumer = std::function<void(std::size_t begin, std::size_t end)>;

/// Step 3: the bucket sorts, in one region on the team (on the calling
/// thread alone when there is one bucket), each bucket sorted in cache into
/// its place in `out`.  Without a consumer every thread
/// claims buckets from a shared cursor in weight order.  With one, the
/// helpers claim buckets and publish each sorted one with a release flag,
/// while tid 0 walks the buckets in order: it sorts a bucket nobody has
/// claimed yet, waits for a claimed one, and calls consume on it — so
/// consume sees every bucket once, in weight order, on one thread, while
/// later buckets are still being sorted.  A fault on any thread stops the
/// claiming and run() rethrows it once every thread has left the region;
/// tid 0 leaves its walk when a helper's sort fails.
void sort_buckets(ThreadTeam& team, const WeightBuckets& in, SortedEdges out,
                  const BucketConsumer& consume = {});

/// All three steps over every edge: the m edges of `walk` (see
/// gather_buckets), `w_at(e)` edge e's weight, sorted into out[0, m).
/// Fork-join.
template <class WeightAt, class Walk>
void sort_by_weight(ThreadTeam& team, std::size_t m, WeightAt w_at, Walk walk,
                    SortedEdges out, const BucketConsumer& consume = {}) {
  const WeightSplit split =
      pick_split(m, m, [&](graph::EdgeId e) -> graph::Weight { return w_at(e); });
  const WeightBuckets buckets = gather_buckets(team, m, m, split, walk);
  sort_buckets(team, buckets, out, consume);
}

}  // namespace smp::core
