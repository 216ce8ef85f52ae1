#include "core/champion.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/bor_fal_packed.hpp"
#include "core/detail.hpp"
#include "core/find_min.hpp"
#include "graph/compressed_csr.hpp"
#include "pprim/cacheline.hpp"
#include "pprim/fault.hpp"
#include "pprim/huge_pages.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/partition.hpp"
#include "pprim/prefix_sum.hpp"
#include "pprim/timer.hpp"
#include "seq/union_find.hpp"

namespace smp::core {

using graph::CompressedCsr;
using graph::EdgeId;
using graph::EdgeList;
using graph::MsfResult;
using graph::VertexId;
using graph::WEdge;
using graph::Weight;

namespace {

/// Strided sample size for the pivot pick.  Its rank error (about one over
/// the square root of the sampled light count) moves the light set by a
/// percent or so; the pick itself is one nth_element.
constexpr std::size_t kPivotSamples = std::size_t{1} << 14;

/// Light edges per weight bucket the splitters aim at: a bucket and its
/// sort scratch (about 40 bytes an edge) stay in a core's L2.
constexpr std::size_t kBucketEdges = 4096;

/// At most one bucket per this many light samples, so that sampling noise
/// cannot leave most buckets empty and a few oversized.
constexpr std::size_t kSamplesPerBucket = 4;

/// Most input edges in one block of the light walk: each block's light
/// edges are staged per thread and bucketed in cache before they reach
/// the buffer.
constexpr std::size_t kWalkBlockEdges = std::size_t{1} << 16;

/// An edge's place in the light scan's order: WeightOrder as integers.
using OrderKey = std::pair<std::uint64_t, EdgeId>;

/// One light edge as the walk buffers it and the buckets hold it.
struct LightEdge {
  std::uint64_t bits;  // monotone_weight_bits(w)
  std::uint64_t ends;  // pack_ends(u, v)
  std::uint32_t id;    // input id (< 2^31, validate_edge_count)
  std::uint32_t bucket;
};

/// Step 1's output: the pivot, and the splitters that cut the light edges
/// into B weight buckets of about kBucketEdges edges each.
struct LightSplit {
  /// An edge is light iff ⟨monotone_weight_bits(w), id⟩ ≤ pivot.
  OrderKey pivot;
  /// B entries, B a power of two: bound[j] for j ≥ 1 is the least weight
  /// bits bucket j takes (bound[0] is never read).  Non-decreasing, so a
  /// repeated splitter leaves the buckets between its copies empty.
  std::vector<std::uint64_t> bound;

  [[nodiscard]] std::size_t buckets() const { return bound.size(); }

  /// Sets each edge's bucket to the number of splitters ≤ its weight bits:
  /// buckets split on weight bits alone, so every tie class falls in one
  /// bucket.  log₂ B branchless steps over an L1-resident array, for
  /// kSearchLanes edges at a time so that their searches overlap.  Adds
  /// the edges of each bucket j to count[j].
  void assign_buckets(std::span<LightEdge> edges, std::uint32_t* count) const;
};

/// The pivot is the sampled edge whose sample rank matches `target` of m;
/// the sorted light part of the sample gives the splitters.  With no edge
/// to sample any pivot splits the empty edge set, so it is ⟨0, 0⟩, and
/// there is one bucket.
template <class WeightAt>
LightSplit pick_split(std::size_t m, std::size_t target, WeightAt w_at) {
  LightSplit split;
  split.bound.assign(1, 0);
  const std::size_t s = std::min(m, kPivotSamples);
  if (s == 0) return split;
  std::vector<OrderKey> sample(s);
  for (std::size_t i = 0; i < s; ++i) {
    const EdgeId e = i * m / s;
    sample[i] = {monotone_weight_bits(w_at(e)), e};
  }
  const auto nth = sample.begin() + static_cast<std::ptrdiff_t>(target * s / m);
  std::nth_element(sample.begin(), nth, sample.end());
  split.pivot = *nth;
  std::sort(sample.begin(), nth + 1);
  const auto light = static_cast<std::size_t>(nth - sample.begin()) + 1;
  const std::size_t b = std::bit_floor(std::max<std::size_t>(
      1, std::min(target / kBucketEdges, light / kSamplesPerBucket)));
  split.bound.resize(b);
  for (std::size_t j = 1; j < b; ++j) split.bound[j] = sample[j * light / b].first;
  return split;
}

/// Independent bucket searches LightSplit::assign_buckets interleaves.
constexpr std::size_t kSearchLanes = 8;

void LightSplit::assign_buckets(std::span<LightEdge> edges,
                                std::uint32_t* count) const {
  const std::uint64_t* const b = bound.data();
  const std::size_t half = bound.size() / 2;
  std::size_t i = 0;
  for (; i + kSearchLanes <= edges.size(); i += kSearchLanes) {
    std::size_t j[kSearchLanes] = {};
    for (std::size_t step = half; step > 0; step /= 2) {
      for (std::size_t l = 0; l < kSearchLanes; ++l) {
        j[l] += b[j[l] + step] <= edges[i + l].bits ? step : 0;
      }
    }
    for (std::size_t l = 0; l < kSearchLanes; ++l) {
      edges[i + l].bucket = static_cast<std::uint32_t>(j[l]);
      ++count[j[l]];
    }
  }
  for (; i < edges.size(); ++i) {
    std::size_t j = 0;
    for (std::size_t step = half; step > 0; step /= 2) {
      j += b[j + step] <= edges[i].bits ? step : 0;
    }
    edges[i].bucket = static_cast<std::uint32_t>(j);
    ++count[j];
  }
}

/// One gathered sub-solve: edges over `n` vertices as flat arrays, with
/// their input ids in ascending order.  The arrays are never zero-filled:
/// the gather writes every slot.
struct SubGraph {
  VertexId n = 0;
  std::size_t m = 0;
  std::unique_ptr<std::uint64_t[]> ends;  // pack_ends(u, v)
  std::unique_ptr<Weight[]> w;
  std::unique_ptr<EdgeId[]> ids;

  void allocate(std::size_t count) {
    m = count;
    ends = make_huge_for_overwrite<std::uint64_t>(m);
    w = make_huge_for_overwrite<Weight>(m);
    ids = make_huge_for_overwrite<EdgeId>(m);
  }
  void put(std::size_t at, EdgeId e, const WEdge& edge) {
    ends[at] = pack_ends(edge.u, edge.v);
    w[at] = edge.w;
    ids[at] = e;
  }
};

/// Team-parallel ordered gather of a sparse keep set whose test is the
/// expensive part: every edge for which keep(e, edge, out) returns true
/// lands in the sub-graph as `out`, in ascending id order.  One walk per
/// block into a per-block buffer, then a scan and a copy, so each edge is
/// tested once.  Fork-join.
template <class Walk, class Keep>
SubGraph gather_sparse(ThreadTeam& team, VertexId n, std::size_t m, Walk walk,
                       Keep keep) {
  SubGraph sub;
  sub.n = n;
  const std::size_t blocks = dynamic_block_count(m, team.size());
  std::vector<std::vector<std::pair<EdgeId, WEdge>>> kept(blocks);
  std::vector<std::size_t> at(blocks);
  std::atomic<std::size_t> test_cursor{0};
  std::atomic<std::size_t> copy_cursor{0};
  team.run([&](TeamCtx& ctx) {
    WEdge out;
    for_range_dynamic(ctx, test_cursor, blocks, 1, [&](std::size_t b) {
      const IndexRange r = dynamic_block(m, b, blocks);
      std::vector<std::pair<EdgeId, WEdge>> mine;
      walk(EdgeId{r.begin}, EdgeId{r.end}, [&](EdgeId e, const WEdge& edge) {
        if (keep(e, edge, out)) mine.emplace_back(e, out);
      });
      at[b] = mine.size();
      kept[b] = std::move(mine);
    });
    ctx.barrier();
    if (ctx.tid() == 0) sub.allocate(exclusive_scan_seq(std::span<std::size_t>(at)));
    ctx.barrier();
    for_range_dynamic(ctx, copy_cursor, blocks, 1, [&](std::size_t b) {
      std::size_t pos = at[b];
      for (const auto& [e, edge] : kept[b]) sub.put(pos++, e, edge);
    });
  });
  return sub;
}

/// The survivor pass over a sub-graph: its rank sort and arc build, then
/// the Borůvka loop.  Returns the forest as input ids.
std::vector<EdgeId> engine_pass(ThreadTeam& team, const SubGraph& sub,
                                const MsfOptions& opts, StepTimes& st) {
  PackedSolveInput in = build_packed_input(
      team, sub.n, std::span<const std::uint64_t>(sub.ends.get(), sub.m),
      std::span<const Weight>(sub.w.get(), sub.m), st);
  std::vector<EdgeId> ids = bor_fal_packed_engine(team, std::move(in), opts, st);
  for (EdgeId& id : ids) id = sub.ids[id];
  return ids;
}

/// The light edges, bucketed per walk block: block b's light edges start at
/// block_edges[b], grouped by bucket, each group in ascending id order.
/// Bucket j's edges in ascending id order are therefore the slices (b, j)
/// for b = 0, 1, ... in turn, and `begin` places each bucket in the sorted
/// order: bucket j takes [begin[j], begin[j + 1]).  The blocks share one
/// buffer sized from the light target; a block that finds it full holds
/// its edges in an allocation of its own.
struct LightBuckets {
  std::size_t blocks = 0;
  std::size_t nb = 0;  // buckets
  std::unique_ptr<LightEdge[]> buffer;
  std::vector<std::unique_ptr<LightEdge[]>> spill;  // per block, if needed
  std::vector<const LightEdge*> block_edges;
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

/// Step 2: one walk over the input on the team.  Each claimed block stages
/// every edge in the thread's slab and keeps the light ones (no branch on
/// the light test), buckets them, claims room for them in one buffer and
/// writes them there grouped by bucket.  A (bucket, block)-ordered scan of
/// the per-block counts then places every bucket.  The walk visits the
/// edges of a block in ascending id order, so every slice is in ascending
/// id order.  Fork-join.
template <class Walk>
LightBuckets gather_light(ThreadTeam& team, std::size_t m, std::size_t target,
                          const LightSplit& split, Walk walk) {
  const int p = team.size();
  LightBuckets out;
  out.nb = split.buckets();
  out.blocks = std::max(dynamic_block_count(m, p),
                        (m + kWalkBlockEdges - 1) / kWalkBlockEdges);
  const std::size_t nb = out.nb;
  const std::size_t blocks = out.blocks;
  const std::size_t slab = (m + blocks - 1) / blocks;  // ≥ every block's size
  auto stage = make_huge_for_overwrite<LightEdge>(static_cast<std::size_t>(p) * slab);
  // The light count misses the target by the pivot sample's rank error, a
  // few percent; only an input whose weights the strided sample misreads
  // spills.
  const std::size_t capacity = std::min(m, target + target / 8 + slab);
  out.buffer = make_huge_for_overwrite<LightEdge>(capacity);
  out.spill.resize(blocks);
  out.block_edges.resize(blocks);
  out.slice = std::make_unique_for_overwrite<std::uint32_t[]>(blocks * (nb + 1));
  out.begin.resize(nb + 1);
  std::vector<Padded<std::size_t>> partial(static_cast<std::size_t>(p));
  std::atomic<std::size_t> walk_cursor{0};
  std::atomic<std::size_t> fill{0};
  const std::uint64_t pivot_bits = split.pivot.first;
  const EdgeId pivot_id = split.pivot.second;

  team.run([&](TeamCtx& ctx) {
    const auto t = static_cast<std::size_t>(ctx.tid());
    LightEdge* const mine = stage.get() + t * slab;
    std::vector<std::uint32_t> pos(nb);
    for_range_dynamic(ctx, walk_cursor, blocks, 1, [&](std::size_t b) {
      const IndexRange r = dynamic_block(m, b, blocks);
      std::size_t k = 0;
      walk(EdgeId{r.begin}, EdgeId{r.end}, [&](EdgeId e, const WEdge& edge) {
        const std::uint64_t bits = monotone_weight_bits(edge.w);
        mine[k] = {bits, pack_ends(edge.u, edge.v), static_cast<std::uint32_t>(e), 0};
        k += static_cast<std::size_t>((bits < pivot_bits) |
                                      ((bits == pivot_bits) & (e <= pivot_id)));
      });
      std::uint32_t* const row = out.slice.get() + b * (nb + 1);
      std::fill(row, row + nb + 1, 0);
      split.assign_buckets({mine, k}, row + 1);
      for (std::size_t j = 0; j < nb; ++j) row[j + 1] += row[j];
      const std::size_t at = fill.fetch_add(k, std::memory_order_relaxed);
      LightEdge* dst = out.buffer.get() + at;
      if (at + k > capacity) {
        out.spill[b] = std::make_unique_for_overwrite<LightEdge[]>(k);
        dst = out.spill[b].get();
      }
      out.block_edges[b] = dst;
      std::copy(row, row + nb, pos.begin());
      for (std::size_t i = 0; i < k; ++i) dst[pos[mine[i].bucket]++] = mine[i];
    });
    ctx.barrier();

    // Each thread sums one bucket range across all blocks, then (behind a
    // barrier) takes its exclusive base from the lower ranges.
    const IndexRange br = block_range(nb, ctx.tid(), p);
    std::vector<std::size_t>& begin = out.begin;
    std::size_t sum = 0;
    for (std::size_t j = br.begin; j < br.end; ++j) {
      std::size_t size = 0;
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::uint32_t* const row = out.slice.get() + b * (nb + 1);
        size += row[j + 1] - row[j];
      }
      begin[j] = size;
      sum += size;
    }
    partial[t].value = sum;
    ctx.barrier();
    std::size_t run = 0;
    for (std::size_t t2 = 0; t2 < t; ++t2) run += partial[t2].value;
    for (std::size_t j = br.begin; j < br.end; ++j) {
      const std::size_t size = begin[j];
      begin[j] = run;
      run += size;
    }
    if (ctx.tid() == p - 1) begin[nb] = run;
  });
  return out;
}

/// The light edges in WeightOrder as the scan reads them: the endpoints and
/// input id of the edge at each position, bucket j at
/// [LightBuckets::begin[j], LightBuckets::begin[j + 1]).
struct LightOrder {
  std::unique_ptr<std::uint64_t[]> ends;
  std::unique_ptr<std::uint32_t[]> ids;
};

/// Varying weight bits a bucket sort keys on; lower varying bits only
/// break ties between keys, in the sort's fix-up.
constexpr int kBucketKeyBits = 24;

/// Sorts one bucket into its place in the LightOrder, in cache.  It gathers
/// the bucket's slices (ascending id order) and sorts 8-byte elements: the
/// highest kBucketKeyBits of the weight bits that vary inside the bucket,
/// above the edge's position in the gather.  A stable LSD radix sort runs
/// one pass per byte of that key, skipping constant bytes, so equal keys
/// stay in position order, which is id order.  Where the key dropped low
/// varying bits, each run of equal keys is then put in ⟨weight bits, id⟩
/// order by a comparison sort; runs are short unless they are one tie
/// class, which is already in order.  One per thread: the scratch grows
/// to the largest bucket the thread sorts.
class BucketSorter {
 public:
  void sort(const LightBuckets& in, std::size_t j, LightOrder& order) {
    const std::size_t len = in.bucket_size(j);
    if (len == 0) return;
    if (bits_.size() < len) {
      bits_.resize(len);
      keys_.resize(len);
      aux_.resize(len);
      ends_.resize(len);
      ids_.resize(len);
    }
    std::uint64_t acc_or = 0;
    std::uint64_t acc_and = ~std::uint64_t{0};
    std::size_t at = 0;
    in.for_each_slice(j, [&](const LightEdge* first, std::size_t count) {
      for (std::size_t i = 0; i < count; ++i, ++at) {
        bits_[at] = first[i].bits;
        ends_[at] = first[i].ends;
        ids_[at] = first[i].id;
        acc_or |= first[i].bits;
        acc_and &= first[i].bits;
      }
    });

    // The key: the varying bits [low, high) of the weight bits, cut to
    // their highest kBucketKeyBits.
    const std::uint64_t varying = acc_or ^ acc_and;
    const int low = varying == 0 ? 0 : std::countr_zero(varying);
    const int high = 64 - std::countl_zero(varying);
    const int key_bits = std::min(high - low, kBucketKeyBits);
    const int drop = high - key_bits;
    const int pos_bits = std::bit_width(len - 1);
    const std::uint64_t pos_mask = (std::uint64_t{1} << pos_bits) - 1;
    const std::uint64_t key_mask = (std::uint64_t{1} << key_bits) - 1;
    const int digits = (key_bits + 7) / 8;
    std::uint32_t hist[kBucketKeyBits / 8][256] = {};
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t k = ((bits_[i] >> drop) & key_mask) << pos_bits | i;
      keys_[i] = k;
      for (int d = 0; d < digits; ++d) ++hist[d][(k >> (pos_bits + 8 * d)) & 0xff];
    }
    std::uint64_t* src = keys_.data();
    std::uint64_t* dst = aux_.data();
    for (int d = 0; d < digits; ++d) {
      const int shift = pos_bits + 8 * d;
      std::uint32_t* const h = hist[d];
      if (h[(src[0] >> shift) & 0xff] == len) continue;  // constant byte
      std::uint32_t run = 0;
      for (int v = 0; v < 256; ++v) {
        const std::uint32_t c = h[v];
        h[v] = run;
        run += c;
      }
      for (std::size_t i = 0; i < len; ++i) dst[h[(src[i] >> shift) & 0xff]++] = src[i];
      std::swap(src, dst);
    }
    if (drop > low) {
      const auto before = [&](std::uint64_t a, std::uint64_t b) {
        const std::uint64_t ba = bits_[a & pos_mask];
        const std::uint64_t bb = bits_[b & pos_mask];
        return ba != bb ? ba < bb : a < b;
      };
      for (std::size_t i = 0; i < len;) {
        std::size_t e = i + 1;
        while (e < len && (src[e] >> pos_bits) == (src[i] >> pos_bits)) ++e;
        if (e - i > 1 && !std::is_sorted(src + i, src + e, before)) {
          std::sort(src + i, src + e, before);
        }
        i = e;
      }
    }
    std::uint64_t* const out_ends = order.ends.get() + in.begin[j];
    std::uint32_t* const out_ids = order.ids.get() + in.begin[j];
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t from = src[i] & pos_mask;
      out_ends[i] = ends_[from];
      out_ids[i] = ids_[from];
    }
  }

 private:
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> aux_;
  std::vector<std::uint64_t> ends_;
  std::vector<std::uint32_t> ids_;
};

/// Scanned edges between two budget checks of the light scan.
constexpr std::size_t kLightScanCheckEvery = std::size_t{1} << 16;

/// How many edges ahead the light scan prefetches the parent slots of an
/// edge's endpoints: the slots are random reads into an n-word array.
constexpr std::size_t kLightScanPrefetch = 16;

/// A bucket's state in the light pass's sort-and-scan region.
enum BucketState : std::uint32_t { kUnsorted, kSorted, kSortFailed };

/// Step 3: Kruskal over the light buckets, in one region on the team.
/// Helpers claim buckets in weight order from a shared cursor, sort each in
/// cache into its place in the LightOrder and publish it with a release
/// flag.  tid 0 walks the buckets in order: it sorts a bucket nobody has
/// claimed yet, waits for a claimed one, and runs one sequential union-find
/// scan over it — an edge that joins two sets is a light MSF edge.  Returns
/// those edges as input ids and leaves in `label` one dense label in
/// [0, n − picks) per light component.  A budget trip or fault on tid 0
/// sets `stop`, so the helpers stop claiming, and run() rethrows it once
/// every thread has left the region; a failed helper sort marks its bucket
/// and sets `stop` too, and tid 0 then leaves the region for run() to
/// rethrow the helper's error.
std::vector<EdgeId> light_scan(ThreadTeam& team, VertexId n, const LightBuckets& light,
                               const MsfOptions& opts, std::vector<VertexId>& label) {
  const std::size_t nb = light.nb;
  LightOrder order;
  order.ends = make_huge_for_overwrite<std::uint64_t>(light.size());
  order.ids = make_huge_for_overwrite<std::uint32_t>(light.size());
  auto state = std::make_unique<std::atomic<std::uint32_t>[]>(nb);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> stop{false};
  seq::MinRootUnionFind uf(n);
  std::vector<EdgeId> ids;
  reserve_huge(ids, std::min<std::size_t>(light.size(), n));

  team.run([&](TeamCtx& ctx) {
    BucketSorter sorter;
    const auto sort_claimed = [&](std::size_t j) {
      try {
        sorter.sort(light, j, order);
      } catch (...) {
        stop.store(true, std::memory_order_relaxed);
        state[j].store(kSortFailed, std::memory_order_release);
        state[j].notify_all();
        throw;
      }
      state[j].store(kSorted, std::memory_order_release);
      state[j].notify_all();
    };
    if (ctx.tid() != 0) {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t j = cursor.fetch_add(1, std::memory_order_relaxed);
        if (j >= nb) break;
        sort_claimed(j);
      }
      return;
    }
    try {
      for (std::size_t j = 0; j < nb; ++j) {
        std::uint32_t s;
        while ((s = state[j].load(std::memory_order_acquire)) == kUnsorted) {
          if (stop.load(std::memory_order_relaxed)) return;
          // Every bucket below j was claimed, so the cursor is at j exactly
          // when j is still unclaimed; fetch_add may return a later bucket
          // if a helper took j meanwhile, and that one is sorted here too.
          if (cursor.load(std::memory_order_relaxed) <= j) {
            const std::size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
            if (k < nb) sort_claimed(k);
          } else {
            state[j].wait(kUnsorted, std::memory_order_acquire);
          }
        }
        if (s == kSortFailed) return;
        const std::uint64_t* const ends = order.ends.get();
        const std::size_t end = light.begin[j + 1];
        for (std::size_t i = light.begin[j]; i < end; ++i) {
          if (i % kLightScanCheckEvery == 0) {
            fault_point("champion.light-scan");
            iteration_checkpoint(opts, "Champion light scan");
          }
          if (i + kLightScanPrefetch < end) {
            const std::uint64_t ahead = ends[i + kLightScanPrefetch];
            uf.prefetch(static_cast<VertexId>(ahead >> 32));
            uf.prefetch(static_cast<VertexId>(ahead));
          }
          if (uf.unite(static_cast<VertexId>(ends[i] >> 32),
                       static_cast<VertexId>(ends[i]))) {
            ids.push_back(order.ids[i]);
          }
        }
      }
    } catch (...) {
      stop.store(true, std::memory_order_relaxed);
      throw;
    }
  });
  label = std::move(uf).dense_labels();
  return ids;
}

/// Champion's five steps (champion.hpp) over any edge source: `w_at(e)` is
/// edge e's weight, `walk(begin, end, fn)` calls fn(e, edge) for every edge
/// e in [begin, end) in ascending order.
template <class WeightAt, class Walk>
MsfResult filtered_solve(ThreadTeam& team, VertexId n, std::size_t m,
                         WeightAt w_at, Walk walk, const MsfOptions& opts) {
  StepTimes st;
  WallTimer wall;
  WallTimer phase;

  // 1–2. Pivot and splitters, then the bucketed light gather.
  const std::size_t target = champion_light_target(n, m);
  const LightSplit split = pick_split(m, target, w_at);
  LightBuckets light = gather_light(team, m, target, split, walk);
  st.filter += phase.elapsed_s();

  // 3. Light pass: the bucket sorts and the Kruskal scan, in one region.
  phase.reset();
  std::vector<VertexId> label;
  std::vector<EdgeId> ids = light_scan(team, n, light, opts, label);
  st.connect += phase.elapsed_s();
  light = LightBuckets{};
  iteration_checkpoint(opts, "Champion filter");

  // 4. Survivor filter: light edges never survive (their endpoints share a
  // light component), so the label test alone drops every filtered edge.
  phase.reset();
  fault_point("champion.filter");
  SubGraph sub = gather_sparse(team, static_cast<VertexId>(n - ids.size()), m, walk,
                               [&](EdgeId, const WEdge& edge, WEdge& out) {
                                 out = WEdge{label[edge.u], label[edge.v], edge.w};
                                 return out.u != out.v;
                               });
  std::vector<VertexId>().swap(label);
  st.filter += phase.elapsed_s();

  // 5. Survivor pass, then one assembly over both id sets.
  const std::vector<EdgeId> heavy_ids = engine_pass(team, sub, opts, st);
  ids.insert(ids.end(), heavy_ids.begin(), heavy_ids.end());
  sub = SubGraph{};
  phase.reset();
  MsfResult res = detail::assemble_result(team, n, m, std::move(ids), walk);
  st.assembly += phase.elapsed_s();

  // `other` takes everything outside the timed steps: the filter, the
  // survivor prologue, the assembly and the checkpoints.
  st.other += wall.elapsed_s() - st.total();
  if (opts.step_times) *opts.step_times += st;
  return res;
}

}  // namespace

std::size_t champion_light_target(VertexId n, std::size_t m) {
  return std::min(
      static_cast<std::size_t>(kChampionLightPerVertex * static_cast<double>(n)),
      15 * m / 16);
}

MsfResult champion_msf(ThreadTeam& team, const EdgeList& g,
                       const MsfOptions& opts) {
  return filtered_solve(
      team, g.num_vertices, g.edges.size(), [&](EdgeId e) { return g.edges[e].w; },
      [&](EdgeId begin, EdgeId end, auto&& fn) {
        for (EdgeId e = begin; e < end; ++e) fn(e, g.edges[e]);
      },
      opts);
}

MsfResult champion_msf(ThreadTeam& team, const CompressedCsr& g,
                       const MsfOptions& opts) {
  const Weight* const weights = g.weights();
  return filtered_solve(
      team, g.num_vertices(), g.num_edges(), [&](EdgeId e) { return weights[e]; },
      [&](EdgeId begin, EdgeId end, auto&& fn) {
        g.for_each_edge(begin, end, [&](EdgeId e, VertexId u, VertexId v, Weight w) {
          fn(e, WEdge{u, v, w});
        });
      },
      opts);
}

}  // namespace smp::core
