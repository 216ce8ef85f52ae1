#include "core/weight_sort.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "pprim/cacheline.hpp"
#include "pprim/fault.hpp"
#include "pprim/huge_pages.hpp"
#include "pprim/parallel_for.hpp"
#include "pprim/partition.hpp"

namespace smp::core {

using graph::EdgeId;

namespace {

/// Strided sample size for the pivot and the splitters.  Its rank error
/// (about one over the square root of the sampled count) moves the taken
/// set by a percent or so; the pivot pick itself is one nth_element.
constexpr std::size_t kSortSamples = std::size_t{1} << 14;

/// Taken edges per weight bucket the splitters aim at: a bucket and its
/// sort scratch (about 40 bytes an edge) stay in a core's L2.
constexpr std::size_t kSortBucketEdges = 4096;

/// At most one bucket per this many taken samples, so that sampling noise
/// cannot leave most buckets empty and a few oversized.
constexpr std::size_t kSamplesPerBucket = 4;

/// Samples per bucket a sort of every edge draws, up to kSortSamples: its
/// sample only places the splitters, and sorting more of it costs more
/// than the bucket sizes it evens out.
constexpr std::size_t kAllEdgeSamplesPerBucket = 16;

/// Most input edges in one block of the walk: each block's taken edges are
/// staged per thread and bucketed in cache before they reach the buffer.
constexpr std::size_t kWalkBlockEdges = std::size_t{1} << 16;

/// Independent bucket searches WeightSplit::assign_buckets interleaves.
constexpr std::size_t kSearchLanes = 8;

/// Varying weight bits a bucket sort keys on; lower varying bits only
/// break ties between keys, in the sort's fix-up.
constexpr int kBucketKeyBits = 24;

/// Sorts one bucket into its place in the output, in cache.  It gathers the
/// bucket's slices (ascending id order) and sorts 8-byte elements: the
/// highest kBucketKeyBits of the weight bits that vary inside the bucket,
/// above the edge's position in the gather.  A stable LSD radix sort runs
/// one pass per byte of that key, skipping constant bytes, so equal keys
/// stay in position order, which is id order.  Where the key dropped low
/// varying bits, each run of equal keys is then put in ⟨weight bits, id⟩
/// order by a comparison sort; runs are short unless they are one tie
/// class, which is already in order.  A bucket that is one tie class is
/// in order as gathered and goes straight to the output.  One per thread:
/// the scratch grows to the largest bucket the thread sorts.
class BucketSorter {
 public:
  void sort(const WeightBuckets& in, std::size_t j, SortedEdges out) {
    const std::size_t len = in.bucket_size(j);
    if (len == 0) return;
    std::uint32_t* const out_ids = out.ids + in.begin[j];
    std::uint64_t* const out_ends =
        out.ends != nullptr ? out.ends + in.begin[j] : nullptr;
    std::uint64_t acc_or = 0;
    std::uint64_t acc_and = ~std::uint64_t{0};
    in.for_each_slice(j, [&](const SortEdge* first, std::size_t count) {
      for (std::size_t i = 0; i < count; ++i) {
        acc_or |= first[i].bits;
        acc_and &= first[i].bits;
      }
    });
    if (acc_or == acc_and) {
      std::size_t at = 0;
      in.for_each_slice(j, [&](const SortEdge* first, std::size_t count) {
        for (std::size_t i = 0; i < count; ++i, ++at) {
          out_ids[at] = first[i].id;
          if (out_ends != nullptr) out_ends[at] = first[i].ends;
        }
      });
      return;
    }
    if (bits_.size() < len) {
      bits_.resize(len);
      keys_.resize(len);
      aux_.resize(len);
      ends_.resize(len);
      ids_.resize(len);
    }
    std::size_t at = 0;
    in.for_each_slice(j, [&](const SortEdge* first, std::size_t count) {
      for (std::size_t i = 0; i < count; ++i, ++at) {
        bits_[at] = first[i].bits;
        ends_[at] = first[i].ends;
        ids_[at] = first[i].id;
      }
    });

    // The key: the varying bits [low, high) of the weight bits, cut to
    // their highest kBucketKeyBits.
    const std::uint64_t varying = acc_or ^ acc_and;
    const int low = std::countr_zero(varying);
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
    for (std::size_t i = 0; i < len; ++i) out_ids[i] = ids_[src[i] & pos_mask];
    if (out_ends != nullptr) {
      for (std::size_t i = 0; i < len; ++i) out_ends[i] = ends_[src[i] & pos_mask];
    }
  }

 private:
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> aux_;
  std::vector<std::uint64_t> ends_;
  std::vector<std::uint32_t> ids_;
};

/// A bucket's state in sort_buckets' region.
enum BucketState : std::uint32_t { kUnsorted, kSorted, kSortFailed };

}  // namespace

WeightSplit pick_split(std::size_t m, std::size_t target,
                       const std::function<graph::Weight(EdgeId)>& w_at) {
  WeightSplit split;
  split.bound.assign(1, 0);
  // Below m the pivot is the sample's order statistic at target's rank; at
  // m (rank s, past the sample) every edge is taken and the whole sample
  // gives the splitters.
  std::size_t s = std::min(m, kSortSamples);
  std::size_t taken = target < m ? target * s / m + 1 : s;
  const std::size_t b = std::bit_floor(std::max<std::size_t>(
      1, std::min(target / kSortBucketEdges, taken / kSamplesPerBucket)));
  if (target >= m) {
    split.pivot = {~std::uint64_t{0}, ~EdgeId{0}};
    if (b == 1) return split;
    s = taken = std::min(s, b * kAllEdgeSamplesPerBucket);
  }
  std::vector<OrderKey> sample(s);
  for (std::size_t i = 0; i < s; ++i) {
    const EdgeId e = i * m / s;
    sample[i] = {monotone_weight_bits(w_at(e)), e};
  }
  const auto taken_end = sample.begin() + static_cast<std::ptrdiff_t>(taken);
  if (target < m) {
    std::nth_element(sample.begin(), taken_end - 1, sample.end());
    split.pivot = taken_end[-1];
  }
  if (b == 1) return split;
  std::sort(sample.begin(), taken_end);
  split.bound.resize(b);
  for (std::size_t j = 1; j < b; ++j) split.bound[j] = sample[j * taken / b].first;
  return split;
}

void WeightSplit::assign_buckets(std::span<SortEdge> edges,
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

WeightBuckets gather_staged(ThreadTeam& caller_team, std::size_t m,
                            std::size_t target, const WeightSplit& split,
                            const StageBlock& stage) {
  // An input of one walk block is walked on the calling thread alone.
  ThreadTeam one(1);
  ThreadTeam& team = m <= kWalkBlockEdges ? one : caller_team;
  const int p = team.size();
  WeightBuckets out;
  out.nb = split.buckets();
  out.blocks = std::max(dynamic_block_count(m, p),
                        (m + kWalkBlockEdges - 1) / kWalkBlockEdges);
  const std::size_t nb = out.nb;
  const std::size_t blocks = out.blocks;
  const std::size_t slab = (m + blocks - 1) / blocks;  // ≥ every block's size
  auto staged = make_huge_for_overwrite<SortEdge>(static_cast<std::size_t>(p) * slab);
  // Below m the taken count misses the target by the sample's rank error, a
  // few percent; only an input whose weights the strided sample misreads
  // spills.
  const std::size_t capacity = std::min(m, target + target / 8 + slab);
  out.buffer = make_huge_for_overwrite<SortEdge>(capacity);
  out.spill.resize(blocks);
  out.block_edges.resize(blocks);
  out.slice = std::make_unique_for_overwrite<std::uint32_t[]>(blocks * (nb + 1));
  out.begin.resize(nb + 1);
  std::vector<Padded<std::size_t>> partial(static_cast<std::size_t>(p));
  std::atomic<std::size_t> walk_cursor{0};
  std::atomic<std::size_t> fill{0};

  team.run([&](TeamCtx& ctx) {
    const auto t = static_cast<std::size_t>(ctx.tid());
    SortEdge* const mine = staged.get() + t * slab;
    std::vector<std::uint32_t> pos(nb);
    for_range_dynamic(ctx, walk_cursor, blocks, 1, [&](std::size_t b) {
      const IndexRange r = dynamic_block(m, b, blocks);
      const std::size_t k = stage(EdgeId{r.begin}, EdgeId{r.end}, mine);
      std::uint32_t* const row = out.slice.get() + b * (nb + 1);
      std::fill(row, row + nb + 1, 0);
      split.assign_buckets({mine, k}, row + 1);
      for (std::size_t j = 0; j < nb; ++j) row[j + 1] += row[j];
      const std::size_t at = fill.fetch_add(k, std::memory_order_relaxed);
      SortEdge* dst = out.buffer.get() + at;
      if (at + k > capacity) {
        out.spill[b] = std::make_unique_for_overwrite<SortEdge[]>(k);
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

void sort_buckets(ThreadTeam& caller_team, const WeightBuckets& in,
                  SortedEdges out, const BucketConsumer& consume) {
  const std::size_t nb = in.nb;
  // One bucket is sorted, and consumed, on the calling thread alone.
  ThreadTeam one(1);
  ThreadTeam& team = nb == 1 ? one : caller_team;
  auto state = std::make_unique<std::atomic<std::uint32_t>[]>(nb);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> stop{false};

  team.run([&](TeamCtx& ctx) {
    BucketSorter sorter;
    const auto sort_claimed = [&](std::size_t j) {
      try {
        // Fires on helpers (tid ≠ 0) only, so that it always takes the
        // failed-bucket path that tid 0 must notice.
        if (ctx.tid() != 0) fault_point("weight-sort.bucket");
        sorter.sort(in, j, out);
      } catch (...) {
        stop.store(true, std::memory_order_relaxed);
        state[j].store(kSortFailed, std::memory_order_release);
        state[j].notify_all();
        throw;
      }
      state[j].store(kSorted, std::memory_order_release);
      state[j].notify_all();
    };
    if (!consume || ctx.tid() != 0) {
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
        consume(in.begin[j], in.begin[j + 1]);
      }
    } catch (...) {
      stop.store(true, std::memory_order_relaxed);
      throw;
    }
  });
}

}  // namespace smp::core
