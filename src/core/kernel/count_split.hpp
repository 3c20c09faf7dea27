// Count-based arrivals of the exchangeable ball kernels (DESIGN.md
// Sect. 5).
//
// In the load-only, Tetris and leaky-bins rounds on K_n a ball has no
// identity once it is thrown: the round's arrival vector is
// Multinomial(k; 1/n, ..., 1/n), where k is the round's departure count
// (load-only) or its fresh-arrival count (Tetris, leaky).  The
// counter-stream instantiations of those cores therefore never draw
// one destination per ball and never move a ball through a scatter
// buffer.  They draw arrival COUNTS:
//
//   leaves  -- [0, n) is cut into fixed leaves of kLeafBins = 2^14 bins
//              (the last one partial).  The layout depends on n only,
//              never on --threads or --shard-size.
//   split   -- a binary tree over the leaf indices, halving each range
//              (left child = the first ceil(len/2) leaves), numbered
//              like a heap (root 1, children 2v and 2v + 1).  Node v
//              holding k_v arrivals sends Binomial(k_v, |left| / |v|) of
//              them left -- |.| in bins -- drawn exactly
//              (BinomialSampler) from round_rng(round, split_node_tag(v)).
//              A node's split depends only on (seed, round, v, k_v), so
//              any walk that reaches v computes the same split.
//   leaf    -- leaf L's k_L arrivals land at in-leaf offsets drawn in
//              chunks of kDrawChunk.  A full leaf packs eight offsets
//              into each Philox block: arrival i is 16-bit lane i % 8
//              (lane 2w = low half of word w, 2w + 1 = high half) of
//              block leaf_arrival_slot(L, i / 8), masked to kLeafBits,
//              exactly uniform on [0, 2^14) (DrawPlane::fill_packed16).
//              The partial last leaf (n not a multiple of 2^14) draws
//              index(round, leaf_arrival_slot(L, i), |L|), one Lemire
//              draw per block (DrawPlane::fill_range).  The two never
//              share a slot: they key different leaves L.
//
// Conditioned on the leaf counts the in-leaf offsets are i.i.d.
// uniform, and the tree's conditional binomials make the leaf counts
// Multinomial(k; |L| / n), so every bin receives Multinomial(k; 1/n)
// arrivals -- the per-ball kernel's law, with different draws.  A
// load-only k is known before its round runs: it is the number of
// non-empty bins, n less the previous round-end scan's zeros, so no
// pass over the loads has to precede the split.  A sharded commit
// owner walks only the tree paths to its own leaves (LeafSplit::Walk)
// and departs each of its bins right before the first leaf that lands
// on it (ball_kernel.hpp's commit_shard); the sequential counter walk
// departs all of [0, n), then visits every leaf.  Both apply the same
// per-leaf draws to the same post-departure loads, which keeps the two
// bit-identical.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/kernel/shard.hpp"
#include "core/kernel/stream.hpp"
#include "obs/metrics.hpp"
#include "support/samplers.hpp"
#include "support/types.hpp"

namespace rbb::kernel {

/// Bins per count-split leaf; also the default shard size, so at the
/// default shard layout every leaf lies inside one shard.  A power of
/// two of at most 16 bits, so a packed 16-bit lane masked to kLeafBits
/// is an exact in-leaf offset.
inline constexpr unsigned kLeafBits = 14;
inline constexpr std::uint32_t kLeafBins = std::uint32_t{1} << kLeafBits;
static_assert(kLeafBits <= 16, "in-leaf offsets are packed 16-bit lanes");
static_assert(kDrawChunk % 8 == 0,
              "every leaf-draw chunk starts on a packed block boundary");
static_assert(kLeafBins == kDefaultShardSize,
              "leaves are default shards: one leaf per default shard");
static_assert(std::uint64_t{kLeafBins} * kMaxLeaves ==
                  (std::uint64_t{1} << 32),
              "the leaf-draw slot range must cover every n < 2^32");
static_assert(std::uint64_t{2} * kMaxLeaves == kMaxSplitNodes,
              "a halving tree over 2^18 leaves numbers its nodes below 2^19, "
              "the split-tree tag range");

/// The fixed leaf layout and binomial split tree of an n-bin round.
class LeafSplit {
 public:
  explicit LeafSplit(std::uint32_t n) noexcept
      : n_(n), leaves_(n == 0 ? 0 : (n - 1) / kLeafBins + 1) {}

  [[nodiscard]] std::uint32_t leaf_count() const noexcept { return leaves_; }
  [[nodiscard]] std::uint32_t leaf_of(bin_index_t bin) const noexcept {
    return bin / kLeafBins;
  }
  [[nodiscard]] bin_index_t leaf_begin(std::uint32_t leaf) const noexcept {
    return static_cast<bin_index_t>(
        std::min<std::uint64_t>(n_, std::uint64_t{leaf} * kLeafBins));
  }
  [[nodiscard]] bin_index_t leaf_end(std::uint32_t leaf) const noexcept {
    return static_cast<bin_index_t>(
        std::min<std::uint64_t>(n_, (std::uint64_t{leaf} + 1) * kLeafBins));
  }

  /// A depth-first walk of one round's split tree that yields the
  /// counts of the leaves [first, last) in ascending leaf order,
  /// splitting only the nodes on paths to them.
  class Walk {
   public:
    Walk() = default;

    /// Starts the walk of `total` arrivals of `round` over leaves
    /// [first, last) (first < last <= leaf_count()).
    Walk(const LeafSplit& split, const CounterStream& stream,
         std::uint64_t round, ball_count_t total, std::uint32_t first,
         std::uint32_t last) noexcept
        : split_(&split),
          stream_(&stream),
          round_(round),
          first_(first),
          last_(last) {
      stack_[0] = Node{1, 0, split.leaf_count(), total};
      depth_ = 1;
    }

    /// The next leaf and its arrival count; false once [first, last) is
    /// exhausted.
    bool next(std::uint32_t& leaf, ball_count_t& count) {
      while (depth_ > 0) {
        const Node node = stack_[--depth_];
        if (node.hi - node.lo == 1) {
          leaf = node.lo;
          count = node.count;
          return true;
        }
        const std::uint32_t mid = node.lo + (node.hi - node.lo + 1) / 2;
        ball_count_t left = 0;
        if (node.count > 0) {
          const bin_index_t begin = split_->leaf_begin(node.lo);
          const double p =
              static_cast<double>(split_->leaf_begin(mid) - begin) /
              static_cast<double>(split_->leaf_end(node.hi - 1) - begin);
          Rng rng = stream_->round_rng(round_, split_node_tag(node.id));
          left = BinomialSampler(node.count, p)(rng);
        }
        // Push right first so the left subtree pops first.
        if (mid < last_) {
          stack_[depth_++] =
              Node{2 * node.id + 1, mid, node.hi, node.count - left};
        }
        if (first_ < mid) {
          stack_[depth_++] = Node{2 * node.id, node.lo, mid, left};
        }
      }
      return false;
    }

   private:
    struct Node {
      std::uint32_t id;
      std::uint32_t lo;  // leaf range [lo, hi)
      std::uint32_t hi;
      ball_count_t count;
    };
    // One pending right sibling per level plus the current node: a
    // halving tree over <= 2^18 leaves is <= 18 levels deep.
    static constexpr std::uint32_t kMaxDepth = 20;

    const LeafSplit* split_ = nullptr;
    const CounterStream* stream_ = nullptr;
    std::uint64_t round_ = 0;
    std::uint32_t first_ = 0;
    std::uint32_t last_ = 0;
    Node stack_[kMaxDepth] = {};
    std::uint32_t depth_ = 0;
  };

  /// Draws leaf `leaf`'s `count` arrivals of `round` and hands each
  /// chunk to fn(base, offsets, len): the arrivals land at bins
  /// base + offsets[0..len).  Full leaves take eight packed offsets per
  /// block, the partial last leaf one Lemire draw per block.
  template <typename Fn>
  void draw_leaf(const CounterStream& stream, std::uint64_t round,
                 std::uint32_t leaf, ball_count_t count, Fn&& fn) const {
    const bin_index_t base = leaf_begin(leaf);
    const std::uint32_t bins = leaf_end(leaf) - base;
    bin_index_t chunk[kDrawChunk];
    for (ball_count_t i = 0; i < count;) {
      const auto len = static_cast<std::uint32_t>(
          std::min<ball_count_t>(kDrawChunk, count - i));
      obs::add(obs::Counter::kChunkFlushes);
      if (bins == kLeafBins) {
        stream.fill_packed16(round, leaf_arrival_slot(leaf, i / 8), len,
                             kLeafBits, chunk);
      } else {
        stream.fill_range(round, leaf_arrival_slot(leaf, i), len, bins,
                          chunk);
      }
      fn(base, static_cast<const bin_index_t*>(chunk), len);
      i += len;
    }
  }

 private:
  std::uint32_t n_;
  std::uint32_t leaves_;
};

}  // namespace rbb::kernel
