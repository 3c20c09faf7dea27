// RNG stream policies of the process core (DESIGN.md Sect. 5).
//
// The second policy axis: where a round's randomness comes from.
//
//   * SequentialStream -- the production xoshiro256++ generator
//     (support/rng.hpp).  Draws are a serial stream: the t-th draw
//     requires the t-1 before it, which pins the consumer to one
//     thread but makes each draw ~6x cheaper than a Philox block.
//     kScheduleFree = false: the sharded execution policy rejects it
//     at compile time.
//   * CounterStream -- the counter-based Philox4x32-10 generator
//     (support/counter_rng.hpp).  Every draw is a pure function of
//     (seed, round, slot), so any worker can compute any draw in any
//     order and a round's randomness is fully determined before any
//     phase starts -- the property the sharded scatter needs for
//     thread-count- and shard-size-invariant trajectories.  Hot paths
//     consume draws through the batched/SIMD draw planes
//     (support/draw_plane.hpp) via fill_range / fill_gather, which are
//     bit-identical to per-call index() by construction.
//
// Slot-space convention (shared by every variant so streams never
// collide):
//   slot = u                      relaunch destination of releasing bin u
//                                 (token core)
//   slot = j * 2^32 + u           candidate j of releasing bin u
//                                 (repeated d-choices / threshold;
//                                 j < 2^16)
//   slot = 2^49 + u               queue-position draw of releasing bin u
//                                 (random queue policy of the token core)
//   slot = 2^50 + j * 2^32 + u    weight-CLASS draw of departure j of
//                                 releasing bin u (mixed-regime core;
//                                 j < rate_u < 2^16)
//   slot = 2^51 + j * 2^32 + u    DESTINATION draw of departure j of
//                                 releasing bin u (mixed-regime core)
//   slot = 2^52 + L * 2^32 + b    in-leaf offsets of leaf L (count-split
//                                 arrivals of the load-only, Tetris and
//                                 leaky cores -- count_split.hpp;
//                                 L < 2^18).  A full 2^14-bin leaf packs
//                                 eight: arrival i is 16-bit lane i % 8
//                                 of block b = i / 8, masked to 14 bits.
//                                 The partial last leaf draws one per
//                                 block: arrival i is the Lemire draw of
//                                 b = i < 2^32.
//   tag  = 2^56                   the round's arrival-count substream
//                                 (leaky bins' Binomial(n, lambda) draw)
//   tag  = 2^57 + v               split-tree node v's binomial substream
//                                 (count_split.hpp; v < 2^19)
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/graph.hpp"
#include "support/counter_rng.hpp"
#include "support/draw_plane.hpp"
#include "support/rng.hpp"

namespace rbb::kernel {

/// Slot of the destination draw for the ball released by bin u.
[[nodiscard]] constexpr std::uint64_t relaunch_slot(
    std::uint32_t u) noexcept {
  return u;
}

/// Slot of candidate j for the ball released by bin u (d-choices).
[[nodiscard]] constexpr std::uint64_t candidate_slot(std::uint32_t j,
                                                     std::uint32_t u) noexcept {
  return (static_cast<std::uint64_t>(j) << 32) | u;
}

/// Slot of the queue-position draw of releasing bin u under the random
/// queue policy: which of the bin's `count` tokens departs this round.
/// One draw per (round, releasing bin), so it is schedule-free; the
/// base clears the candidate range (j < 2^16, u < 2^32).
inline constexpr std::uint64_t kPopSelectBase = std::uint64_t{1} << 49;
[[nodiscard]] constexpr std::uint64_t pop_select_slot(
    std::uint32_t u) noexcept {
  return kPopSelectBase + u;
}

/// Base of the weight-class draws of the mixed-regime core: departure
/// j of releasing bin u picks WHICH ball leaves (a class index,
/// proportional to the bin's per-class counts) on slot
/// 2^50 | (j << 32) | u.  One slot per (round, bin, departure index),
/// so the draw is schedule-free; heterogeneous service rates bound
/// j < rate_u, and the core validates rate_u < 2^16 so the j field
/// never carries into the base bits.
inline constexpr std::uint64_t kMixedClassBase = std::uint64_t{1} << 50;
[[nodiscard]] constexpr std::uint64_t mixed_class_slot(
    std::uint32_t j, std::uint32_t u) noexcept {
  return kMixedClassBase | (static_cast<std::uint64_t>(j) << 32) | u;
}

/// Base of the destination draws of the mixed-regime core: departure j
/// of releasing bin u throws to index(round, 2^51 | (j << 32) | u, n).
/// Separate from the class base so the two draws of one departure
/// never alias.
inline constexpr std::uint64_t kMixedDestBase = std::uint64_t{1} << 51;
[[nodiscard]] constexpr std::uint64_t mixed_dest_slot(
    std::uint32_t j, std::uint32_t u) noexcept {
  return kMixedDestBase | (static_cast<std::uint64_t>(j) << 32) | u;
}

/// Base of the count-split leaf draws: block b of leaf L of a round is
/// slot 2^52 | (L << 32) | b.  A full leaf takes eight in-leaf offsets
/// from each block (DrawPlane::fill_packed16, b = i / 8); the partial
/// last leaf takes index(round, slot, |L|) with b = i.  Leaves hold
/// 2^14 bins and n < 2^32, so L < 2^18; a leaf never receives 2^32
/// arrivals in one round, so b never carries into L.
inline constexpr std::uint64_t kLeafArrivalBase = std::uint64_t{1} << 52;
inline constexpr std::uint32_t kMaxLeaves = std::uint32_t{1} << 18;
[[nodiscard]] constexpr std::uint64_t leaf_arrival_slot(
    std::uint32_t leaf, std::uint64_t i) noexcept {
  return kLeafArrivalBase | (static_cast<std::uint64_t>(leaf) << 32) | i;
}

/// Tag of the per-round arrival-count substream (leaky bins).
inline constexpr std::uint64_t kArrivalCountTag = std::uint64_t{1} << 56;

/// Tag base of the count-split tree: node v (heap numbering, root 1)
/// draws its left child's share from round_rng(round, 2^57 + v).  A
/// halving tree over at most 2^18 leaves has depth <= 18, so v < 2^19.
inline constexpr std::uint64_t kSplitNodeTagBase = std::uint64_t{1} << 57;
inline constexpr std::uint64_t kMaxSplitNodes = std::uint64_t{1} << 19;
[[nodiscard]] constexpr std::uint64_t split_node_tag(
    std::uint32_t node) noexcept {
  return kSplitNodeTagBase + node;
}

// The slot bases partition the 64-bit slot space; a new range must
// clear every existing one.  (candidate_slot spans [0, 2^48) with
// j < 2^16.)
static_assert(kPopSelectBase >= (std::uint64_t{1} << 48),
              "pop-select must clear the candidate range");
static_assert(kMixedClassBase >= kPopSelectBase + (std::uint64_t{1} << 32),
              "mixed class draws must clear the pop-select range");
static_assert(kMixedDestBase >= kMixedClassBase + (std::uint64_t{1} << 48),
              "mixed destination draws must clear the class range "
              "(j < 2^16, u < 2^32)");
static_assert(kLeafArrivalBase >= kMixedDestBase + (std::uint64_t{1} << 48),
              "leaf draws must clear the mixed destination range");
static_assert(kArrivalCountTag >=
                  kLeafArrivalBase + (std::uint64_t{kMaxLeaves} << 32),
              "the arrival-count tag must clear the leaf-draw range "
              "(L < 2^18, i < 2^32)");
static_assert(kSplitNodeTagBase > kArrivalCountTag,
              "split-tree tags must clear the arrival-count tag");

/// Draws buffered per stack chunk when a kernel phase interleaves
/// plane fills with scatter/apply work (sharded stripes, refill
/// arrivals): big enough to amortize the batch setup, small enough
/// that the chunk buffers live in L1.
inline constexpr std::uint32_t kDrawChunk = 256;

/// Sequential xoshiro256++ stream (the production single-thread draws).
class SequentialStream {
 public:
  static constexpr bool kScheduleFree = false;

  explicit SequentialStream(Rng rng) noexcept : rng_(rng) {}

  [[nodiscard]] Rng& rng() noexcept { return rng_; }

 private:
  Rng rng_;
};

/// Counter-based Philox stream: draw = f(seed, round, slot), no state.
class CounterStream {
 public:
  static constexpr bool kScheduleFree = true;

  constexpr explicit CounterStream(std::uint64_t seed) noexcept
      : rng_(seed), plane_(rng_) {}
  constexpr CounterStream(std::uint64_t seed, std::uint64_t stream) noexcept
      : rng_(seed, stream), plane_(rng_) {}

  /// Uniform index in [0, n) for draw (round, slot).
  [[nodiscard]] std::uint32_t index(std::uint64_t round, std::uint64_t slot,
                                    std::uint32_t n) const noexcept {
    return rng_.index(round, slot, n);
  }

  /// Batched draws for the contiguous slot range
  /// [slot_begin, slot_begin + count): out[i] = index(round,
  /// slot_begin + i, n), bit for bit, via the SIMD/batched draw plane
  /// (support/draw_plane.hpp).  Fresh-arrival draws use this.
  void fill_range(std::uint64_t round, std::uint64_t slot_begin,
                  std::size_t count, std::uint32_t n,
                  std::uint32_t* out) const noexcept {
    plane_.fill_range(round, slot_begin, count, n, out);
  }

  /// Eight uniform `bits`-bit draws per block of the contiguous block
  /// range starting at slot_begin (DrawPlane::fill_packed16): out[i] is
  /// 16-bit lane i % 8 of block slot_begin + i / 8, masked.  The
  /// in-leaf offsets of full count-split leaves use this.
  void fill_packed16(std::uint64_t round, std::uint64_t slot_begin,
                     std::size_t count, unsigned bits,
                     std::uint32_t* out) const noexcept {
    plane_.fill_packed16(round, slot_begin, count, bits, out);
  }

  /// Batched draws for a gathered slot list sharing the upper slot
  /// half: out[i] = index(round, (slot_hi << 32) | slot_lo[i], n).
  /// Relaunch destinations gather the releasing bins with slot_hi = 0;
  /// d-choices candidate j gathers them with slot_hi = j.
  void fill_gather(std::uint64_t round, const std::uint32_t* slot_lo,
                   std::uint32_t slot_hi, std::size_t count, std::uint32_t n,
                   std::uint32_t* out) const noexcept {
    plane_.fill_gather(round, slot_lo, slot_hi, count, n, out);
  }

  /// A sequential substream derived for (round, tag): used for the few
  /// per-round draws that are counts rather than destinations (e.g. the
  /// leaky-bins Binomial(n, lambda) arrival draw).  Schedule-free
  /// because the core draws it exactly once per round, before any phase
  /// is dispatched.
  [[nodiscard]] Rng round_rng(std::uint64_t round,
                              std::uint64_t tag) const noexcept {
    const std::array<std::uint64_t, 2> w = rng_.words(round, tag);
    return Rng(w[0], w[1]);
  }

  [[nodiscard]] const CounterRng& counter() const noexcept { return rng_; }
  [[nodiscard]] const DrawPlane& plane() const noexcept { return plane_; }

 private:
  CounterRng rng_;
  DrawPlane plane_;
};

/// The general-graph rule of every kernel core (ball and token): a
/// non-null `graph` must have `n` nodes, none of them isolated, and the
/// core must draw from the SequentialStream -- neighbor sampling
/// consumes a serial generator.  Throws std::invalid_argument prefixed
/// with `who`; nullptr (the complete graph) always passes.
template <typename Stream>
void validate_graph(const Graph* graph, std::uint32_t n, const char* who) {
  if (graph == nullptr) return;
  const std::string prefix = std::string(who) + ": ";
  if constexpr (Stream::kScheduleFree) {
    throw std::invalid_argument(
        prefix +
        "general graphs need the sequential stream (neighbor sampling "
        "draws from a serial generator)");
  }
  if (graph->node_count() != n) {
    throw std::invalid_argument(prefix + "graph size != bin count");
  }
  if (graph->min_degree() == 0) {
    throw std::invalid_argument(prefix + "graph has an isolated node");
  }
}

}  // namespace rbb::kernel
