// KAT suite for the batched/SIMD draw planes: every plane output must
// be bit-identical to the scalar philox4x32 reference path
// (CounterRng::index), for every dispatch branch the machine can
// execute -- unaligned range begins, tail lanes, gathered slot lists,
// 2^32 lo-word carries, and the deferred Lemire retry path (reachable
// only through crafted words: a real draw rejects with probability
// < 2^-32).  The packed entry (fill_packed16) is pinned the same way
// against a scalar unpack of CounterRng::block.
#include "support/draw_plane.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "support/counter_rng.hpp"
#include "support/rng.hpp"

namespace rbb {
namespace {

/// Runs `fn` once per ISA this machine supports, with the dispatch
/// pinned to that ISA; always restores auto-detection.  SCOPED_TRACE
/// labels failures with the branch that produced them.
template <typename Fn>
void for_each_isa(Fn&& fn) {
  for (const PlaneIsa isa : {PlaneIsa::kPortable, PlaneIsa::kAvx2}) {
    if (!plane_isa_supported(isa)) continue;
    SCOPED_TRACE(isa == PlaneIsa::kPortable ? "isa=portable" : "isa=avx2");
    force_plane_isa(isa);
    fn();
    reset_plane_isa();
  }
}

TEST(DrawPlane, ScheduleHoistsThePerRoundKeys) {
  const CounterRng rng(42);
  const DrawPlane plane(rng);
  std::array<std::uint32_t, 2> key = rng.key();
  for (int r = 0; r < kPhiloxRounds; ++r) {
    EXPECT_EQ(plane.schedule()[static_cast<std::size_t>(r)], key)
        << "round " << r;
    key[0] += kPhiloxWeyl0;
    key[1] += kPhiloxWeyl1;
  }
}

TEST(DrawPlane, RangeMatchesScalarAcrossUnalignedBeginsAndTails) {
  const CounterRng rng(7);
  const DrawPlane plane(rng);
  const std::uint32_t n = 1000003;
  for_each_isa([&] {
    // Begins not multiples of the 4/8 lane widths; counts covering
    // sub-lane tails, exact widths, and multi-batch fills.
    for (const std::uint64_t begin : {0ull, 1ull, 3ull, 5ull, 7ull, 9ull,
                                      63ull, 64ull, 65ull, 1000000ull}) {
      for (const std::size_t count :
           {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u, 65u,
            100u, 257u}) {
        std::vector<std::uint32_t> out(count, 0);
        plane.fill_range(11, begin, count, n, out.data());
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(out[i], rng.index(11, begin + i, n))
              << "begin=" << begin << " count=" << count << " i=" << i;
        }
      }
    }
  });
}

TEST(DrawPlane, RangeMatchesScalarAcrossRounds) {
  const CounterRng rng(2024);
  const DrawPlane plane(rng);
  const std::uint32_t n = 4096;
  for_each_isa([&] {
    for (const std::uint64_t round :
         {0ull, 1ull, 77ull, (1ull << 32) + 5ull}) {
      std::vector<std::uint32_t> out(40, 0);
      plane.fill_range(round, 3, out.size(), n, out.data());
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], rng.index(round, 3 + i, n)) << "round=" << round;
      }
    }
  });
}

TEST(DrawPlane, RangeCarriesAcrossThe32BitSlotBoundary) {
  // The range path segments at lo-word wrap points; a span straddling
  // one must still match the scalar 64-bit slot arithmetic.  The
  // fresh-arrival base 2^48 exercises a nonzero upper half too.
  const CounterRng rng(13);
  const DrawPlane plane(rng);
  const std::uint32_t n = 999983;
  for_each_isa([&] {
    for (const std::uint64_t begin :
         {(1ull << 32) - 5, (1ull << 48) - 3, (1ull << 48) + 0xFFFFFFF9ull}) {
      std::vector<std::uint32_t> out(16, 0);
      plane.fill_range(4, begin, out.size(), n, out.data());
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], rng.index(4, begin + i, n))
            << "begin=" << begin << " i=" << i;
      }
    }
  });
}

TEST(DrawPlane, GatherMatchesScalarOnArbitrarySlotLists) {
  const CounterRng rng(99);
  const DrawPlane plane(rng);
  const std::uint32_t n = 250000;
  // A scattered, duplicate-bearing slot list like a sparse set of
  // releasing bins.
  Rng shuffle_rng(5);
  std::vector<std::uint32_t> slots;
  for (std::uint32_t i = 0; i < 203; ++i) {
    slots.push_back(shuffle_rng.index(1u << 20));
  }
  slots[10] = slots[11];  // duplicates must not perturb neighbors
  for_each_isa([&] {
    // slot_hi = 0 is the relaunch space; nonzero is the d-choices
    // candidate space (slot = (j << 32) | u).
    for (const std::uint32_t hi : {0u, 1u, 5u}) {
      std::vector<std::uint32_t> out(slots.size(), 0);
      plane.fill_gather(21, slots.data(), hi, slots.size(), n, out.data());
      for (std::size_t i = 0; i < slots.size(); ++i) {
        const std::uint64_t slot =
            (static_cast<std::uint64_t>(hi) << 32) | slots[i];
        ASSERT_EQ(out[i], rng.index(21, slot, n)) << "hi=" << hi;
      }
    }
  });
}

TEST(DrawPlane, NearMaxBoundMatchesScalar) {
  // n near 2^32 maximizes the Lemire rejection threshold ((2^32-k)
  // gives threshold k^2); the multiply-shift result uses the full
  // upper-word range, so any batching slip in the 128-bit product
  // arithmetic would surface here.
  const CounterRng rng(3);
  const DrawPlane plane(rng);
  const std::uint32_t n = 0xFFFF0001u;  // threshold = 65535^2 = 0xFFFE0001
  for_each_isa([&] {
    std::vector<std::uint32_t> out(3000, 0);
    plane.fill_range(8, 17, out.size(), n, out.data());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], rng.index(8, 17 + i, n)) << "i=" << i;
    }
  });
}

TEST(DrawPlane, BatchedLemireMatchesScalarOnCraftedWords) {
  // A real draw rejects w0 with probability threshold / 2^64 < 2^-32,
  // so the deferred retry list is unreachable through the Philox
  // surface in any feasible test; crafted words drive it directly.
  // w0 = 0 always lands in the rejection zone (m = 0 < threshold)
  // whenever threshold > 0, forcing the fix-up pass to take w1.
  const std::vector<std::uint64_t> w0 = {
      0,                      // forced retry
      1,                      // rejection zone for most n
      0xFFFFFFFFFFFFFFFFull,  // top of the range, never rejected
      0x0123456789ABCDEFull, 0xFEDCBA9876543210ull,
      0,                      // a second retry in the same batch
      42, 1ull << 63};
  const std::vector<std::uint64_t> w1 = {
      0xDEADBEEFDEADBEEFull, 7, 9, 11, 13, 0xCAFEBABECAFEBABEull, 17, 19};
  for (const std::uint32_t n :
       {3u, 10u, 1024u, 1000003u, 0xFFFF0001u, 0x80000000u}) {
    std::vector<std::uint32_t> out(w0.size(), 0);
    lemire_bounded_batch(w0.data(), w1.data(), w0.size(), n, out.data());
    for (std::size_t i = 0; i < w0.size(); ++i) {
      EXPECT_EQ(out[i], lemire_bounded(w0[i], w1[i], n))
          << "n=" << n << " i=" << i;
      EXPECT_LT(out[i], n);
    }
  }
  // Prove the retry actually resolved from w1, not w0: for n = 3 the
  // threshold is (2^64 - 3) mod 3 = 1, so w0 = 0 rejects and the
  // result must be the w1 multiply-shift.
  std::uint32_t single = 99;
  const std::uint64_t zero = 0, second = 0xDEADBEEFDEADBEEFull;
  lemire_bounded_batch(&zero, &second, 1, 3, &single);
  EXPECT_EQ(single,
            static_cast<std::uint32_t>(
                (static_cast<__uint128_t>(second) * 3) >> 64));
}

TEST(DrawPlane, PowerOfTwoBoundNeverRetries) {
  // threshold = 0 for n = 2^k: the rejection zone is empty and the w0
  // multiply-shift must always commit.
  const std::uint64_t w0 = 0, w1 = 0xFFFFFFFFFFFFFFFFull;
  std::uint32_t out = 99;
  lemire_bounded_batch(&w0, &w1, 1, 1u << 16, &out);
  EXPECT_EQ(out, 0u);  // w0 = 0 -> index 0, NOT the w1 value
}

// --- packed 16-bit draws -----------------------------------------------------

/// The scalar reference of fill_packed16: lane i % 8 of block
/// slot_begin + i / 8, where lane 2w is the low half of word w and
/// lane 2w + 1 its high half, masked to `bits`.
std::uint32_t packed_lane(const CounterRng& rng, std::uint64_t round,
                          std::uint64_t slot_begin, std::size_t i,
                          unsigned bits) {
  const std::array<std::uint32_t, 4> block =
      rng.block(round, slot_begin + i / 8);
  const std::uint32_t word = block[(i % 8) / 2];
  const std::uint32_t half = i % 2 == 0 ? word & 0xFFFFu : word >> 16;
  return half & ((std::uint32_t{1} << bits) - 1);
}

TEST(DrawPlane, PackedMatchesScalarUnpackAcrossBeginsAndCounts) {
  const CounterRng rng(17);
  const DrawPlane plane(rng);
  for_each_isa([&] {
    // Begins off the 4/8-block batch widths, one straddling a 2^32
    // slot-word carry; counts below one block, off a multiple of 8,
    // exact AVX2 passes and several batches.  Every ISA matches the
    // scalar unpack, so portable and AVX2 agree with each other.
    for (const std::uint64_t begin :
         {0ull, 1ull, 3ull, 5ull, 7ull, 9ull, 1000001ull, (1ull << 32) - 5,
          (1ull << 52) + (7ull << 32) + 3}) {
      for (const std::size_t count :
           {1u, 5u, 7u, 8u, 9u, 31u, 32u, 33u, 63u, 64u, 65u, 71u, 127u,
            256u, 1003u}) {
        std::vector<std::uint32_t> out(count + 1, 0xABCDu);
        plane.fill_packed16(6, begin, count, 16, out.data());
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(out[i], packed_lane(rng, 6, begin, i, 16))
              << "begin=" << begin << " count=" << count << " i=" << i;
        }
        EXPECT_EQ(out[count], 0xABCDu) << "wrote past count=" << count;
      }
    }
  });
}

TEST(DrawPlane, PackedMasksToFewerBits) {
  const CounterRng rng(23);
  const DrawPlane plane(rng);
  for_each_isa([&] {
    for (const unsigned bits : {1u, 3u, 8u, 14u, 15u}) {
      std::vector<std::uint32_t> out(203, 0);
      plane.fill_packed16((1ull << 32) + 9, 11, out.size(), bits, out.data());
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_LT(out[i], std::uint32_t{1} << bits);
        ASSERT_EQ(out[i], packed_lane(rng, (1ull << 32) + 9, 11, i, bits))
            << "bits=" << bits << " i=" << i;
      }
    }
  });
}

TEST(DrawPlane, ForceAndResetControlDispatch) {
  ASSERT_TRUE(plane_isa_supported(PlaneIsa::kPortable));
  force_plane_isa(PlaneIsa::kPortable);
  EXPECT_EQ(active_plane_isa(), PlaneIsa::kPortable);
  if (plane_isa_supported(PlaneIsa::kAvx2)) {
    force_plane_isa(PlaneIsa::kAvx2);
    EXPECT_EQ(active_plane_isa(), PlaneIsa::kAvx2);
  }
  reset_plane_isa();
  // Auto-detection never selects an unsupported ISA.
  EXPECT_TRUE(plane_isa_supported(active_plane_isa()));
}

TEST(DrawPlane, CounterStreamConsumersSeeOneStream) {
  // The plane is a cache of derived keys, not a stream: two planes
  // over the same CounterRng and the scalar path all agree.
  const CounterRng rng(1234, 5);
  const DrawPlane a(rng);
  const DrawPlane b(rng);
  std::uint32_t out_a = 0, out_b = 0;
  for_each_isa([&] {
    a.fill_range(2, 40, 1, 777, &out_a);
    b.fill_range(2, 40, 1, 777, &out_b);
    EXPECT_EQ(out_a, out_b);
    EXPECT_EQ(out_a, rng.index(2, 40, 777));
  });
}

}  // namespace
}  // namespace rbb
