// Engine parity regression: for fixed seeds, driving a process through
// Engine<P> produces *bit-identical* load trajectories to the legacy
// per-process run() path -- for every variant, on the complete graph and
// (where supported) on a ring.  This pins down the tentpole refactor's
// core promise: the engine adds behavior (observers, stopping rules)
// without perturbing a single random draw.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baselines/independent_walks.hpp"
#include "baselines/repeated_dchoices.hpp"
#include "core/process.hpp"
#include "core/kernel/token_kernel.hpp"
#include "engine/engine.hpp"
#include "graph/graph.hpp"
#include "tetris/leaky.hpp"
#include "tetris/tetris.hpp"

namespace rbb {
namespace {

constexpr std::uint32_t kBins = 64;
constexpr std::uint64_t kSegment = 17;  // odd on purpose: no round-y sizes
constexpr int kSegments = 5;

/// Runs `legacy` via its own run()/step() loop and a copy via the Engine
/// (with observers attached, so stat computation is exercised), comparing
/// the full load vector after every segment.
template <typename P>
void expect_parity(P legacy) {
  Engine<P> engine(legacy);  // copy: identical state + RNG
  WindowMaxLoad wmax;
  MinEmptyFraction memp;
  for (int segment = 0; segment < kSegments; ++segment) {
    legacy.run(kSegment);
    engine.run_rounds(kSegment, wmax, memp);
    ASSERT_EQ(legacy.loads(), engine.process().loads())
        << "diverged after segment " << segment;
  }
  EXPECT_EQ(legacy.round(), engine.process().round());
  EXPECT_EQ(legacy.max_load(), engine.process().max_load());
  EXPECT_EQ(legacy.empty_bins(), engine.process().empty_bins());
}

TEST(EngineParity, RepeatedBallsCompleteGraph) {
  Rng rng(101);
  LoadConfig start = make_config(InitialConfig::kAllInOne, kBins, kBins, rng);
  expect_parity(RepeatedBallsProcess(std::move(start), rng.split()));
}

TEST(EngineParity, RepeatedBallsRing) {
  const Graph ring = make_cycle(kBins);
  Rng rng(102);
  LoadConfig start = make_config(InitialConfig::kRandom, kBins, kBins, rng);
  expect_parity(
      RepeatedBallsProcess(std::move(start), &ring, rng.split()));
}

TEST(EngineParity, TokenCoreCompleteGraph) {
  Rng rng(103);
  std::vector<std::uint32_t> placement(kBins);
  for (std::uint32_t i = 0; i < kBins; ++i) placement[i] = rng.index(kBins);
  expect_parity(kernel::SequentialTokenProcess(
      kBins, placement, rng.split(),
      kernel::TokenOptions{.track_visits = true}));
}

TEST(EngineParity, TokenCoreRing) {
  const Graph ring = make_cycle(kBins);
  Rng rng(104);
  std::vector<std::uint32_t> placement(kBins);
  for (std::uint32_t i = 0; i < kBins; ++i) placement[i] = i;
  // Random pops consume the process RNG too.
  expect_parity(kernel::SequentialTokenProcess(
      kBins, placement, rng.split(),
      kernel::TokenOptions{.policy = QueuePolicy::kRandom, .graph = &ring}));
}

TEST(EngineParity, TetrisCliqueOnly) {
  Rng rng(105);
  LoadConfig start = make_config(InitialConfig::kRandom, kBins, kBins, rng);
  expect_parity(TetrisProcess(std::move(start), rng.split()));
}

TEST(EngineParity, LeakyBinsCliqueOnly) {
  Rng rng(106);
  LoadConfig start = make_config(InitialConfig::kOnePerBin, kBins, kBins, rng);
  expect_parity(LeakyBinsProcess(std::move(start), 0.75, rng.split()));
}

TEST(EngineParity, RepeatedDChoicesCliqueOnly) {
  Rng rng(107);
  LoadConfig start =
      make_config(InitialConfig::kHalfLoaded, kBins, kBins, rng);
  expect_parity(RepeatedDChoicesProcess(std::move(start), 2, rng.split()));
}

TEST(EngineParity, IndependentWalksCompleteGraph) {
  Rng rng(108);
  std::vector<std::uint32_t> placement(kBins);
  for (std::uint32_t i = 0; i < kBins; ++i) placement[i] = rng.index(kBins);
  expect_parity(
      IndependentWalksProcess(kBins, placement, nullptr, rng.split()));
}

TEST(EngineParity, IndependentWalksRing) {
  const Graph ring = make_cycle(kBins);
  Rng rng(109);
  std::vector<std::uint32_t> placement(kBins);
  for (std::uint32_t i = 0; i < kBins; ++i) placement[i] = i;
  expect_parity(
      IndependentWalksProcess(kBins, placement, &ring, rng.split()));
}

}  // namespace
}  // namespace rbb
