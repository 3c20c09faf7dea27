// Tetris playground: the analysis machinery of Sect. 3, hands-on.
//
// Three demonstrations:
//   1. Lemma 4 -- from all-in-one, every Tetris bin empties within 5n
//      rounds (we print the measured drain time).
//   2. Lemma 5 -- the Z-chain absorption-time tail vs e^{-t/144}.
//   3. The drift knob -- raising the arrival rate from 3n/4 toward n
//      destroys stability (why the 3/4 constant is what it is), plus the
//      leaky-bins randomized-arrival variant of [18].
//
//   ./examples/tetris_playground [--n 1024] [--seed 2]
#include <cstdlib>
#include <iostream>

#include "core/config.hpp"
#include "runner/params.hpp"
#include "support/bounds.hpp"
#include "support/stats.hpp"
#include "tetris/leaky.hpp"
#include "tetris/tetris.hpp"
#include "tetris/zchain.hpp"

namespace {

int run(const rbb::runner::ParamValues& flags) {
  using namespace rbb;
  const std::uint32_t n = flags.u32("n");
  const std::uint64_t seed = flags.u64("seed");

  // --- 1. Lemma 4: drain time from the worst start. ---
  {
    Rng rng(seed);
    TetrisProcess tetris(make_config(InitialConfig::kAllInOne, n, n, rng),
                         rng);
    const std::uint64_t drained = tetris.run_until_all_emptied(20ull * n);
    std::cout << "[Lemma 4] all-in-one start, n = " << n
              << ": every bin emptied by round " << drained << " = "
              << static_cast<double>(drained) / n
              << " n   (bound: 5n)\n";
  }

  // --- 2. Lemma 5: absorption tail of the Z-chain. ---
  {
    Rng rng(seed + 1);
    const std::uint64_t k = 8;
    constexpr int kTrials = 50000;
    OnlineMoments tau;
    int beyond_8k = 0;
    for (int i = 0; i < kTrials; ++i) {
      const std::uint64_t t = sample_absorption_time(n, k, 64 * k, rng);
      if (t == kZChainNotAbsorbed || t > 8 * k) ++beyond_8k;
      if (t != kZChainNotAbsorbed) tau.add(static_cast<double>(t));
    }
    std::cout << "[Lemma 5] Z-chain from k = " << k << ": E[tau] = "
              << tau.mean() << " (drift -1/4 predicts ~" << 4 * k
              << ");  P(tau > 8k) = "
              << static_cast<double>(beyond_8k) / kTrials
              << " <= bound e^{-8k/144} = "
              << zchain_tail_bound(static_cast<double>(8 * k)) << "\n";
  }

  // --- 3. The drift knob: arrival rate sweep + leaky bins. ---
  std::cout << "[drift]   arrival rate mu*n, window max load after 10n "
               "rounds (log2 n = "
            << log2n(n) << "):\n";
  for (const double mu : {0.75, 0.9, 1.0}) {
    Rng rng(seed + 2);
    TetrisProcess tetris(
        make_config(InitialConfig::kRandom, n, n, rng), rng,
        static_cast<std::uint64_t>(mu * static_cast<double>(n)));
    std::uint32_t wmax = 0;
    for (std::uint64_t t = 0; t < 10ull * n; ++t) {
      wmax = std::max(wmax, tetris.step().max_load);
    }
    std::cout << "           mu = " << mu << "  ->  max load " << wmax
              << ", total mass/bin "
              << static_cast<double>(tetris.total_balls()) / n << "\n";
  }

  {
    Rng rng(seed + 3);
    LeakyBinsProcess leaky(make_config(InitialConfig::kOnePerBin, n, n, rng),
                           0.9, rng);
    leaky.run(2ull * n);  // settle
    std::uint32_t wmax = 0;
    for (std::uint64_t t = 0; t < 10ull * n; ++t) {
      wmax = std::max(wmax, leaky.step().max_load);
    }
    std::cout << "[leaky]   Binomial(n, 0.9) arrivals ([18]): window max "
              << wmax << ", mass/bin "
              << static_cast<double>(leaky.total_balls()) / n
              << ", empty frac "
              << static_cast<double>(leaky.empty_bins()) / n << "\n";
  }
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  using rbb::runner::ParamSpec;
  const std::vector<ParamSpec> flags = {
      {"n", ParamSpec::Type::kU64, "1024", "bins"},
      {"seed", ParamSpec::Type::kU64, "2", "RNG seed"},
  };
  return rbb::runner::example_main(
      argc, argv, "tetris_playground: the paper's auxiliary process, hands-on",
      flags, run, std::cout, std::cerr);
}
