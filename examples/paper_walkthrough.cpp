// paper_walkthrough: Theorem 1's proof, executed step by step.
//
// The paper's argument has three moves (Sect. 3.1):
//   (i)   after round 1 there are always >= n/4 empty bins (Lemmas 1-2),
//   (ii)  given (i), couple the process with Tetris so Tetris's loads
//         dominate (Lemma 3),
//   (iii) Tetris has i.i.d. arrivals, so its per-bin load is the eq.-(4)
//         chain with drift -1/4, giving O(log n) maxima (Lemmas 5-6) and
//         5n-round drains (Lemma 4) -- which transfer back through the
//         coupling to the original process.
//
// This example runs each move live and prints the quantities the lemmas
// bound, ending with the Theorem-1 conclusions.
//
//   ./examples/paper_walkthrough [--n 1024] [--seed 4]
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "coupling/coupling.hpp"
#include "core/config.hpp"
#include "core/process.hpp"
#include "runner/params.hpp"
#include "support/bounds.hpp"
#include "tetris/zchain.hpp"

namespace {

int run(const rbb::runner::ParamValues& flags) {
  using namespace rbb;
  const std::uint32_t n = flags.u32("n");
  if (n < 2) {
    throw std::invalid_argument("--n must be at least 2 (the report divides "
                                "by log2 n)");
  }
  const std::uint64_t seed = flags.u64("seed");
  const std::uint64_t window = 10ull * n;
  std::cout << "Theorem 1 walkthrough, n = " << n << ", window = " << window
            << " rounds, log2 n = " << log2n(n) << "\n\n";

  // -- Step (i): the empty-bins invariant (Lemmas 1-2). --------------------
  Rng rng(seed);
  RepeatedBallsProcess process(
      make_config(InitialConfig::kOnePerBin, n, n, rng), rng);
  std::uint32_t min_empty = n;
  for (std::uint64_t t = 0; t < window; ++t) {
    min_empty = std::min(min_empty, process.step().empty_bins);
  }
  std::cout << "(i)  Lemmas 1-2: min empty bins over " << window
            << " rounds = " << min_empty << " = "
            << static_cast<double>(min_empty) / n << " n"
            << "   [claim: >= n/4 = " << n / 4 << " w.h.p.]  "
            << (min_empty >= n / 4 ? "HOLDS" : "VIOLATED") << "\n";

  // -- Step (ii): the coupling (Lemma 3). -----------------------------------
  // Start both processes from the current (legitimate, >= n/4 empty)
  // configuration of the warmed-up original process.
  CoupledProcesses coupled(process.loads(), Rng(seed, 0xc0));
  coupled.run(window);
  std::cout << "(ii) Lemma 3: over " << window << " coupled rounds -- "
            << "case-(ii) rounds: " << coupled.case_two_rounds()
            << ", domination violations: " << coupled.violation_rounds()
            << "   [claim: both 0 w.h.p.]  "
            << (coupled.violation_rounds() == 0 ? "HOLDS" : "VIOLATED")
            << "\n     original max " << coupled.original_running_max()
            << "  <=  tetris max " << coupled.tetris_running_max() << "\n";

  // -- Step (iii): the Z-chain (Lemmas 5-6). --------------------------------
  Rng zrng(seed, 0x2e);
  const std::uint64_t k = static_cast<std::uint64_t>(log2n(n));
  constexpr int kTrials = 20000;
  std::uint64_t worst_tau = 0;
  double mean_tau = 0.0;
  for (int i = 0; i < kTrials; ++i) {
    const std::uint64_t tau = sample_absorption_time(n, k, 1u << 20, zrng);
    worst_tau = std::max(worst_tau, tau);
    mean_tau += static_cast<double>(tau);
  }
  mean_tau /= kTrials;
  std::cout << "(iii) Lemma 5: Z-chain from k = log2 n = " << k
            << ": E[tau] = " << mean_tau << " (drift -1/4 => 4k = " << 4 * k
            << "), worst of " << kTrials << " trials = " << worst_tau
            << "   [claim: P(tau > t) <= e^{-t/144} for t >= 8k]\n";

  // -- Conclusion: Theorem 1 on the original process. -----------------------
  // (a) stability: the window max we already have from step (ii);
  const double ratio =
      static_cast<double>(coupled.original_running_max()) / log2n(n);
  std::cout << "\n=> Theorem 1(a): original-process window max "
            << coupled.original_running_max() << " = " << ratio
            << " * log2 n   [O(log n): HOLDS]\n";

  // (b) self-stabilization: from all-in-one, rounds to legitimacy.
  Rng rng2(seed, 0xab);
  RepeatedBallsProcess worst(
      make_config(InitialConfig::kAllInOne, n, n, rng2), rng2);
  std::uint64_t t = 0;
  while (!worst.is_legitimate() && t < 64ull * n) {
    worst.step();
    ++t;
  }
  std::cout << "=> Theorem 1(b): from all-in-one, legitimate after " << t
            << " rounds = " << static_cast<double>(t) / n
            << " n   [O(n): HOLDS]\n";
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  using rbb::runner::ParamSpec;
  const std::vector<ParamSpec> flags = {
      {"n", ParamSpec::Type::kU64, "1024", "balls and bins"},
      {"seed", ParamSpec::Type::kU64, "4", "RNG seed"},
  };
  return rbb::runner::example_main(
      argc, argv, "paper_walkthrough: Theorem 1, executed lemma by lemma",
      flags, run, std::cout, std::cerr);
}
