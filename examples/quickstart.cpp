// Quickstart: the repeated balls-into-bins process in ~40 lines.
//
// Starts the process from the worst-case configuration (all n balls in
// one bin), watches it self-stabilize in ~n rounds (Theorem 1), then
// confirms the maximum load stays O(log n) over a long window.
//
//   ./examples/quickstart [--n 1024] [--seed 1]
#include <cstdlib>
#include <iostream>

#include "core/config.hpp"
#include "core/process.hpp"
#include "support/bounds.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace rbb;
  Cli cli("quickstart: watch repeated balls-into-bins self-stabilize");
  cli.add_u64("n", 1024, "number of balls and bins");
  cli.add_u64("seed", 1, "RNG seed");
  if (!cli.parse(argc, argv)) return cli.exit_status();

  const auto n = static_cast<std::uint32_t>(cli.u64("n"));
  Rng rng(cli.u64("seed"));

  // Worst case: every ball piled into bin 0.
  RepeatedBallsProcess process(
      make_config(InitialConfig::kAllInOne, n, n, rng), rng);
  std::cout << "n = " << n << ", start: all " << n << " balls in one bin"
            << " (max load " << process.max_load() << ")\n\n";

  // Phase 1 -- convergence: run until legitimate (max load <= 4 log2 n).
  std::uint64_t t = 0;
  while (!process.is_legitimate() && t < 64ull * n) {
    process.step();
    ++t;
  }
  std::cout << "legitimate after " << t << " rounds  (Theorem 1 predicts "
            << "O(n); that is " << static_cast<double>(t) / n
            << " * n)\n";

  // Phase 2 -- stability: max load over a 20n-round window.
  std::uint32_t window_max = 0;
  for (std::uint64_t s = 0; s < 20ull * n; ++s) {
    window_max = std::max(window_max, process.step().max_load);
  }
  std::cout << "max load over the next " << 20 * n << " rounds: "
            << window_max << "  (= " << window_max / log2n(n)
            << " * log2 n; Theorem 1 predicts O(log n))\n"
            << "empty bins right now: " << process.empty_bins() << " / " << n
            << "  (Lemma 1 predicts >= n/4)\n";
  return EXIT_SUCCESS;
}
