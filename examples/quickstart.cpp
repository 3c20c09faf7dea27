// Quickstart: the repeated balls-into-bins process in ~40 lines.
//
// Starts the process from the worst-case configuration (all n balls in
// one bin), watches it self-stabilize in ~n rounds (Theorem 1), then
// confirms the maximum load stays O(log n) over a long window.
//
//   ./examples/quickstart [--n 1024] [--seed 1]
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "core/config.hpp"
#include "core/process.hpp"
#include "runner/params.hpp"
#include "support/bounds.hpp"

namespace {

int run(const rbb::runner::ParamValues& flags) {
  using namespace rbb;
  const std::uint32_t n = flags.u32("n");
  if (n < 2) {
    throw std::invalid_argument("--n must be at least 2 (the report divides "
                                "by log2 n)");
  }
  Rng rng(flags.u64("seed"));

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

}  // namespace

int main(int argc, char** argv) {
  using rbb::runner::ParamSpec;
  const std::vector<ParamSpec> flags = {
      {"n", ParamSpec::Type::kU64, "1024", "number of balls and bins"},
      {"seed", ParamSpec::Type::kU64, "1", "RNG seed"},
  };
  return rbb::runner::example_main(
      argc, argv, "quickstart: watch repeated balls-into-bins self-stabilize",
      flags, run, std::cout, std::cerr);
}
