// Adversarial faults (paper, Sect. 4.1): an adversary periodically
// reassigns every ball to bins of its choosing; the process re-converges
// within O(n) rounds each time.
//
// Renders an ASCII trace of the maximum load across fault/recovery cycles
// and reports per-fault recovery times.
//
//   ./examples/adversarial_faults [--n 512] [--faults 4] [--period 0]
//       [--strategy all-to-one]
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/faults.hpp"
#include "core/process.hpp"
#include "runner/params.hpp"
#include "support/bounds.hpp"
#include "support/stats.hpp"

namespace {

/// One sparkline row: max load sampled at `columns` points over a window.
std::string sparkline(const std::vector<std::uint32_t>& samples,
                      std::uint32_t ceiling) {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::string line;
  for (const std::uint32_t s : samples) {
    const std::size_t level =
        s == 0 ? 0
               : std::min<std::size_t>(
                     7, 1 + (static_cast<std::size_t>(s) * 7) / ceiling);
    line += kLevels[level];
  }
  return line;
}

int run(const rbb::runner::ParamValues& flags) {
  using namespace rbb;
  const std::uint32_t n = flags.u32("n");
  const std::uint64_t period =
      flags.u64("period") != 0 ? flags.u64("period") : 8ull * n;
  const FaultStrategy strategy =
      fault_strategy_from_string(flags.str("strategy"));
  const double legit_threshold = 4.0 * log2n(n);

  Rng rng(flags.u64("seed"));
  Rng fault_rng(flags.u64("seed"), 0xfa17);
  RepeatedBallsProcess process(
      make_config(InitialConfig::kOnePerBin, n, n, rng), rng);

  std::cout << "n = " << n << ", fault strategy = " << to_string(strategy)
            << ", period = " << period << " rounds (gamma = "
            << static_cast<double>(period) / n << ")\n"
            << "legitimacy threshold: max load <= " << legit_threshold
            << "\n\n";

  OnlineMoments recovery;
  constexpr std::uint32_t kColumns = 72;
  for (std::uint64_t fault = 0; fault < flags.u64("faults"); ++fault) {
    // Inject.
    process.reassign(
        apply_fault(strategy, n, n, process.loads(), fault_rng));
    const std::uint32_t spike = process.max_load();

    // Run one period, sampling the max load for the sparkline and
    // recording the recovery round.
    std::vector<std::uint32_t> samples;
    samples.reserve(kColumns);
    const std::uint64_t stride = std::max<std::uint64_t>(1, period / kColumns);
    std::uint64_t recovered_at = 0;
    for (std::uint64_t t = 0; t < period; ++t) {
      const RoundStats s = process.step();
      if (recovered_at == 0 &&
          static_cast<double>(s.max_load) <= legit_threshold) {
        recovered_at = t + 1;
      }
      if (t % stride == 0 && samples.size() < kColumns) {
        samples.push_back(s.max_load);
      }
    }
    std::cout << "fault " << fault + 1 << ": spike to " << spike;
    if (recovered_at > 0) {
      std::cout << ", legitimate again after " << recovered_at << " rounds ("
                << static_cast<double>(recovered_at) / n << " n)\n";
      recovery.add(static_cast<double>(recovered_at));
    } else {
      std::cout << ", not legitimate again within the period\n";
    }
    std::cout << "  [" << sparkline(samples, spike) << "]\n";
  }

  std::cout << "\nmean recovery: ";
  if (recovery.count() > 0) {
    std::cout << recovery.mean() << " rounds = " << recovery.mean() / n
              << " n";
  } else {
    std::cout << "-";
  }
  std::cout << "   (" << recovery.count() << " of " << flags.u64("faults")
            << " faults recovered; Theorem 1 predicts O(n); Sect. 4.1 needs "
            << "recovery well under the period " << period << ")\n";
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  using rbb::runner::ParamSpec;
  const std::vector<ParamSpec> flags = {
      {"n", ParamSpec::Type::kU64, "512", "balls and bins"},
      {"seed", ParamSpec::Type::kU64, "3", "RNG seed"},
      {"faults", ParamSpec::Type::kU64, "4",
       "number of adversarial faults to inject"},
      {"period", ParamSpec::Type::kU64, "0",
       "rounds between faults (0 = 8n, i.e. gamma = 8)"},
      {"strategy", ParamSpec::Type::kString, "all-to-one",
       "all-to-one | random | half-bins | reverse-sort"},
  };
  return rbb::runner::example_main(
      argc, argv, "adversarial_faults: Sect. 4.1 fault injection and recovery",
      flags, run, std::cout, std::cerr);
}
