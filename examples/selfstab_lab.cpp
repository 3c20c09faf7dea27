// Self-stabilization lab: the paper's probabilistic self-stabilization
// notion (Sect. 1.1) applied to two processes with one shared harness.
//
//  1. Israeli-Jalfon token management ([5]): from *any* token placement,
//     lazy coalescing random walks converge to the single-token
//     legitimate set and stay there (tokens never split).
//  2. Repeated balls-into-bins: from the all-in-one worst case, the
//     process reaches max load <= beta log2 n within O(n) rounds and
//     stays legitimate (Theorem 1).
//
// The certifier reports, for each: the Wilson-certified convergence
// probability, the convergence-time distribution, and the closure
// violation rate over a post-convergence window.
//
//   ./examples/selfstab_lab [--n 256] [--trials 40] [--seed 7]
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "core/config.hpp"
#include "core/process.hpp"
#include "selfstab/certifier.hpp"
#include "runner/params.hpp"
#include "selfstab/israeli_jalfon.hpp"

namespace {

/// Prints one certification.
void report(const char* name, const rbb::CertifyResult& r, std::uint32_t n) {
  const rbb::OnlineMoments& rounds = r.convergence_rounds;
  std::cout << name << ":\n"
            << "  converged           " << r.converged << "/" << r.trials
            << "  (Wilson 95% lower bound on P: " << r.p_converged_lower95
            << ")\n"
            << "  convergence rounds  ";
  if (rounds.count() > 0) {
    std::cout << "mean " << rounds.mean() << "  (" << rounds.mean() / n
              << " x n), min " << rounds.min() << ", max " << rounds.max();
  } else {
    std::cout << "-";
  }
  std::cout << "\n"
            << "  closure violations  " << r.closure_violations << " / "
            << r.closure_rounds << " rounds (rate "
            << r.closure_violation_rate() << ")\n\n";
}

/// One system's closure after convergence: it "holds" its legitimate set
/// only when no closure round left it.
void print_closure(const char* name, const rbb::CertifyResult& r) {
  std::cout << name
            << (r.closure_violations == 0 ? " holds its legitimate set"
                                          : " leaves its legitimate set again")
            << " (closure violation rate " << r.closure_violation_rate()
            << ")";
}

int run(const rbb::runner::ParamValues& flags) {
  using namespace rbb;
  const std::uint32_t n = flags.u32("n");
  if (n < 2) {
    throw std::invalid_argument(
        "--n must be at least 2 (at n = 1 the legitimacy bound beta log2 n "
        "is 0)");
  }
  const std::uint64_t trials = flags.u64("trials");
  const std::uint64_t seed = flags.u64("seed");

  std::cout << "n = " << n << ", trials = " << trials << "\n\n";

  auto ij_factory = [n, seed](std::uint64_t trial) {
    auto proc = std::make_shared<IsraeliJalfonProcess>(
        nullptr, n, TokenPlacement::kEveryNode, Rng(seed, trial));
    StabTrialHooks hooks;
    hooks.step = [proc] { proc->step(); };
    hooks.legitimate = [proc] { return proc->is_legitimate(); };
    return hooks;
  };
  const CertifyResult ij =
      certify_self_stabilization(ij_factory, {.trials = trials,
                                              .horizon = 1000ull * n,
                                              .closure_window = 200});
  report("Israeli-Jalfon (clique, every node starts with a token)", ij, n);

  auto rbb_factory = [n, seed](std::uint64_t trial) {
    Rng rng(seed ^ 0x5bd1e995, trial);
    auto proc = std::make_shared<RepeatedBallsProcess>(
        make_config(InitialConfig::kAllInOne, n, n, rng), rng);
    StabTrialHooks hooks;
    hooks.step = [proc] { proc->step(); };
    hooks.legitimate = [proc] { return proc->is_legitimate(4.0); };
    return hooks;
  };
  const CertifyResult balls =
      certify_self_stabilization(rbb_factory, {.trials = trials,
                                               .horizon = 16ull * n,
                                               .closure_window = 200});
  report("Repeated balls-into-bins (all n balls start in one bin)", balls, n);

  if (ij.converged == ij.trials && balls.converged == balls.trials) {
    std::cout << "Both systems converge from their worst cases.  Afterwards\n";
    print_closure("Israeli-Jalfon", ij);
    std::cout << " and\n";
    print_closure("repeated balls-into-bins", balls);
    std::cout << ".\n";
    if (ij.closure_violations == 0 && balls.closure_violations == 0) {
      std::cout << "Those are the two halves of probabilistic\n"
                   "self-stabilization (paper, Sect. 1.1).\n";
    }
  } else {
    std::cout << "Not every trial converged within its horizon.\n";
  }
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  using rbb::runner::ParamSpec;
  const std::vector<ParamSpec> flags = {
      {"n", ParamSpec::Type::kU64, "256", "system size"},
      {"trials", ParamSpec::Type::kU64, "40", "Monte-Carlo trials"},
      {"seed", ParamSpec::Type::kU64, "7", "RNG seed"},
  };
  return rbb::runner::example_main(
      argc, argv, "selfstab_lab: certify two self-stabilizing processes",
      flags, run, std::cout, std::cerr);
}
