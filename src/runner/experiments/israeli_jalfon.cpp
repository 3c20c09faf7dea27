// Israeli-Jalfon -- the single-token ancestor of the paper's protocol
// ([5] in the paper), in its synchronous lazy variant (selfstab/), plus
// the self-stabilization certifier harness.  Rides outside the numbered
// experiment map (DESIGN.md Sect. 4).
#include <memory>
#include <vector>

#include "analysis/fit.hpp"
#include "core/config.hpp"
#include "core/process.hpp"
#include "graph/graph.hpp"
#include "runner/registry.hpp"
#include "selfstab/certifier.hpp"
#include "selfstab/israeli_jalfon.hpp"
#include "support/stats.hpp"

namespace rbb::runner {

namespace {

/// Mean coalescence time over `trials` from the every-node placement.
OnlineMoments coalescence_rounds(const Graph* graph, std::uint32_t n,
                                 std::uint32_t trials, std::uint64_t seed,
                                 std::uint64_t cap) {
  OnlineMoments moments;
  for (std::uint32_t trial = 0; trial < trials; ++trial) {
    IsraeliJalfonProcess proc(graph, n, TokenPlacement::kEveryNode,
                              Rng(seed, trial));
    moments.add(static_cast<double>(proc.run_until_single(cap)));
  }
  return moments;
}

}  // namespace

void register_israeli_jalfon(Registry& registry) {
  registry.add({
    .name = "israeli_jalfon",
    .title = "coalescence time of lazy Israeli-Jalfon walks",
    .description =
        "Three tables around the paper's single-token ancestor: (1) "
        "coalescence time from the every-node worst case across topologies "
        "(~Theta(n) on the clique, ~Theta(n^2) on the cycle, with "
        "power-law fits over the sweep); (2) the self-stabilization "
        "certifier applied to both Israeli-Jalfon mutual exclusion and "
        "repeated balls-into-bins, reporting Wilson-certified convergence "
        "probability, mean convergence rounds, and the closure-violation "
        "rate (Theorem 1's two halves, measured); (3) transient-fault "
        "recovery after spuriously injecting k extra tokens (recovery/n "
        "stays ~flat: pairwise meeting dominates).",
    .run = [](const RunContext& ctx) {
      const std::uint64_t seed = ctx.seed();
      const std::uint32_t trials = ctx.trials_or(8, 24, 100);

      ResultSet rs;

      // ---- Table 1: coalescence time by topology ----
      const std::vector<std::uint32_t> ns =
          ctx.scale == BenchScale::kSmoke
              ? std::vector<std::uint32_t>{32, 64}
              : std::vector<std::uint32_t>{64, 128, 256, 512};
      Table& t1 = rs.add_table(
          "E23_israeli_jalfon",
          "coalescence time of lazy Israeli-Jalfon walks",
          {"topology", "n", "mean rounds", "ci95", "rounds/n", "rounds/n^2"});
      std::vector<double> xs;
      std::vector<double> clique_ys;
      std::vector<double> cycle_ys;
      for (const std::uint32_t n : ns) {
        const auto clique =
            coalescence_rounds(nullptr, n, trials, seed,
                               1000ull * n);  // clique coalesces in ~n
        const Graph cyc = make_cycle(n);
        const auto cycle =
            coalescence_rounds(&cyc, n, trials, seed + 1,
                               100ull * n * n);  // cycle needs ~n^2
        xs.push_back(n);
        clique_ys.push_back(clique.mean());
        cycle_ys.push_back(cycle.mean());
        const double dn = n;
        t1.row()
            .cell(std::string("complete"))
            .cell(static_cast<std::uint64_t>(n))
            .cell(clique.mean(), 1)
            .cell(clique.ci95_halfwidth(), 1)
            .cell(clique.mean() / dn, 3)
            .cell(clique.mean() / (dn * dn), 5);
        t1.row()
            .cell(std::string("cycle"))
            .cell(static_cast<std::uint64_t>(n))
            .cell(cycle.mean(), 1)
            .cell(cycle.ci95_halfwidth(), 1)
            .cell(cycle.mean() / dn, 3)
            .cell(cycle.mean() / (dn * dn), 5);
      }
      const PowerLawFit clique_fit = fit_power_law(xs, clique_ys);
      const PowerLawFit cycle_fit = fit_power_law(xs, cycle_ys);
      t1.row()
          .cell(std::string("fit: complete ~ n^a"))
          .cell(std::string("-"))
          .cell(clique_fit.exponent, 3)
          .cell(std::string("r2"))
          .cell(clique_fit.r_squared, 4)
          .cell(std::string("expect a ~ 1"));
      t1.row()
          .cell(std::string("fit: cycle ~ n^a"))
          .cell(std::string("-"))
          .cell(cycle_fit.exponent, 3)
          .cell(std::string("r2"))
          .cell(cycle_fit.r_squared, 4)
          .cell(std::string("expect a ~ 2"));

      // ---- Table 2: the certifier on both processes ----
      Table& t2 = rs.add_table(
          "E23_certifier",
          "certified convergence + closure (Theorem 1, measured)",
          {"process", "n", "P(conv) wilson95", "mean conv rounds",
           "conv rounds/n", "closure viol rate"});
      const std::uint32_t cert_trials =
          by_scale<std::uint32_t>(ctx.scale, 10, 40, 200);
      for (const std::uint32_t n : ns) {
        auto ij_factory = [n](std::uint64_t trial) {
          auto proc = std::make_shared<IsraeliJalfonProcess>(
              nullptr, n, TokenPlacement::kEveryNode, Rng(90, trial));
          StabTrialHooks hooks;
          hooks.step = [proc] { proc->step(); };
          hooks.legitimate = [proc] { return proc->is_legitimate(); };
          return hooks;
        };
        const CertifyResult ij = certify_self_stabilization(
            ij_factory, {.trials = cert_trials,
                         .horizon = 1000ull * n,
                         .closure_window = 100});
        t2.row()
            .cell(std::string("israeli-jalfon"))
            .cell(static_cast<std::uint64_t>(n))
            .cell(ij.p_converged_lower95, 4)
            .cell(ij.convergence_rounds.mean(), 1)
            .cell(ij.convergence_rounds.mean() / n, 3)
            .cell(ij.closure_violation_rate(), 5);

        auto rbb_factory = [n](std::uint64_t trial) {
          Rng rng(91, trial);
          auto proc = std::make_shared<RepeatedBallsProcess>(
              make_config(InitialConfig::kAllInOne, n, n, rng), rng);
          StabTrialHooks hooks;
          hooks.step = [proc] { proc->step(); };
          hooks.legitimate = [proc] { return proc->is_legitimate(4.0); };
          return hooks;
        };
        const CertifyResult rb = certify_self_stabilization(
            rbb_factory, {.trials = cert_trials,
                          .horizon = 16ull * n,
                          .closure_window = 100});
        t2.row()
            .cell(std::string("repeated-bb"))
            .cell(static_cast<std::uint64_t>(n))
            .cell(rb.p_converged_lower95, 4)
            .cell(rb.convergence_rounds.mean(), 1)
            .cell(rb.convergence_rounds.mean() / n, 3)
            .cell(rb.closure_violation_rate(), 5);
      }

      // ---- Table 3: transient-fault recovery (the Sect. 4.1 analogue) ----
      // From the legitimate single-token state, an adversary spuriously
      // creates k extra tokens; recovery = rounds until one token again.
      const std::uint32_t fault_n =
          by_scale<std::uint32_t>(ctx.scale, 64, 256, 1024);
      Table& t3 = rs.add_table(
          "E23_fault_recovery", "recovery from spurious token injection",
          {"n", "injected k", "mean recovery", "ci95", "recovery/n"});
      for (const double frac : {0.125, 0.25, 0.5, 1.0}) {
        const auto inject = static_cast<std::uint32_t>(frac * fault_n);
        OnlineMoments recovery;
        for (std::uint32_t trial = 0; trial < trials; ++trial) {
          std::vector<std::uint8_t> tokens(fault_n, 0);
          tokens[0] = 1;
          IsraeliJalfonProcess proc(nullptr, fault_n, std::move(tokens),
                                    Rng(seed + 7, trial));
          proc.inject_tokens(inject);
          recovery.add(
              static_cast<double>(proc.run_until_single(100000ull * fault_n)));
        }
        t3.row()
            .cell(static_cast<std::uint64_t>(fault_n))
            .cell(static_cast<std::uint64_t>(inject))
            .cell(recovery.mean(), 1)
            .cell(recovery.ci95_halfwidth(), 1)
            .cell(recovery.mean() / fault_n, 3);
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
