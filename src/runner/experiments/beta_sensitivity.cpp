// E13 -- ablation of the legitimacy constant beta (paper, Sect. 2:
// "M(q) <= beta log n for some absolute constant beta > 0"; the theorems
// never pin it).
#include "analysis/experiments.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_beta_sensitivity(Registry& registry) {
  registry.add({
    .name = "beta_sensitivity",
    .claim = "E13",
    .title =
        "the legitimacy constant: critical beta ~ 1.5-2, default 4 has "
        "margin",
    .description =
        "Per n, the fraction of trial windows that stay legitimate as a "
        "function of beta, plus the empirical critical beta (the window "
        "max divided by log2 n).  One stability run per n; every beta is "
        "evaluated against the same trial windows.  Shows where the "
        "paper's unspecified constant actually lives: windows of c*n "
        "rounds are legitimate for beta >~ 2, and beta = 4 (the repository "
        "default) has comfortable margin.",
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(3, 8, 16);
      const std::uint64_t wf = by_scale<std::uint64_t>(ctx.scale, 5, 20, 50);

      ResultSet rs;
      Table& table = rs.add_table(
          "Eb_beta_sensitivity",
          "the legitimacy constant: critical beta ~ 1.5-2, default 4 has "
          "margin",
          {"n", "window", "trials", "critical beta (mean)",
           "critical beta (worst)", "legit@beta=1.5", "legit@beta=2",
           "legit@beta=3", "legit@beta=4"});
      for (const std::uint32_t n : default_n_sweep(ctx.scale)) {
        StabilityParams p;
        p.n = n;
        p.rounds = wf * n;
        p.trials = trials;
        p.seed = ctx.seed();
        const StabilityResult r = run_stability(p);
        const double logn = log2n(n);
        auto legit_fraction = [&](double beta) {
          std::uint32_t legit = 0;
          for (const double wmax : r.per_trial_window_max) {
            if (wmax <= beta * logn) ++legit;
          }
          return static_cast<double>(legit) /
                 static_cast<double>(r.per_trial_window_max.size());
        };
        table.row()
            .cell(std::uint64_t{n})
            .cell(p.rounds)
            .cell(std::uint64_t{trials})
            .cell(r.window_max.mean() / logn, 3)
            .cell(r.window_max.max() / logn, 3)
            .cell(legit_fraction(1.5), 2)
            .cell(legit_fraction(2.0), 2)
            .cell(legit_fraction(3.0), 2)
            .cell(legit_fraction(4.0), 2);
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
