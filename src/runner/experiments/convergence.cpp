// E2 -- Theorem 1 (self-stabilization): from ANY configuration the system
// reaches a legitimate configuration within O(n) rounds.
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/fit.hpp"
#include "runner/registry.hpp"

namespace rbb::runner {

void register_convergence(Registry& registry) {
  registry.add({
    .name = "convergence",
    .claim = "E2",
    .title = "convergence time is linear in n (Theorem 1)",
    .description =
        "For each n and worst-case start (all-in-one, geometric, "
        "half-loaded), measures the rounds until M(t) <= beta log2 n, "
        "normalized by n.  The paper predicts a linear law; from all-in-one "
        "the heavy bin drains one ball per round, so the normalized value "
        "approaches 1 from below.  A power-law fit over the all-in-one "
        "sweep reports the measured growth exponent.  Backend-capable "
        "(load-only family): --backend=sharded runs the same measurement "
        "on the src/par/ kernel (counter-RNG draws; same statistics, "
        "different trajectories).  --threads sets the total budget and "
        "--trial-parallelism splits it between concurrent trials and "
        "sharded rounds inside each trial (default: all of it fans out "
        "across trials); per-round thread scaling in isolation is the "
        "sharded_scaling experiment.",
    .kind = ExperimentKind::kTrialKernel,
    .params = {
        {"beta", ParamSpec::Type::kF64, "4.0", "legitimacy constant"},
        {"ball-ratio", ParamSpec::Type::kF64, "0",
         "balls m = round(ratio * n) (0 = the paper's m = n)"},
    },
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(3, 8, 20);
      // No configuration is legitimate at beta <= 0: every trial would run
      // to its cap before the fit rejects the data.
      if (!(ctx.params.f64("beta") > 0)) {
        throw std::invalid_argument("--beta=" + ctx.params.text("beta") +
                                    " must be > 0");
      }

      ResultSet rs;
      Table& table = rs.add_table(
          "E2_convergence", "convergence time is linear in n (Theorem 1)",
          {"n", "start", "trials", "rounds (mean)", "rounds (max)",
           "rounds / n (mean)", "timeouts"});
      std::vector<double> xs;
      std::vector<double> worst_rounds;
      std::string timed_out;  // all-in-one sizes with no converged trial
      for (const std::uint32_t n : default_n_sweep(ctx.scale)) {
        for (const InitialConfig start :
             {InitialConfig::kAllInOne, InitialConfig::kGeometric,
              InitialConfig::kHalfLoaded}) {
          ConvergenceParams p;
          p.n = n;
          p.trials = trials;
          p.seed = ctx.seed();
          p.start = start;
          p.beta = ctx.params.f64("beta");
          p.balls = ctx.params.balls_for_ratio("ball-ratio", n);
          p.plan = ctx.trial_plan(trials);
          const ConvergenceResult r = run_convergence(p);
          table.row()
              .cell(std::uint64_t{n})
              .cell(std::string(to_string(start)))
              .cell(std::uint64_t{trials});
          if (r.rounds_to_legitimate.count() != 0) {
            table.cell(r.rounds_to_legitimate.mean(), 1)
                .cell(r.rounds_to_legitimate.max(), 0)
                .cell(r.normalized.mean(), 3);
          } else {  // no trial converged: there is no time to report
            table.cell("-").cell("-").cell("-");
          }
          table.cell(std::uint64_t{r.timeouts});
          // The fit needs positive data: a size whose every trial timed
          // out has no mean, one legitimate from the start reads 0.
          if (start != InitialConfig::kAllInOne) continue;
          if (r.rounds_to_legitimate.count() == 0) {
            timed_out += (timed_out.empty() ? "" : ", ") + std::to_string(n);
          } else if (r.rounds_to_legitimate.mean() > 0) {
            xs.push_back(static_cast<double>(n));
            worst_rounds.push_back(r.rounds_to_legitimate.mean());
          }
        }
      }
      if (!timed_out.empty()) {
        rs.note("every all-in-one trial timed out (64n-round cap) at n = " +
                timed_out);
      }
      if (xs.size() < 2) {
        rs.note("growth-law fit skipped: fewer than two sizes with a "
                "positive all-in-one convergence time");
        return rs;
      }
      const PowerLawFit fit = fit_power_law(xs, worst_rounds);
      rs.note("fitted growth law (all-in-one start): convergence ~ n^" +
              format_double(fit.exponent, 3) +
              " (R^2 = " + format_double(fit.r_squared, 4) +
              ")   [Theorem 1 predicts exponent 1; small sweeps read high "
              "because the stopping threshold beta*log2(n) is an additive "
              "offset]");
      return rs;
    },
  });
}

}  // namespace rbb::runner
