// E22 -- the m = c n max-load regimes: decoupling the ball count from
// the bin count moves the window maximum from the paper's Theta(log n)
// (m <= n) to Theta((m/n) log n) (m >= n), Los & Sauerwald's tight
// bound for repeated balls-into-bins (arXiv 2203.12400).  Monotone in c
// by coupling: every extra ball can only raise the maximum.
#include <cmath>
#include <vector>

#include "analysis/experiments.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_max_load_regimes(Registry& registry) {
  registry.add({
    .name = "max_load_regimes",
    .claim = "E22",
    .title =
        "m = c n regimes: max load is Theta((m/n) log n) (Los & Sauerwald)",
    .description =
        "Runs the repeated balls-into-bins window with the ball count "
        "decoupled from the bin count, m = c * n for c in {0.5, 1, 2, 8}, "
        "and reports the window max load and its excess over the mean load "
        "ceil(m/n).  Los & Sauerwald (arXiv 2203.12400) prove a "
        "Theta((m/n) log n) maximum for m >= n, so the excess normalized "
        "by ceil(m/n) log2 n stays bounded in c while the raw maximum is "
        "ordered c = 8 >= 2 >= 1 >= 0.5 "
        "(a coupling argument: extra balls never lower the maximum; the "
        "statistical suite pins the ordering at fixed seeds).  "
        "Backend-capable (load-only family): --backend=sharded replays the "
        "window on the src/par/ counter-RNG kernel bit-identically.  --threads sets the total budget and "
        "--trial-parallelism splits it between concurrent trials and "
        "the sharded rounds inside each trial.",
    .kind = ExperimentKind::kTrialKernel,
    .params = {
        {"window-factor", ParamSpec::Type::kU64, "0",
         "window = factor * n rounds (0 = scale default)"},
        {"n", ParamSpec::Type::kU64, "0",
         "run a single n instead of the scale sweep"},
    },
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 4, 8);
      const std::uint64_t wf =
          ctx.params.u64("window-factor") != 0
              ? ctx.params.u64("window-factor")
              : by_scale<std::uint64_t>(ctx.scale, 5, 15, 40);
      const std::vector<std::uint32_t> ns =
          ctx.params.u64("n") != 0
              ? std::vector<std::uint32_t>{ctx.params.u32("n")}
              : default_n_sweep(ctx.scale);

      ResultSet rs;
      Table& table = rs.add_table(
          "E22_max_load_regimes",
          "m = c n regimes: max load is Theta((m/n) log n) (Los & "
          "Sauerwald)",
          {"n", "c", "m", "window max (mean)", "window max (worst)",
           "mean load ceil(m/n)", "excess (mean)",
           "excess / (ceil(m/n) log2 n)"});
      for (const std::uint32_t n : ns) {
        for (const double c : {0.5, 1.0, 2.0, 8.0}) {
          StabilityParams p;
          p.n = n;
          p.balls = static_cast<std::uint64_t>(std::llround(c * n));
          p.rounds = wf * n;
          p.trials = trials;
          p.seed = ctx.seed();
          p.start = InitialConfig::kOnePerBin;
          p.plan = ctx.trial_plan(trials);
          const StabilityResult r = run_stability(p);
          const double mean_load =
              std::ceil(static_cast<double>(p.balls) / static_cast<double>(n));
          table.row()
              .cell(std::uint64_t{n})
              .cell(c, 1)
              .cell(p.balls)
              .cell(r.window_max.mean(), 2)
              .cell(std::uint64_t{r.overall_max})
              .cell(mean_load, 0)
              .cell(r.window_max.mean() - mean_load, 2)
              .cell((r.window_max.mean() - mean_load) /
                        (mean_load * log2n(n)),
                    3);
        }
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
