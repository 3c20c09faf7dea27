// E1 -- Theorem 1 (stability): from a legitimate configuration the
// repeated balls-into-bins process visits only legitimate configurations
// over a long window.
#include <vector>

#include "analysis/experiments.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_stability(Registry& registry) {
  registry.add({
    .name = "stability",
    .claim = "E1",
    .title = "window max load stays O(log n) (Theorem 1)",
    .description =
        "From the one-per-bin legitimate start, runs the repeated "
        "balls-into-bins process for a window of c*n rounds and reports the "
        "per-trial maximum load, its ratio to log2(n) (the paper's O(log n) "
        "constant made visible), the minimum empty-bin fraction (Lemma 1 "
        "floor: 1/4), and the fraction of trials whose whole window stayed "
        "legitimate at beta = 4.  Backend-capable (load-only family): "
        "--backend=sharded runs the window on the src/par/ counter-RNG "
        "kernel; --threads sets the total budget and --trial-parallelism "
        "splits it between concurrent trials and sharded rounds inside "
        "each trial.",
    .kind = ExperimentKind::kTrialKernel,
    .params = {
        {"window-factor", ParamSpec::Type::kU64, "0",
         "window = factor * n rounds (0 = scale default)"},
        {"n", ParamSpec::Type::kU64, "0",
         "run a single n instead of the scale sweep"},
        {"ball-ratio", ParamSpec::Type::kF64, "0",
         "balls m = round(ratio * n) (0 = the paper's m = n)"},
    },
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 4, 8);
      const std::uint64_t wf =
          ctx.params.u64("window-factor") != 0
              ? ctx.params.u64("window-factor")
              : by_scale<std::uint64_t>(ctx.scale, 5, 20, 50);
      const std::vector<std::uint32_t> ns =
          ctx.params.u64("n") != 0
              ? std::vector<std::uint32_t>{ctx.params.u32("n")}
              : default_n_sweep(ctx.scale);

      ResultSet rs;
      Table& table = rs.add_table(
          "E1_stability", "window max load stays O(log n) (Theorem 1)",
          {"n", "window (rounds)", "trials", "max load (mean)",
           "max load (worst)", "max / log2 n", "min empty frac",
           "legit frac (beta=4)"});
      for (const std::uint32_t n : ns) {
        StabilityParams p;
        p.n = n;
        p.rounds = wf * n;
        p.trials = trials;
        p.seed = ctx.seed();
        p.start = InitialConfig::kOnePerBin;
        p.balls = ctx.params.balls_for_ratio("ball-ratio", n);
        p.plan = ctx.trial_plan(trials);
        const StabilityResult r = run_stability(p);
        table.row()
            .cell(std::uint64_t{n})
            .cell(p.rounds)
            .cell(std::uint64_t{trials})
            .cell(r.window_max.mean(), 2)
            .cell(std::uint64_t{r.overall_max})
            .cell(r.window_max.mean() / log2n(n), 3)
            .cell(r.min_empty_fraction.min(), 3)
            .cell(r.legit_window_fraction, 2);
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
