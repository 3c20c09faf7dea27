// E3 -- Lemmas 1-2: at every round after the first, at least n/4 bins
// are empty, w.h.p., from any start.  Includes the single-round
// validation of Lemma 1's proof-side expectation bound.
#include <cmath>
#include <cstdint>
#include <vector>

#include "analysis/experiments.hpp"
#include "core/process.hpp"
#include "engine/trials.hpp"
#include "runner/registry.hpp"

namespace rbb::runner {

void register_empty_bins(Registry& registry) {
  registry.add({
    .name = "empty_bins",
    .claim = "E3",
    .title = "empty-bin fraction never drops below 1/4 (Lemmas 1-2)",
    .description =
        "Per n and start, the minimum and mean empty-bin fraction over the "
        "window and the count of trials that ever dipped below the 1/4 "
        "floor (predicted: 0); the equilibrium value sits near 0.33.  A "
        "second table validates Lemma 1's proof directly: from a "
        "configuration with a empty and b singleton bins, one round leaves "
        "E[X] >= (a + b) exp(-(n - a)/(n - 1)) bins empty, measured over "
        "many single-round trials.  Backend-capable (load-only family): "
        "--backend=sharded runs the window sweep on the src/par/ "
        "counter-RNG kernel (the single-round Lemma-1 table stays on the "
        "sequential kernel).  --threads sets the total budget and "
        "--trial-parallelism splits it between concurrent trials and "
        "the sharded rounds inside each trial.",
    .kind = ExperimentKind::kTrialKernel,
    .params = {
        {"ball-ratio", ParamSpec::Type::kF64, "0",
         "balls m = round(ratio * n) (0 = the paper's m = n; the Lemma-1 "
         "single-round table always uses m = n)"},
    },
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 4, 10);
      const std::uint64_t wf = by_scale<std::uint64_t>(ctx.scale, 5, 20, 50);
      const std::uint64_t seed = ctx.seed();

      ResultSet rs;
      Table& table = rs.add_table(
          "E3_empty_bins",
          "empty-bin fraction never drops below 1/4 (Lemmas 1-2)",
          {"n", "start", "window", "min empty frac", "mean empty frac",
           "trials < 1/4", "trials"});
      for (const std::uint32_t n : default_n_sweep(ctx.scale)) {
        for (const InitialConfig start :
             {InitialConfig::kOnePerBin, InitialConfig::kAllInOne,
              InitialConfig::kRandom}) {
          EmptyBinsParams p;
          p.n = n;
          p.rounds = wf * n;
          p.trials = trials;
          p.seed = seed;
          p.start = start;
          p.balls = ctx.params.balls_for_ratio("ball-ratio", n);
          p.plan = ctx.trial_plan(trials);
          const EmptyBinsResult r = run_empty_bins(p);
          table.row()
              .cell(std::uint64_t{n})
              .cell(std::string(to_string(start)))
              .cell(p.rounds)
              .cell(r.min_fraction.min(), 4)
              .cell(r.mean_fraction.mean(), 4)
              .cell(std::uint64_t{r.below_quarter})
              .cell(std::uint64_t{trials});
        }
      }

      // Single-round validation of Lemma 1's *proof*: E[X] >= (a + b) *
      // exp(-(n - a)/(n - 1)) and P(X <= n/4) <= e^{-alpha n}, measured
      // for three adversarial profiles.
      const std::uint32_t n1 =
          by_scale<std::uint32_t>(ctx.scale, 256, 1024, 4096);
      const std::uint32_t single_trials =
          by_scale<std::uint32_t>(ctx.scale, 2000, 10000, 50000);
      Table& lemma1 = rs.add_table(
          "E3b_lemma1_one_step",
          "single-round expectation bound from Lemma 1's proof",
          {"start", "a/n (empty)", "b/n (singletons)", "proof bound E[X]/n",
           "measured E[X]/n", "min X/n", "trials with X <= n/4"});
      for (const InitialConfig start :
           {InitialConfig::kOnePerBin, InitialConfig::kAllInOne,
            InitialConfig::kHalfLoaded}) {
        Rng cfg_rng(seed + 5);
        const LoadConfig base = make_config(start, n1, n1, cfg_rng);
        const double a = static_cast<double>(empty_bins(base));
        double b = 0;
        for (const auto load : base) b += load == 1 ? 1.0 : 0.0;
        const double bound =
            (a + b) * std::exp(-(static_cast<double>(n1) - a) /
                               (static_cast<double>(n1) - 1.0));
        // One slot per trial, folded in trial order: the table never
        // depends on which trial worker finished first.
        std::vector<std::uint32_t> empties(single_trials);
        for_each_trial(single_trials, seed + 6, ctx.trial_plan(single_trials),
                       [&, base](std::uint32_t trial, Rng& rng) {
                         RepeatedBallsProcess proc(base, rng.split());
                         empties[trial] = proc.step().empty_bins;
                       });
        OnlineMoments x;
        std::uint32_t below_quarter = 0;
        for (const std::uint32_t empty : empties) {
          x.add(static_cast<double>(empty));
          if (empty <= n1 / 4) ++below_quarter;
        }
        lemma1.row()
            .cell(std::string(to_string(start)))
            .cell(a / n1, 3)
            .cell(b / n1, 3)
            .cell(bound / n1, 4)
            .cell(x.mean() / n1, 4)
            .cell(x.min() / n1, 4)
            .cell(std::uint64_t{below_quarter});
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
