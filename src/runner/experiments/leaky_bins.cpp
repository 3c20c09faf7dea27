// E16 -- follow-up work [18] (Berenbrink et al., PODC 2016): leaky bins
// with Binomial(n, lambda) arrivals per round.
#include "analysis/experiments.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_leaky_bins(Registry& registry) {
  registry.add({
    .name = "leaky_bins",
    .claim = "E16",
    .title =
        "leaky bins: stability below the critical arrival rate ([18])",
    .description =
        "Per lambda, the stationary window max load, mean queue mass per "
        "bin, and mean empty fraction of the leaky-bins process "
        "(probabilistic Tetris of [18]).  Subcritical lambda < 1 is stable "
        "with O(log n)-ish loads; lambda = 1 loses the drift and the mass "
        "wanders.  Backend-capable (leaky family): --backend=sharded runs "
        "the src/par/ counter-RNG kernel -- deletions happen in the "
        "departure scan, the per-round Binomial(n, lambda) count comes "
        "from the round's derived counter substream, and arrivals are "
        "count-split over fixed 2^14-bin leaves by conditional binomials "
        "(same law as ball-by-ball throwing, different trajectories).  "
        "--threads sets the total budget and "
        "--trial-parallelism splits it between concurrent trials and "
        "the sharded rounds inside each trial.",
    .kind = ExperimentKind::kTrialKernel,
    .params = {
        {"n", ParamSpec::Type::kU64, "0", "bins (0 = scale default)"},
    },
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 4, 8);
      const std::uint32_t n =
          ctx.params.u64("n") != 0
              ? ctx.params.u32("n")
              : by_scale<std::uint32_t>(ctx.scale, 512, 2048, 8192);
      const std::uint64_t wf = by_scale<std::uint64_t>(ctx.scale, 5, 15, 40);

      ResultSet rs;
      Table& table = rs.add_table(
          "E16_leaky_bins",
          "leaky bins: stability below the critical arrival rate ([18])",
          {"lambda", "window max (mean)", "max / log2 n", "mean mass / bin",
           "mean empty frac"});
      for (const double lambda : {0.5, 0.75, 0.9, 0.95, 1.0}) {
        LeakyParams p;
        p.n = n;
        p.lambda = lambda;
        p.burn_in = 2ull * n;
        p.rounds = wf * n;
        p.trials = trials;
        p.seed = ctx.seed();
        p.plan = ctx.trial_plan(trials);
        const LeakyResult r = run_leaky(p);
        table.row()
            .cell(lambda, 2)
            .cell(r.window_max.mean(), 2)
            .cell(r.window_max.mean() / log2n(n), 3)
            .cell(r.mean_total_per_bin.mean(), 3)
            .cell(r.mean_empty_fraction.mean(), 3);
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
