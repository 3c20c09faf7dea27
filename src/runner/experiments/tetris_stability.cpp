// E7 -- Lemma 6: the Tetris process started from a legitimate
// configuration keeps maximum load O(log n) over any polynomial window,
// plus the critical-drift ablation (arrival rate mu*n as mu -> 1).
#include <cstdint>

#include "analysis/experiments.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"
#include "support/stats.hpp"

namespace rbb::runner {

void register_tetris_stability(Registry& registry) {
  registry.add({
    .name = "tetris_stability",
    .claim = "E7",
    .title = "Tetris window max load is O(log n) (Lemma 6)",
    .description =
        "Mirror of the E1 stability window for the auxiliary Tetris "
        "process.  Includes the critical-drift ablation: raising the "
        "arrival rate from 3n/4 toward n erodes the negative drift and the "
        "window max load grows -- showing why the 3/4 constant works.  "
        "Backend-capable (Tetris family): --backend=sharded runs both "
        "tables on the src/par/ counter-RNG kernel (count-split "
        "arrivals; same statistics, different trajectories).  --threads sets the total budget and "
        "--trial-parallelism splits it between concurrent trials and "
        "the sharded rounds inside each trial.",
    .kind = ExperimentKind::kTrialKernel,
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 4, 8);
      const std::uint64_t wf = by_scale<std::uint64_t>(ctx.scale, 5, 20, 50);
      const std::uint64_t seed = ctx.seed();
      const TrialPlan plan = ctx.trial_plan(trials);

      ResultSet rs;
      Table& table = rs.add_table(
          "E7_tetris_stability",
          "Tetris window max load is O(log n) (Lemma 6)",
          {"n", "window", "max load (mean)", "max / log2 n",
           "min empty frac"});
      for (const std::uint32_t n : default_n_sweep(ctx.scale)) {
        const TetrisWindowResult r = run_tetris_window(
            {.n = n, .rounds = wf * n, .trials = trials, .seed = seed,
             .plan = plan});
        table.row()
            .cell(std::uint64_t{n})
            .cell(wf * n)
            .cell(r.max_load.mean(), 2)
            .cell(r.max_load.mean() / log2n(n), 3)
            .cell(r.min_empty_fraction.min(), 3);
      }

      // Ablation: arrival rate mu * n for mu -> 1 (the drift -(1 - mu)
      // vanishing).  Fixed n, same window.
      const std::uint32_t n =
          by_scale<std::uint32_t>(ctx.scale, 256, 1024, 4096);
      Table& ablation = rs.add_table(
          "E7b_tetris_critical",
          "ablation: why 3/4 -- max load explodes as mu -> 1",
          {"arrival fraction mu", "drift per bin", "max load (mean)",
           "mean empty frac", "final total balls / n"});
      for (const double mu : {0.5, 0.75, 0.9, 0.95, 1.0}) {
        const TetrisWindowResult r = run_tetris_window(
            {.n = n,
             .arrivals =
                 static_cast<std::uint64_t>(mu * static_cast<double>(n)),
             .rounds = 10ull * n,
             .trials = trials,
             .seed = seed + 17,
             .plan = plan});
        ablation.row()
            .cell(mu, 2)
            .cell(mu - 1.0, 2)
            .cell(r.max_load.mean(), 2)
            .cell(r.mean_empty_fraction.mean(), 3)
            .cell(r.final_balls_per_bin.mean(), 3);
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
