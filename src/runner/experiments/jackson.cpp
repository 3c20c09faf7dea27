// E17 -- Sect. 1.3: the closed Jackson network is the classical-queueing
// relative of the repeated process (sequential events, product-form
// stationary distribution) -- how do its queue lengths compare?
#include "analysis/experiments.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_jackson(Registry& registry) {
  registry.add({
    .name = "jackson",
    .claim = "E17",
    .title =
        "sequential product-form relative vs the parallel process",
    .description =
        "Per n, the closed Jackson network's running max queue over a "
        "horizon of 20n time units vs the repeated process's window max "
        "over 20n rounds (one round ~ one time unit: every busy station "
        "completes ~one service per unit).  Both stay logarithmic; the "
        "Jackson maximum runs higher because its geometric-tailed "
        "marginals are heavier than the parallel process's.",
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 4, 10);
      const std::uint64_t wf = by_scale<std::uint64_t>(ctx.scale, 5, 20, 40);

      ResultSet rs;
      Table& table = rs.add_table(
          "E17_jackson",
          "sequential product-form relative vs the parallel process",
          {"n", "jackson running max", "jackson / log2 n",
           "repeated window max", "repeated / log2 n",
           "jackson events / unit time"});
      for (const std::uint32_t n : default_n_sweep(ctx.scale)) {
        JacksonParams jp;
        jp.n = n;
        jp.horizon = static_cast<double>(wf * n);
        jp.trials = trials;
        jp.seed = ctx.seed();
        const JacksonResult jr = run_jackson(jp);

        StabilityParams sp;
        sp.n = n;
        sp.rounds = wf * n;
        sp.trials = trials;
        sp.seed = ctx.seed() + 1;
        const StabilityResult sr = run_stability(sp);

        table.row()
            .cell(std::uint64_t{n})
            .cell(jr.running_max.mean(), 2)
            .cell(jr.running_max.mean() / log2n(n), 3)
            .cell(sr.window_max.mean(), 2)
            .cell(sr.window_max.mean() / log2n(n), 3)
            .cell(jr.events_per_unit_time.mean(), 1);
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
