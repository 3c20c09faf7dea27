// E15 -- extension [36]: repeated balls-into-bins where each re-launched
// ball picks d bins and joins the least loaded.
#include <cmath>

#include "analysis/experiments.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_dchoices(Registry& registry) {
  registry.add({
    .name = "dchoices",
    .claim = "E15",
    .title = "repeated d-choices flattens the maximum load ([36])",
    .description =
        "Per n and d, the window max load of the repeated d-choices "
        "process.  d = 1 is the paper's process (~2 log2 n); d >= 2 "
        "collapses the maximum into the log log n regime -- the power of "
        "two choices persists under repetition.  Backend-capable "
        "(d-choices family): --backend=sharded runs the src/par/ "
        "counter-RNG kernels (batch-snapshot Greedy[d]: choices read the "
        "post-departure configuration, the convention a parallel round "
        "can realize; cf. the batched setting of Berenbrink et al. 2016).  --threads sets the total budget and "
        "--trial-parallelism splits it between concurrent trials and "
        "the sharded rounds inside each trial.",
    .kind = ExperimentKind::kTrialKernel,
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 4, 8);
      const std::uint64_t wf = by_scale<std::uint64_t>(ctx.scale, 5, 15, 40);

      ResultSet rs;
      Table& table = rs.add_table(
          "E15_dchoices",
          "repeated d-choices flattens the maximum load ([36])",
          {"n", "d", "window max (mean)", "window max (worst)",
           "max / log2 n", "log2 log2 n"});
      for (const std::uint32_t n : default_n_sweep(ctx.scale)) {
        for (const std::uint32_t d : {1u, 2u, 3u}) {
          StabilityParams p;
          p.n = n;
          p.rounds = wf * n;
          p.trials = trials;
          p.seed = ctx.seed();
          p.process = d == 1 ? StabilityProcess::kRepeated
                             : StabilityProcess::kRepeatedDChoice;
          p.choices = d;
          p.plan = ctx.trial_plan(trials);
          const StabilityResult r = run_stability(p);
          table.row()
              .cell(std::uint64_t{n})
              .cell(std::uint64_t{d})
              .cell(r.window_max.mean(), 2)
              .cell(std::uint64_t{r.overall_max})
              .cell(r.window_max.mean() / log2n(n), 3)
              .cell(std::log2(log2n(n)), 2);
        }
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
