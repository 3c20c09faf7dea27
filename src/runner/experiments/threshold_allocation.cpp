// Extra -- 1-2-3-Toolkit threshold allocation on the repeated process:
// each relaunched ball probes up to `probes` uniform bins and settles
// in the first whose load is at or below an accept threshold (else the
// last probed).  An adaptive rule the Variant axis of the policy core
// absorbs without touching the execution policies: one probe is the
// paper's process, and a small probe budget against a near-mean
// threshold already buys most of Greedy[d]'s flattening.
#include <cmath>

#include "analysis/experiments.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_threshold_allocation(Registry& registry) {
  registry.add({
    .name = "threshold_allocation",
    .title = "threshold allocation: probe-until-below-threshold relaunches",
    .description =
        "Per n and probe budget in {1, 2, 3}, the window max load of the "
        "repeated process where each relaunched ball settles in the first "
        "of up to `probes` uniform candidates with load <= threshold "
        "(default: mean load + 1).  probes = 1 is the paper's process; "
        "more probes interpolate toward the d-choices log log n regime "
        "while querying load values only, never comparing bins "
        "(the 1-2-3 threshold-allocation toolkit rule).  Backend-capable "
        "(threshold family): --backend=sharded runs the batch-snapshot "
        "convention of the src/par/ counter-RNG kernel (probes read the "
        "post-departure configuration).  --threads sets the total budget and "
        "--trial-parallelism splits it between concurrent trials and "
        "the sharded rounds inside each trial.",
    .kind = ExperimentKind::kTrialKernel,
    .params = {
        {"threshold", ParamSpec::Type::kU64, "0",
         "accept bound on the probed load (0 = mean load + 1)"},
        {"window-factor", ParamSpec::Type::kU64, "0",
         "window = factor * n rounds (0 = scale default)"},
    },
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 4, 8);
      const std::uint64_t wf =
          ctx.params.u64("window-factor") != 0
              ? ctx.params.u64("window-factor")
              : by_scale<std::uint64_t>(ctx.scale, 5, 15, 40);

      ResultSet rs;
      Table& table = rs.add_table(
          "threshold_allocation",
          "threshold allocation: probe-until-below-threshold relaunches",
          {"n", "probes", "threshold", "window max (mean)",
           "window max (worst)", "max / log2 n", "log2 log2 n"});
      for (const std::uint32_t n : default_n_sweep(ctx.scale)) {
        for (const std::uint32_t probes : {1u, 2u, 3u}) {
          StabilityParams p;
          p.n = n;
          p.rounds = wf * n;
          p.trials = trials;
          p.seed = ctx.seed();
          p.process = StabilityProcess::kThreshold;
          p.choices = probes;
          p.threshold = ctx.params.u32("threshold");
          p.plan = ctx.trial_plan(trials);
          const StabilityResult r = run_stability(p);
          table.row()
              .cell(std::uint64_t{n})
              .cell(std::uint64_t{probes})
              .cell(p.threshold != 0 ? std::uint64_t{p.threshold}
                                     : std::uint64_t{2})
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
