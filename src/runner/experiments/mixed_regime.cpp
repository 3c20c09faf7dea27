// E23 -- the mixed-regime engine: m = c n, per-ball integer weights and
// per-bin (rate, capacity) heterogeneity in one scenario description
// (core/mixed_config.hpp), executed by the policy core's mixed kernel.
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "core/mixed_config.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_mixed_regime(Registry& registry) {
  registry.add({
    .name = "mixed_regime",
    .claim = "E23",
    .title = "mixed regimes: weighted balls and heterogeneous bins, m = c n",
    .description =
        "Per n and ball ratio c in {0.5, 1, 2, 8}, runs the mixed-regime "
        "process -- per-ball integer weights (--weights profile) and "
        "per-bin release rates / capacities (--bin-profile) -- and reports "
        "the window max load, the window max WEIGHTED load (hot-key "
        "pressure the unweighted maximum cannot see), the mean empty-bin "
        "fraction, the peak capacity utilization and the dropped-ball "
        "fraction (capped profiles only).  The raw maximum follows Los & "
        "Sauerwald's regime ordering in c; stalled bins (rate 0) hoard "
        "their initial load and never release.  Backend-capable (mixed "
        "family): --backend=sharded replays every configuration on the "
        "src/par/ counter-RNG kernel bit-identically.  --threads sets the total budget and "
        "--trial-parallelism splits it between concurrent trials and "
        "the sharded rounds inside each trial.",
    .kind = ExperimentKind::kTrialKernel,
    .params = {
        {"ball-ratio", ParamSpec::Type::kF64, "0",
         "single m/n ratio instead of the {0.5, 1, 2, 8} sweep"},
        {"weights", ParamSpec::Type::kString, "unit",
         "weight profile: unit, bimodal or zipf"},
        {"bin-profile", ParamSpec::Type::kString, "uniform",
         "bin profile: uniform, two-speed, stalled-tenth or capped"},
        {"rounds-factor", ParamSpec::Type::kU64, "0",
         "window = factor * n rounds (0 = scale default)"},
        {"n", ParamSpec::Type::kU64, "0",
         "run a single n instead of the scale sweep"},
    },
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 4, 8);
      const std::uint64_t rf =
          ctx.params.u64("rounds-factor") != 0
              ? ctx.params.u64("rounds-factor")
              : by_scale<std::uint64_t>(ctx.scale, 4, 10, 25);
      const std::vector<std::uint32_t> ns =
          ctx.params.u64("n") != 0
              ? std::vector<std::uint32_t>{ctx.params.u32("n")}
              : default_n_sweep(ctx.scale);
      const std::vector<double> ratios =
          ctx.params.f64("ball-ratio") != 0
              ? std::vector<double>{ctx.params.f64("ball-ratio")}
              : std::vector<double>{0.5, 1.0, 2.0, 8.0};
      const std::string weights = ctx.params.str("weights");
      const std::string bin_profile = ctx.params.str("bin-profile");

      ResultSet rs;
      Table& table = rs.add_table(
          "E23_mixed_regime",
          "mixed regimes: weighted balls and heterogeneous bins, m = c n",
          {"n", "c", "m", "weights", "bins", "window max (mean)",
           "weighted max (mean)", "mean empty frac", "peak util",
           "dropped frac"});
      for (const std::uint32_t n : ns) {
        for (const double c : ratios) {
          MixedParams p;
          p.n = n;
          p.ball_ratio = c;
          p.weights = weights;
          p.bin_profile = bin_profile;
          p.rounds = rf * n;
          p.trials = trials;
          p.seed = ctx.seed();
          p.plan = ctx.trial_plan(trials);
          const MixedResult r = run_mixed(p);
          const MixedSpec spec = make_mixed_spec(n, c, weights, bin_profile);
          table.row()
              .cell(std::uint64_t{n})
              .cell(c, 1)
              .cell(spec.balls)
              .cell(weights)
              .cell(bin_profile)
              .cell(r.window_max.mean(), 2)
              .cell(r.window_max_weighted.mean(), 2)
              .cell(r.mean_empty_fraction.mean(), 3)
              .cell(r.max_utilization.max(), 3)
              .cell(r.dropped_fraction.mean(), 4);
        }
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
