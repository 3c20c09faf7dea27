// Overload -- Sect. 5 open question: does self-stabilization survive
// m > n balls (up to m = O(n log n))?  Rides outside the numbered
// experiment map (DESIGN.md Sect. 4).
#include "analysis/experiments.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_overload(Registry& registry) {
  registry.add({
    .name = "overload",
    .title = "m > n: loads grow additively with m/n (open question)",
    .description =
        "Per m/n ratio, the window max load, its ratio to (m/n + log2 n) "
        "(the natural guess for the overloaded regime), and the minimum "
        "empty fraction -- which drops below 1/4 once m/n is large, so the "
        "Lemma-1 argument visibly breaks while loads may stay moderate.",
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

      const double logn = log2n(n);
      ResultSet rs;
      Table& table = rs.add_table(
          "E13_overload",
          "m > n: loads grow additively with m/n (open question)",
          {"m / n", "m", "window max (mean)", "max / (m/n + log2 n)",
           "min empty frac", "mean final max"});
      for (const double ratio : {0.5, 1.0, 2.0, 4.0, logn}) {
        const auto m =
            static_cast<std::uint64_t>(ratio * static_cast<double>(n));
        StabilityParams p;
        p.n = n;
        p.balls = m;
        p.rounds = wf * n;
        p.trials = trials;
        p.seed = ctx.seed();
        const StabilityResult r = run_stability(p);
        table.row()
            .cell(ratio, 2)
            .cell(m)
            .cell(r.window_max.mean(), 2)
            .cell(r.window_max.mean() / (ratio + logn), 3)
            .cell(r.min_empty_fraction.min(), 3)
            .cell(r.final_max.mean(), 2);
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
