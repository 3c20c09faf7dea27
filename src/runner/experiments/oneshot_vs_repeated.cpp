// E12 -- Sect. 5 tightness question: the one-shot lower bound
// Theta(log n / log log n) applies to every round of the repeated
// process; the paper's upper bound is O(log n).  Where does the repeated
// process actually sit?
#include <algorithm>

#include "analysis/experiments.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_oneshot_vs_repeated(Registry& registry) {
  registry.add({
    .name = "oneshot_vs_repeated",
    .claim = "E12",
    .title =
        "repeated-process max load sits between the one-shot floor and "
        "O(log n)",
    .description =
        "Per n: the one-shot max load, the repeated process's window max, "
        "the unconstrained independent-walks window max, and both "
        "normalizations (by log n / log log n and by log2 n).  The "
        "repeated window max grows like log n (normalization by log2 n "
        "flattens; the other diverges), consistent with the paper's "
        "conjecture that the log n bound is tight.",
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(3, 6, 12);
      const std::uint64_t wf = by_scale<std::uint64_t>(ctx.scale, 5, 20, 50);

      ResultSet rs;
      Table& table = rs.add_table(
          "E12_oneshot_vs_repeated",
          "repeated-process max load sits between the one-shot floor and "
          "O(log n)",
          {"n", "one-shot max", "repeated window max",
           "indep walks window max", "repeated / (ln n/ln ln n)",
           "repeated / log2 n"});
      for (const std::uint32_t n : default_n_sweep(ctx.scale)) {
        OneShotParams op;
        op.n = n;
        op.trials = trials * 4;  // cheap; sharpen the baseline
        op.seed = ctx.seed();
        const OneShotResult oneshot = run_oneshot(op);

        StabilityParams sp;
        sp.n = n;
        sp.rounds = wf * n;
        sp.trials = trials;
        sp.seed = ctx.seed() + 1;
        const StabilityResult repeated = run_stability(sp);

        sp.process = StabilityProcess::kIndependent;
        sp.rounds = std::min<std::uint64_t>(sp.rounds, 5ull * n);  // O(m)
        const StabilityResult indep = run_stability(sp);

        table.row()
            .cell(std::uint64_t{n})
            .cell(oneshot.max_load.mean(), 2)
            .cell(repeated.window_max.mean(), 2)
            .cell(indep.window_max.mean(), 2)
            .cell(repeated.window_max.mean() / oneshot_max_load_asymptotic(n),
                  3)
            .cell(repeated.window_max.mean() / log2n(n), 3);
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
