// E8 -- Corollary 1: the multi-token traversal on the clique has cover
// time O(n log^2 n).  The table sets it beside the single-walker coupon
// collector O(n log n) and reports the slowdown as measured.
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/fit.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_cover_time(Registry& registry) {
  registry.add({
    .name = "cover_time",
    .claim = "E8",
    .title = "parallel cover time is O(n log^2 n) (Corollary 1)",
    .description =
        "Per n: the global cover time of the n-token traversal, its "
        "normalization by n log2^2 n, the single-token coupon-collector "
        "baseline, the measured slowdown factor over it, and log2 n.  "
        "Corollary 1 is an upper bound on the cover time, so the slowdown "
        "is reported as measured, not checked against log n.  Power-law "
        "fits over the sweep report measured "
        "growth exponents for both series.  Backend-capable (token "
        "family): --backend=sharded drives the visit-tracking src/par/ "
        "token core (any queue policy, clique; the single-walk baseline "
        "stays sequential).  --threads sets the total budget and "
        "--trial-parallelism splits it between concurrent trials and "
        "the sharded rounds inside each trial.",
    .kind = ExperimentKind::kTrialKernel,
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 4, 10);
      const std::vector<std::uint32_t> ns =
          ctx.scale == BenchScale::kSmoke
              ? std::vector<std::uint32_t>{64, 128}
              : (ctx.scale == BenchScale::kPaper
                     ? std::vector<std::uint32_t>{256, 512, 1024, 2048}
                     : std::vector<std::uint32_t>{128, 256, 512, 1024});

      ResultSet rs;
      Table& table = rs.add_table(
          "E8_cover_time",
          "parallel cover time is O(n log^2 n) (Corollary 1)",
          {"n", "trials", "cover (mean)", "cover / (n log2^2 n)",
           "single walk (mean)", "slowdown", "log2 n", "timeouts"});
      std::vector<double> xs;
      std::vector<double> covers;
      std::vector<double> singles;
      for (const std::uint32_t n : ns) {
        CoverTimeParams p;
        p.n = n;
        p.trials = trials;
        p.seed = ctx.seed();
        p.plan = ctx.trial_plan(trials);
        const CoverTimeResult r = run_cover_time(p);
        const double slowdown = r.single_walk.mean() > 0
                                    ? r.cover_time.mean() / r.single_walk.mean()
                                    : 0.0;
        table.row()
            .cell(std::uint64_t{n})
            .cell(std::uint64_t{trials})
            .cell(r.cover_time.mean(), 0)
            .cell(r.normalized.mean(), 3)
            .cell(r.single_walk.mean(), 0)
            .cell(slowdown, 2)
            .cell(log2n(n), 2)
            .cell(std::uint64_t{r.timeouts});
        xs.push_back(static_cast<double>(n));
        covers.push_back(r.cover_time.mean());
        singles.push_back(r.single_walk.mean());
      }
      const PowerLawFit cover_fit = fit_power_law(xs, covers);
      const PowerLawFit single_fit = fit_power_law(xs, singles);
      rs.note("fitted growth laws: parallel cover ~ n^" +
              format_double(cover_fit.exponent, 3) +
              " (R^2 = " + format_double(cover_fit.r_squared, 4) +
              "), single walk ~ n^" + format_double(single_fit.exponent, 3) +
              "   [n log^2 n ~ n^{1+2 log log n / log n}: expect parallel "
              "exponent ~1.2-1.4 on this range, single ~1.1]");
      return rs;
    },
  });
}

}  // namespace rbb::runner
