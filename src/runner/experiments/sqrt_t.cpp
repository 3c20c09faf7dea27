// E11 -- Sect. 1.2 / 3.1: the best previous bound [12] on the maximum
// load after t rounds was O(sqrt(t)); Theorem 1 replaces it with a flat
// O(log n).
#include <cmath>

#include "analysis/experiments.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_sqrt_t(Registry& registry) {
  registry.add({
    .name = "sqrt_t",
    .claim = "E11",
    .title = "max load flat in t: O(log n) beats the old O(sqrt t)",
    .description =
        "The running maximum load max_{s<=t} M(s) at geometric round "
        "checkpoints, against sqrt(t) and log2 n.  The measured series "
        "flattens around ~2 log2 n while sqrt(t) diverges -- the paper's "
        "headline improvement made visible.",
    .params = {
        {"n", ParamSpec::Type::kU64, "0", "bins (0 = scale default)"},
    },
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 4, 10);
      const std::uint32_t n =
          ctx.params.u64("n") != 0
              ? ctx.params.u32("n")
              : by_scale<std::uint32_t>(ctx.scale, 512, 2048, 8192);

      SqrtTParams p;
      p.n = n;
      p.trials = trials;
      p.seed = ctx.seed();
      const std::uint64_t horizon =
          by_scale<std::uint64_t>(ctx.scale, 1u << 12, 1u << 16, 1u << 19);
      for (std::uint64_t t = 16; t <= horizon; t *= 4) {
        p.checkpoints.push_back(t);
      }
      const SqrtTResult r = run_sqrt_t(p);

      ResultSet rs;
      Table& table = rs.add_table(
          "E11_sqrt_t", "max load flat in t: O(log n) beats the old O(sqrt t)",
          {"t (rounds)", "running max (mean)", "running max (worst)",
           "sqrt(t)", "log2 n", "max / log2 n"});
      for (std::size_t i = 0; i < p.checkpoints.size(); ++i) {
        table.row()
            .cell(p.checkpoints[i])
            .cell(r.running_max_mean[i], 2)
            .cell(std::uint64_t{r.running_max_worst[i]})
            .cell(std::sqrt(static_cast<double>(p.checkpoints[i])), 1)
            .cell(log2n(n), 1)
            .cell(r.running_max_mean[i] / log2n(n), 3);
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
