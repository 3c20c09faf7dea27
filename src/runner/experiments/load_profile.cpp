// E20 -- stationary load profile: the occupancy distribution
// P(load >= k) of the repeated process against its three relatives.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "runner/registry.hpp"

namespace rbb::runner {

void register_load_profile(Registry& registry) {
  registry.add({
    .name = "load_profile",
    .claim = "E20",
    .title =
        "occupancy tails: geometric decay across all four processes",
    .description =
        "For fixed n, the fraction of bins with load >= k for k = 0..kmax, "
        "for the repeated process (correlated walks), independent walks "
        "(fresh Poisson(1)-like occupancy), Tetris (more arrivals: heavier "
        "head, same geometric tail), and the closed Jackson network "
        "(product-form ~ geometric marginals -- the heaviest tail).  This "
        "is the distributional view behind the max-load theorems: the "
        "repeated process's tail decays geometrically with ratio well "
        "below 1, which is why its maximum stays at O(log n).",
    .params = {
        {"n", ParamSpec::Type::kU64, "0", "bins (0 = scale default)"},
    },
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 3, 6);
      const std::uint32_t n =
          ctx.params.u64("n") != 0
              ? ctx.params.u32("n")
              : by_scale<std::uint32_t>(ctx.scale, 512, 2048, 8192);

      const std::vector<std::pair<ProfileProcess, std::string>> processes = {
          {ProfileProcess::kRepeated, "repeated"},
          {ProfileProcess::kIndependent, "indep walks"},
          {ProfileProcess::kTetris, "tetris"},
          {ProfileProcess::kJackson, "jackson"},
      };
      std::vector<LoadProfileResult> results;
      std::uint64_t kmax = 0;
      for (const auto& [process, name] : processes) {
        LoadProfileParams p;
        p.n = n;
        p.process = process;
        p.trials = trials;
        p.seed = ctx.seed();
        results.push_back(run_load_profile(p));
        kmax = std::max<std::uint64_t>(kmax, results.back().tail.size());
      }
      kmax = std::min<std::uint64_t>(kmax, 14);

      ResultSet rs;
      Table& table = rs.add_table(
          "E20_load_profile",
          "occupancy tails: geometric decay across all four processes",
          {"k", "P(load>=k) repeated", "indep walks", "tetris", "jackson"});
      for (std::uint64_t k = 0; k < kmax; ++k) {
        auto tail_at = [&](std::size_t idx) {
          return k < results[idx].tail.size() ? results[idx].tail[k] : 0.0;
        };
        table.row()
            .cell(k)
            .cell(tail_at(0), 6)
            .cell(tail_at(1), 6)
            .cell(tail_at(2), 6)
            .cell(tail_at(3), 6);
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
