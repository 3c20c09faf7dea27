// E6 -- Lemma 5: for the eq.-(4) chain started at k, for t >= 8k,
// P(tau > t) <= e^{-t/144}.
#include "analysis/experiments.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_zchain(Registry& registry) {
  registry.add({
    .name = "zchain",
    .claim = "E6",
    .title = "absorption-time tail obeys Lemma 5's e^{-t/144}",
    .description =
        "Per start k, the empirical absorption tail P(tau > t) of the "
        "eq.-(4) Z-chain at a grid of t values vs the Lemma-5 bound "
        "e^{-t/144}.  The bound's rate constant 1/144 is loose by design; "
        "the empirical decay rate is much faster (the drift is -1/4, so "
        "the true rate is Theta(1)).",
    .params = {
        {"n", ParamSpec::Type::kU64, "4096",
         "system size parameterizing the arrival law"},
    },
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(20000, 200000, 1000000);
      const auto n = ctx.params.u32("n");

      ResultSet rs;
      Table& table = rs.add_table(
          "E6_zchain", "absorption-time tail obeys Lemma 5's e^{-t/144}",
          {"start k", "t", "P(tau > t) empirical", "e^{-t/144} bound",
           "bound holds", "E[tau] (mean)"});
      for (const std::uint64_t k : {2ull, 8ull, 32ull}) {
        ZChainTailParams p;
        p.n = n;
        p.start = k;
        p.ts = {8 * k, 16 * k, 32 * k, 64 * k};
        p.trials = trials;
        p.seed = ctx.seed();
        const ZChainTailResult r = run_zchain_tail(p);
        for (std::size_t i = 0; i < p.ts.size(); ++i) {
          const double bound = zchain_tail_bound(static_cast<double>(p.ts[i]));
          table.row()
              .cell(k)
              .cell(p.ts[i])
              .cell(r.empirical_tail[i], 6)
              .cell(bound, 6)
              .cell(std::string(r.empirical_tail[i] <= bound + 1e-9 ? "yes"
                                                                    : "NO"))
              .cell(r.absorption_time.mean(), 2);
        }
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
