// E4 -- Lemma 3: under the coupling, the Tetris process dominates the
// original process (per-bin, every round), and case (ii) never fires
// inside the window.
#include "analysis/experiments.hpp"
#include "runner/registry.hpp"

namespace rbb::runner {

void register_coupling(Registry& registry) {
  registry.add({
    .name = "coupling",
    .claim = "E4",
    .title =
        "Tetris stochastically dominates the original process (Lemma 3)",
    .description =
        "Runs the Lemma-3 coupled pair and reports, per n: the window "
        "maxima M_T and M-hat_T of the two coupled processes, the number "
        "of case-(ii) rounds (more than 3n/4 non-empty bins; predicted 0), "
        "the number of per-bin domination violations (predicted 0), and "
        "how many trials stayed dominated throughout (predicted all).",
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 4, 10);
      const std::uint64_t wf = by_scale<std::uint64_t>(ctx.scale, 5, 20, 40);

      ResultSet rs;
      Table& table = rs.add_table(
          "E4_coupling",
          "Tetris stochastically dominates the original process (Lemma 3)",
          {"n", "window", "trials", "M_T orig (mean)", "M_T tetris (mean)",
           "case-(ii) rounds", "violations", "dominated trials"});
      for (const std::uint32_t n : default_n_sweep(ctx.scale)) {
        CouplingParams p;
        p.n = n;
        p.rounds = wf * n;
        p.trials = trials;
        p.seed = ctx.seed();
        const CouplingResult r = run_coupling(p);
        table.row()
            .cell(std::uint64_t{n})
            .cell(p.rounds)
            .cell(std::uint64_t{trials})
            .cell(r.original_window_max.mean(), 2)
            .cell(r.tetris_window_max.mean(), 2)
            .cell(r.total_case_two_rounds)
            .cell(r.total_violation_rounds)
            .cell(std::uint64_t{r.trials_dominated_throughout});
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
