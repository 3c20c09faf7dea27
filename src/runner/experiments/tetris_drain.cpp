// E5 -- Lemma 4: in the Tetris process, every bin is empty at least once
// within 5n rounds, from any initial configuration, w.h.p.
#include "analysis/experiments.hpp"
#include "runner/registry.hpp"

namespace rbb::runner {

void register_tetris_drain(Registry& registry) {
  registry.add({
    .name = "tetris_drain",
    .claim = "E5",
    .title = "every Tetris bin empties within 5n rounds (Lemma 4)",
    .description =
        "Per n and adversarial start (all-in-one, geometric, half-loaded), "
        "the max-over-bins first-empty round normalized by n (prediction: "
        "<= 5, measured ~1 from all-in-one) and the count of trials "
        "exceeding 5n (predicted 0).",
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(3, 8, 20);

      ResultSet rs;
      Table& table = rs.add_table(
          "E5_tetris_drain",
          "every Tetris bin empties within 5n rounds (Lemma 4)",
          {"n", "start", "trials", "drain (mean rounds)", "drain / n (mean)",
           "drain / n (max)", "> 5n", "timeouts"});
      for (const std::uint32_t n : default_n_sweep(ctx.scale)) {
        for (const InitialConfig start :
             {InitialConfig::kAllInOne, InitialConfig::kGeometric,
              InitialConfig::kHalfLoaded}) {
          TetrisDrainParams p;
          p.n = n;
          p.trials = trials;
          p.seed = ctx.seed();
          p.start = start;
          const TetrisDrainResult r = run_tetris_drain(p);
          table.row()
              .cell(std::uint64_t{n})
              .cell(std::string(to_string(start)))
              .cell(std::uint64_t{trials})
              .cell(r.max_first_empty.mean(), 1)
              .cell(r.normalized.mean(), 3)
              .cell(r.normalized.max(), 3)
              .cell(std::uint64_t{r.exceeded_5n})
              .cell(std::uint64_t{r.timeouts});
        }
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
