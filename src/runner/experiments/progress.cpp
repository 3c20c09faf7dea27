// E18 -- Sect. 4 / Sect. 1.2: under FIFO, every ball performs
// Omega(t / log n) steps of its random walk within any t = poly(n)
// rounds (no token starves).
#include "analysis/experiments.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_progress(Registry& registry) {
  registry.add({
    .name = "progress",
    .claim = "E18",
    .title = "every FIFO token advances Omega(t / log n) (Sect. 4)",
    .description =
        "Per n and queue policy, the minimum per-token progress after T "
        "rounds, the normalization min_progress * log2(n) / T (predicted "
        "bounded below by a constant; measured ~log-factor above it "
        "because the typical delay is O(1), not O(log n)), and the mean "
        "per-round progress (~ the non-empty bin fraction ~ 0.63).  LIFO "
        "and RANDOM are included: Theorem 1 is policy-oblivious for loads, "
        "but per-token progress under LIFO has no such guarantee -- the "
        "measured minimum visibly degrades.  Backend-capable (token "
        "family): --backend=sharded drives the src/par/ token core, which "
        "carries all three queue policies (random uses schedule-free "
        "pop-select draws), so the full policy sweep runs on either "
        "backend.  --threads sets the total budget and "
        "--trial-parallelism splits it between concurrent trials and "
        "the sharded rounds inside each trial.",
    .kind = ExperimentKind::kTrialKernel,
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 4, 10);
      const std::uint64_t wf = by_scale<std::uint64_t>(ctx.scale, 8, 16, 64);
      const std::vector<QueuePolicy> policies = {
          QueuePolicy::kFifo, QueuePolicy::kRandom, QueuePolicy::kLifo};

      ResultSet rs;
      Table& table = rs.add_table(
          "E18_progress",
          "every FIFO token advances Omega(t / log n) (Sect. 4)",
          {"n", "policy", "T (rounds)", "min progress (mean)",
           "min prog * log2 n / T", "mean progress / T"});
      for (const std::uint32_t n : default_n_sweep(ctx.scale)) {
        for (const QueuePolicy policy : policies) {
          ProgressParams p;
          p.n = n;
          p.rounds = wf * n;
          p.trials = trials;
          p.seed = ctx.seed();
          p.policy = policy;
          p.plan = ctx.trial_plan(trials);
          const ProgressResult r = run_progress(p);
          table.row()
              .cell(std::uint64_t{n})
              .cell(std::string(to_string(policy)))
              .cell(p.rounds)
              .cell(r.min_progress.mean(), 1)
              .cell(r.min_progress_normalized.mean(), 3)
              .cell(r.mean_progress.mean(), 3);
        }
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
