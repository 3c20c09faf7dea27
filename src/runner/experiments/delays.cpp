// E19 -- Sect. 1.1: "if the process is stable, every ball can be delayed
// for at most O(log n) rounds before leaving a node."
#include "analysis/experiments.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_delays(Registry& registry) {
  registry.add({
    .name = "delays",
    .claim = "E19",
    .title = "per-release waiting times: O(log n) max under FIFO",
    .description =
        "Per n and queue policy, the pooled waiting-time distribution of "
        "every token release (p50 / p99 / p99.9 / per-trial max), against "
        "the O(log n) scale.  Under FIFO the maximum delay is bounded by "
        "the window maximum load; LIFO has no such per-token guarantee (a "
        "buried token can starve while the bin stays busy) and its tail "
        "visibly fattens.",
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 4, 8);
      const std::uint64_t wf = by_scale<std::uint64_t>(ctx.scale, 8, 16, 48);

      ResultSet rs;
      Table& table = rs.add_table(
          "E19_delays", "per-release waiting times: O(log n) max under FIFO",
          {"n", "policy", "releases", "mean delay", "p50", "p99", "p99.9",
           "max (mean over trials)", "max / log2 n"});
      for (const std::uint32_t n : default_n_sweep(ctx.scale)) {
        for (const QueuePolicy policy :
             {QueuePolicy::kFifo, QueuePolicy::kRandom, QueuePolicy::kLifo}) {
          DelayParams p;
          p.n = n;
          p.rounds = wf * n;
          p.trials = trials;
          p.seed = ctx.seed();
          p.policy = policy;
          const DelayResult r = run_delays(p);
          table.row()
              .cell(std::uint64_t{n})
              .cell(std::string(to_string(policy)))
              .cell(r.delays.total())
              .cell(r.mean_delay, 3)
              .cell(r.p50)
              .cell(r.p99)
              .cell(r.p999)
              .cell(r.max_delay.mean(), 1)
              .cell(r.max_delay.mean() / log2n(n), 3);
        }
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
