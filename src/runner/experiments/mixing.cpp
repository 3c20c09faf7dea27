// E21 -- tagged-token mixing: how fast does a token's position law
// approach uniform despite the queueing correlation?
#include <algorithm>

#include "analysis/experiments.hpp"
#include "runner/registry.hpp"

namespace rbb::runner {

void register_mixing(Registry& registry) {
  registry.add({
    .name = "mixing",
    .claim = "E21",
    .title =
        "tagged-token position mixing under the queueing constraint",
    .description =
        "The repeated process IS parallel random walks in the "
        "one-token-per-message gossip model, where [13] sought fast "
        "mixing.  An unconstrained clique walker mixes in ONE step; a "
        "token at the back of a queue is frozen until the queue drains.  "
        "Two tables, both tracking the worst-positioned token: (a) random "
        "legitimate placement -- the token's law hits uniform within a "
        "handful of rounds; (b) all-in-one placement -- the token is "
        "buried under n-1 others and its law stays a point mass for "
        "Theta(n) rounds (TV ~ 1), the starkest display of the queueing "
        "correlation the paper had to tame.",
    .params = {
        {"n", ParamSpec::Type::kU64, "0", "bins (0 = scale default)"},
    },
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(4000, 20000, 100000);
      const std::uint32_t n =
          ctx.params.u64("n") != 0
              ? ctx.params.u32("n")
              : by_scale<std::uint32_t>(ctx.scale, 64, 128, 256);

      ResultSet rs;

      // (a) equilibrium placement: fast decay to the noise floor.
      MixingParams p;
      p.n = n;
      p.checkpoints = {1, 2, 3, 4, 6, 8, 12, 16};
      p.trials = trials;
      p.seed = ctx.seed();
      p.placement = InitialConfig::kRandom;
      const MixingResult fifo = run_mixing(p);
      p.policy = QueuePolicy::kLifo;
      const MixingResult lifo = run_mixing(p);

      Table& fast = rs.add_table(
          "E21_mixing",
          "equilibrium start: back-of-queue token mixes in O(1) rounds",
          {"round t", "TV from uniform (fifo)", "TV (lifo)", "noise floor"});
      for (std::size_t i = 0; i < p.checkpoints.size(); ++i) {
        fast.row()
            .cell(p.checkpoints[i])
            .cell(fifo.tv_from_uniform[i], 4)
            .cell(lifo.tv_from_uniform[i], 4)
            .cell(fifo.noise_floor, 4);
      }

      // (b) worst-case pile: frozen for ~n rounds under FIFO.
      MixingParams wp;
      wp.n = n;
      wp.trials = std::max<std::uint32_t>(trials / 4, 1000);
      wp.seed = ctx.seed() + 7;
      wp.placement = InitialConfig::kAllInOne;
      for (const std::uint64_t t :
           {std::uint64_t{1}, static_cast<std::uint64_t>(n) / 4,
            static_cast<std::uint64_t>(n) / 2,
            static_cast<std::uint64_t>(n) - 1,
            static_cast<std::uint64_t>(n) + 8,
            2 * static_cast<std::uint64_t>(n)}) {
        wp.checkpoints.push_back(t);
      }
      const MixingResult pile = run_mixing(wp);
      Table& frozen = rs.add_table(
          "E21b_mixing_pile",
          "all-in-one start: the buried token is frozen for ~n rounds",
          {"round t", "t / n", "TV from uniform", "noise floor"});
      for (std::size_t i = 0; i < wp.checkpoints.size(); ++i) {
        frozen.row()
            .cell(wp.checkpoints[i])
            .cell(static_cast<double>(wp.checkpoints[i]) / n, 2)
            .cell(pile.tv_from_uniform[i], 4)
            .cell(pile.noise_floor, 4);
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
