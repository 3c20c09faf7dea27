// E14 -- Sect. 5 open question / conjecture: on regular graphs the
// maximum load should remain logarithmic (the previous bound was
// O(sqrt(t)) [12]).
#include <cmath>
#include <string>

#include "analysis/experiments.hpp"
#include "graph/graph.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"

namespace rbb::runner {

void register_graphs(Registry& registry) {
  registry.add({
    .name = "graphs",
    .claim = "E14",
    .title =
        "window max load on general topologies (Sect. 5 conjecture)",
    .description =
        "Per topology (complete, cycle, torus, hypercube, random "
        "8-regular, star), the window max load vs log2 n and vs "
        "sqrt(window), plus the minimum empty fraction (whose distribution "
        "across the network is the technical obstacle the paper "
        "describes).  Regular graphs flatten near a small multiple of "
        "log n; the star (non-regular) is the contrast case.",
    .params = {
        {"n", ParamSpec::Type::kU64, "0",
         "nodes (0 = scale default; must be a power of 4)"},
    },
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 3, 8);
      const std::uint32_t n =
          ctx.params.u64("n") != 0
              ? ctx.params.u32("n")
              : by_scale<std::uint32_t>(ctx.scale, 256, 1024, 4096);
      const std::uint64_t wf = by_scale<std::uint64_t>(ctx.scale, 5, 15, 40);

      ResultSet rs;
      Table& table = rs.add_table(
          "E14_graphs",
          "window max load on general topologies (Sect. 5 conjecture)",
          {"graph", "regular", "window max (mean)", "max / log2 n",
           "sqrt(window)", "min empty frac"});
      Rng graph_rng(ctx.seed() + 99);
      for (const std::string name :
           {"complete", "cycle", "torus", "hypercube", "regular8", "star"}) {
        const Graph g = make_named_graph(name, n, graph_rng);
        StabilityParams p;
        p.n = n;
        p.rounds = wf * n;
        p.trials = trials;
        p.seed = ctx.seed();
        p.graph = &g;
        const StabilityResult r = run_stability(p);
        table.row()
            .cell(name)
            .cell(std::string(g.is_regular() ? "yes" : "no"))
            .cell(r.window_max.mean(), 2)
            .cell(r.window_max.mean() / log2n(n), 3)
            .cell(std::sqrt(static_cast<double>(p.rounds)), 1)
            .cell(r.min_empty_fraction.min(), 3);
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
