// Multi-token traversal (paper, Sect. 4): n anonymous tokens must each
// visit every node of a network, one token forwarded per node per round.
//
// Prints the global cover time against Corollary 1's O(n log^2 n) scale,
// the single-walker baseline (coupon collector on the clique), per-token
// spread, and the progress guarantee.
//
//   ./examples/token_traversal [--n 512] [--policy fifo] [--graph complete]
#include <cstdlib>
#include <iostream>
#include <optional>

#include "baselines/independent_walks.hpp"
#include "graph/graph.hpp"
#include "runner/params.hpp"
#include "support/bounds.hpp"
#include "traversal/traversal.hpp"

namespace {

int run(const rbb::runner::ParamValues& flags) {
  using namespace rbb;
  const std::uint32_t n = flags.u32("n");
  const std::uint64_t seed = flags.u64("seed");
  const bool clique = flags.str("graph") == "complete";

  Rng graph_rng(seed + 1);
  std::optional<Graph> graph;
  if (!clique) {
    graph.emplace(make_named_graph(flags.str("graph"), n, graph_rng));
  }

  TraversalParams params;
  params.n = n;
  params.policy = queue_policy_from_string(flags.str("policy"));
  params.graph = graph ? &*graph : nullptr;

  std::cout << "multi-token traversal: n = " << n << ", policy = "
            << flags.str("policy") << ", graph = " << flags.str("graph")
            << "\n\n";

  const TraversalResult r = run_traversal(params, seed);
  if (!r.cover_time.has_value()) {
    std::cout << "did not cover within " << r.rounds_run
              << " rounds (raise the cap via a smaller n)\n";
    return EXIT_FAILURE;
  }

  const double scale = parallel_cover_scale(n);
  std::cout << "global cover time : " << *r.cover_time << " rounds\n"
            << "  / (n log2^2 n)  : "
            << static_cast<double>(*r.cover_time) / scale
            << "   (Corollary 1 predicts a constant)\n"
            << "first token done  : " << r.first_token_covered << "\n"
            << "last token done   : " << r.last_token_covered << "\n"
            << "max queue seen    : " << r.max_load_seen << " (O(log n) = "
            << log2n(n) << " * c)\n"
            << "min token progress: " << r.min_progress << " walk steps in "
            << r.rounds_run << " rounds (Sect. 4: Omega(t / log n))\n";

  if (clique) {
    Rng walk_rng(seed + 2);
    const auto single =
        single_walk_cover_time(n, nullptr, 1u << 28, walk_rng);
    if (single.has_value()) {
      std::cout << "\nsingle-walker baseline: " << *single
                << " rounds (E = n H_n = " << coupon_collector_mean(n)
                << ")\nparallel slowdown     : "
                << static_cast<double>(*r.cover_time) /
                       static_cast<double>(*single)
                << "x  (Corollary 1 predicts ~log n = " << log2n(n) << ")\n";
    }
  }
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  using rbb::runner::ParamSpec;
  const std::vector<ParamSpec> flags = {
      {"n", ParamSpec::Type::kU64, "512", "nodes (= tokens)"},
      {"seed", ParamSpec::Type::kU64, "7", "RNG seed"},
      {"policy", ParamSpec::Type::kString, "fifo",
       "queue policy: fifo | lifo | random"},
      {"graph", ParamSpec::Type::kString, "complete",
       "topology: complete | cycle | torus | hypercube | regular8"},
  };
  return rbb::runner::example_main(
      argc, argv,
      "token_traversal: the Sect. 4 multi-token traversal protocol", flags,
      run, std::cout, std::cerr);
}
