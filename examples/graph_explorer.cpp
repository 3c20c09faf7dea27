// Graph explorer: the Sect. 5 open question, interactively.
//
// Runs the repeated balls-into-bins process on a selection of topologies
// and prints, per graph, the window maximum load against the two candidate
// laws: the paper's conjectured O(log n) (for regular graphs) and the
// older O(sqrt(t)) bound of [12].  The star graph shows what goes wrong
// without regularity.
//
//   ./examples/graph_explorer [--n 1024] [--window-factor 10]
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/process.hpp"
#include "graph/graph.hpp"
#include "runner/params.hpp"
#include "support/bounds.hpp"
#include "support/table.hpp"

namespace {

int run(const rbb::runner::ParamValues& flags) {
  using namespace rbb;
  const std::uint32_t n = flags.u32("n");
  const std::uint64_t window = flags.u64("window-factor") * n;
  Rng graph_rng(flags.u64("seed") + 1);

  std::cout << "repeated balls-into-bins on graphs: n = " << n
            << ", window = " << window << " rounds\n"
            << "(balls move to a uniform random *neighbor*; the paper "
            << "conjectures O(log n)\n max load for regular graphs -- "
            << "Sect. 5)\n";

  Table table({"graph", "degree", "diameter-ish", "window max",
               "max / log2 n", "max / sqrt(window)", "final empty frac"});
  const std::vector<std::string> names = {"complete", "regular8",
                                          "hypercube", "torus", "cycle",
                                          "star"};
  for (const std::string& name : names) {
    const Graph g = make_named_graph(name, n, graph_rng);
    Rng rng(flags.u64("seed"));
    RepeatedBallsProcess proc(
        make_config(InitialConfig::kOnePerBin, n, n, rng), &g, rng);
    std::uint32_t wmax = 0;
    for (std::uint64_t t = 0; t < window; ++t) {
      wmax = std::max(wmax, proc.step().max_load);
    }
    const std::string degree =
        g.is_regular() ? std::to_string(g.max_degree())
                       : std::to_string(g.min_degree()) + "-" +
                             std::to_string(g.max_degree());
    table.row()
        .cell(name)
        .cell(degree)
        .cell(std::string(name == "cycle" ? "n/2" :
                          name == "star" ? "2" : "small"))
        .cell(std::uint64_t{wmax})
        .cell(static_cast<double>(wmax) / log2n(n), 2)
        .cell(static_cast<double>(wmax) /
                  std::sqrt(static_cast<double>(window)),
              3)
        .cell(static_cast<double>(proc.empty_bins()) / n, 3);
  }
  std::cout << table.markdown()
            << "\nreading: regular graphs sit at a small multiple of "
               "log2 n, far below sqrt(t);\nthe star concentrates half "
               "the balls on the hub -- regularity matters.\n";
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  using rbb::runner::ParamSpec;
  const std::vector<ParamSpec> flags = {
      {"n", ParamSpec::Type::kU64, "1024",
       "nodes (power of 4 fits every topology)"},
      {"seed", ParamSpec::Type::kU64, "5", "RNG seed"},
      {"window-factor", ParamSpec::Type::kU64, "10",
       "window = factor * n rounds"},
  };
  return rbb::runner::example_main(
      argc, argv, "graph_explorer: RBB max loads across topologies (Sect. 5)",
      flags, run, std::cout, std::cerr);
}
