// Exact chain -- exact finite-state analysis of the repeated
// balls-into-bins chain (markov/).  No Monte-Carlo error: the full
// transition matrix is built on the composition state space for
// n = m <= 6 and every reported number is computed from it directly.
// Second bench of the E6 row in DESIGN.md Sect. 4 (the Lemma-5 Z-chain
// is solved exactly in Table 3) and the exact miniature of several
// other claims.
#include <cmath>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "markov/rbb_chain.hpp"
#include "markov/zchain_exact.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"
#include "support/stats.hpp"

namespace rbb::runner {

void register_exact_chain(Registry& registry) {
  registry.add({
    .name = "exact_chain",
    .claim = "E6",
    .title =
        "exact Markov-chain analysis of the RBB process (small n)",
    .description =
        "Seven exact tables at small n: (1) the stationary law on the "
        "composition state space -- E[max load], P(legitimate), empty-bin "
        "fraction, detailed-balance residual (reversible only at n = 2), "
        "TV distance to the best product-form law, and the exact "
        "1/4-mixing time; (2) the Appendix-B arrival correlation for "
        "n = 2..6; (3) the exact Z-chain survival vs Lemma 5's e^{-t/144} "
        "bound with the exact E[tau]; (4) the m != n regimes (Sect. 5 "
        "open question); (5) topology comparison under the exact graph "
        "chain (Sect. 5 conjecture); (6) the exact worst-case convergence "
        "transient (Theorem 1 in miniature); (7) the exact single-queue "
        "stationary law of leaky bins [18].",
    .kind = ExperimentKind::kAnalytic,
    .run = [](const RunContext& ctx) {
      const std::uint32_t n_max = by_scale<std::uint32_t>(ctx.scale, 4, 6, 6);
      ResultSet rs;

      Table& t1 = rs.add_table(
          "E22_exact_chain",
          "exact stationary law: reversibility and product form fail",
          {"n", "states", "E[max load]", "P(legit b=4)", "empty frac",
           "db residual", "prod-form TV", "t_mix(1/4)"});
      for (std::uint32_t n = 2; n <= n_max; ++n) {
        const StateSpace space(n, n);
        const DenseMatrix p = build_rbb_transition_matrix(space);
        const std::vector<double> pi = stationary_distribution(p);
        const ExactFunctionals f = exact_functionals(space, pi);
        t1.row()
            .cell(static_cast<std::uint64_t>(n))
            .cell(static_cast<std::uint64_t>(space.size()))
            .cell(f.expected_max_load, 6)
            .cell(f.p_legitimate, 6)
            .cell(f.expected_empty_fraction, 6)
            .cell(detailed_balance_residual(p, pi), 8)
            .cell(product_form_distance(space, pi), 8)
            .cell(exact_mixing_time(space, p, pi, 0.25, 1000));
      }

      Table& t2 = rs.add_table(
          "E22_arrival_correlation", "Appendix B exactly, for n = 2 .. 6",
          {"n", "P(X1=0,X2=0)", "P(X1=0)*P(X2=0)", "excess", "neg. assoc.?"});
      for (std::uint32_t n = 2; n <= n_max; ++n) {
        const StateSpace space(n, n);
        const auto corr = exact_arrival_correlation(space, LoadConfig(n, 1));
        t2.row()
            .cell(static_cast<std::uint64_t>(n))
            .cell(corr.p_both_zero, 8)
            .cell(corr.p_first_zero * corr.p_second_zero, 8)
            .cell(corr.excess(), 8)
            .cell(std::string(corr.excess() > 0 ? "no (joint > product)"
                                                : "UNEXPECTED"));
      }

      const std::uint32_t zn =
          by_scale<std::uint32_t>(ctx.scale, 64, 256, 1024);
      Table& t3 = rs.add_table(
          "E22_zchain_exact",
          "exact Z-chain absorption vs the Lemma 5 tail bound",
          {"k", "E[tau] exact", "4k", "t probe", "P(tau>t) exact",
           "Lemma 5 bound", "bound/exact"});
      for (const std::uint64_t k : {2ull, 8ull, 32ull}) {
        const std::uint64_t probe = 10 * k + 80;
        // Long horizon so the truncated expectation sum converges (survival
        // decays at rate ~0.05/round, so 40k + 2000 rounds is far past it).
        const auto r = exact_zchain_survival(zn, k, 40 * k + 2000);
        const double exact_tail = r.survival[probe];
        const double bound = zchain_tail_bound(static_cast<double>(probe));
        t3.row()
            .cell(k)
            .cell(r.expected_absorption, 4)
            .cell(static_cast<std::uint64_t>(4 * k))
            .cell(probe)
            .cell(exact_tail, 8)
            .cell(bound, 8)
            .cell(exact_tail > 0 ? bound / exact_tail : HUGE_VAL, 2);
      }

      // ---- Table 4: the m != n regimes, exactly (Sect. 5 open qn) ----
      Table& t4 = rs.add_table(
          "E22_overload_exact",
          "stationary law under load factors m/n in [1/2, 4]",
          {"n", "m", "m/n", "states", "E[max load]", "empty frac",
           "P(M >= 2)"});
      const std::uint32_t base_n = 4;
      for (const std::uint32_t m : {2u, 4u, 6u, 8u, 12u, 16u}) {
        const StateSpace space(base_n, m);
        const DenseMatrix p = build_rbb_transition_matrix(space);
        const ExactFunctionals f =
            exact_functionals(space, stationary_distribution(p));
        t4.row()
            .cell(static_cast<std::uint64_t>(base_n))
            .cell(static_cast<std::uint64_t>(m))
            .cell(static_cast<double>(m) / base_n, 2)
            .cell(static_cast<std::uint64_t>(space.size()))
            .cell(f.expected_max_load, 6)
            .cell(f.expected_empty_fraction, 6)
            .cell(f.max_load_tail.size() > 2 ? f.max_load_tail[2] : 0.0, 6);
      }

      // ---- Table 5: topology comparison, exactly (Sect. 5 conjecture) ----
      // The graph chain routes each released ball to a uniform *neighbor*;
      // "clique" is the paper's abstract process (destinations include the
      // releasing bin itself).
      Table& t5 = rs.add_table(
          "E22_topology_exact",
          "stationary max load by topology (Sect. 5, exact)",
          {"topology", "n", "E[max load]", "empty frac", "P(M >= 3)"});
      for (std::uint32_t n = 4; n <= n_max; ++n) {
        const StateSpace space(n, n);
        struct Row {
          const char* name;
          DenseMatrix matrix;
        };
        const Graph cycle = make_cycle(n);
        const Graph path = make_path(n);
        const Graph star = make_star(n);
        const Graph complete = make_complete(n);
        std::vector<Row> rows;
        rows.push_back(
            {"clique (abstract)", build_rbb_transition_matrix(space)});
        rows.push_back({"complete graph",
                        build_graph_rbb_transition_matrix(space, complete)});
        rows.push_back(
            {"cycle", build_graph_rbb_transition_matrix(space, cycle)});
        rows.push_back(
            {"path", build_graph_rbb_transition_matrix(space, path)});
        rows.push_back(
            {"star", build_graph_rbb_transition_matrix(space, star)});
        for (const Row& r : rows) {
          const ExactFunctionals f =
              exact_functionals(space, stationary_distribution(r.matrix));
          t5.row()
              .cell(std::string(r.name))
              .cell(static_cast<std::uint64_t>(n))
              .cell(f.expected_max_load, 6)
              .cell(f.expected_empty_fraction, 6)
              .cell(f.max_load_tail.size() > 3 ? f.max_load_tail[3] : 0.0, 6);
        }
      }

      // ---- Table 6: the Theorem-1 convergence transient, exactly ----
      // Exact law of the process after t rounds from the all-in-one worst
      // case: E[max load] decays from n to the stationary value and
      // P(legitimate) climbs to 1 -- the exact miniature of E2's sweep.
      {
        const std::uint32_t n = n_max;
        const StateSpace space(n, n);
        const DenseMatrix p = build_rbb_transition_matrix(space);
        LoadConfig pile(n, 0);
        pile[0] = n;
        const std::vector<double> pi = stationary_distribution(p);
        const ExactFunctionals stat = exact_functionals(space, pi);
        // Note: beta log2 n exceeds m at this scale, so P(legitimate) is
        // trivially 1; the informative tail column is P(M >= 3).
        Table& t6 = rs.add_table(
            "E22_convergence_exact",
            "exact worst-case transient (Theorem 1 in miniature)",
            {"round t", "E[max load]", "empty frac", "P(M >= 3)",
             "TV to stationary"});
        std::vector<double> dist(space.size(), 0.0);
        dist[space.index_of(pile)] = 1.0;
        std::uint64_t t = 0;
        for (const std::uint64_t probe :
             {0ull, 1ull, 2ull, 4ull, 8ull, 16ull, 32ull}) {
          while (t < probe) {
            dist = p.left_multiply(dist);
            ++t;
          }
          const ExactFunctionals f = exact_functionals(space, dist);
          t6.row()
              .cell(probe)
              .cell(f.expected_max_load, 6)
              .cell(f.expected_empty_fraction, 6)
              .cell(f.max_load_tail.size() > 3 ? f.max_load_tail[3] : 0.0, 6)
              .cell(total_variation(dist, pi), 6);
        }
        t6.row()
            .cell(std::string("stationary"))
            .cell(stat.expected_max_load, 6)
            .cell(stat.expected_empty_fraction, 6)
            .cell(stat.max_load_tail.size() > 3 ? stat.max_load_tail[3] : 0.0,
                  6)
            .cell(0.0, 6);
      }

      // ---- Table 7: leaky bins ([18]), the single queue exactly ----
      // Stationary law of one leaky bin (arrivals Bin(n, lambda/n), one
      // departure when non-empty).  Rate conservation forces P(empty) =
      // 1 - lambda exactly; the cut-balance recursion starts from it, and
      // the law shows the queue blow-up as lambda -> 1 (E16 sweeps the
      // full n-bin system).
      {
        const std::uint32_t n =
            by_scale<std::uint32_t>(ctx.scale, 64, 256, 1024);
        Table& t7 = rs.add_table(
            "E16_leaky_exact",
            "exact single-queue stationary law of leaky bins [18]",
            {"lambda", "P(empty) exact", "1 - lambda", "mean queue",
             "q(1-1e-9)"});
        for (const double lambda : {0.5, 0.75, 0.9, 0.97}) {
          const LeakyQueueExact q = exact_leaky_queue_stationary(n, lambda);
          t7.row()
              .cell(lambda, 2)
              .cell(q.p_empty, 8)
              .cell(1.0 - lambda, 8)
              .cell(q.mean, 4)
              .cell(q.q999);
        }
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
