// E10 -- Appendix B: the arrival counts X_1, X_2 at a fixed bin are NOT
// negatively associated.  For n = 2 started from (1, 1):
//   P(X1 = 0) = 1/4,  P(X2 = 0) = 3/8,  P(X1 = 0, X2 = 0) = 1/8 > 3/32.
#include <cmath>

#include "analysis/experiments.hpp"
#include "runner/registry.hpp"

namespace rbb::runner {

void register_neg_assoc(Registry& registry) {
  registry.add({
    .name = "neg_assoc",
    .claim = "E10",
    .title = "arrivals are positively correlated (Appendix B)",
    .description =
        "Monte-Carlo estimates of the Appendix-B counterexample to "
        "negative association for n = 2 started from one ball per bin "
        "(X_t = arrivals at bin 0 in round t): P(X1 = 0) = 1/4, "
        "P(X2 = 0) = 3/8, and the joint P(X1 = 0, X2 = 0) = 1/8 exceeds "
        "the product 3/32 -- the inequality that defeats negative "
        "association.",
    .run = [](const RunContext& ctx) {
      const std::uint64_t trials = ctx.trials_or(200000, 4000000, 40000000);
      const NegAssocResult r = run_negative_association(trials, ctx.seed());

      ResultSet rs;
      Table& table = rs.add_table(
          "E10_neg_assoc", "arrivals are positively correlated (Appendix B)",
          {"quantity", "exact", "estimate", "abs error"});
      table.row()
          .cell(std::string("P(X1 = 0)"))
          .cell(0.25, 6)
          .cell(r.p_x1_zero, 6)
          .cell(std::abs(r.p_x1_zero - 0.25), 6);
      table.row()
          .cell(std::string("P(X2 = 0)"))
          .cell(0.375, 6)
          .cell(r.p_x2_zero, 6)
          .cell(std::abs(r.p_x2_zero - 0.375), 6);
      table.row()
          .cell(std::string("P(X1 = 0, X2 = 0)"))
          .cell(0.125, 6)
          .cell(r.p_both_zero, 6)
          .cell(std::abs(r.p_both_zero - 0.125), 6);
      table.row()
          .cell(std::string("P(X1=0) * P(X2=0)"))
          .cell(0.09375, 6)
          .cell(r.p_x1_zero * r.p_x2_zero, 6)
          .cell(std::string(r.p_both_zero > r.p_x1_zero * r.p_x2_zero
                                ? "joint > product: NOT neg. assoc."
                                : "UNEXPECTED"));
      return rs;
    },
  });
}

}  // namespace rbb::runner
