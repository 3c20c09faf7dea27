// E9 -- Sect. 4.1: an adversary that arbitrarily reassigns all tokens
// once every gamma*n rounds (gamma >= 6) inflates the cover time by at
// most a constant factor; plus the bounded-budget severity ablation.
#include "analysis/experiments.hpp"
#include "core/process.hpp"
#include "obs/metrics.hpp"
#include "runner/registry.hpp"

namespace rbb::runner {

void register_adversarial(Registry& registry) {
  registry.add({
    .name = "adversarial",
    .claim = "E9",
    .title =
        "cover time under periodic adversarial reassignment (Sect. 4.1)",
    .description =
        "Per fault period gamma*n and strategy (all-to-one, random), the "
        "cover time vs the fault-free baseline and the inflation factor "
        "(predicted O(1); faults more frequent than ~6n start to hurt).  A "
        "second table ablates fault severity: a bounded-budget adversary "
        "moves only k balls onto one bin, and recovery scales with k, "
        "saturating at the full Theorem-1 O(n) for k = n.",
    .params = {
        {"n", ParamSpec::Type::kU64, "0", "nodes/tokens (0 = scale default)"},
    },
    .run = [](const RunContext& ctx) {
      const std::uint32_t trials = ctx.trials_or(2, 4, 10);
      const std::uint32_t n =
          ctx.params.u64("n") != 0
              ? ctx.params.u32("n")
              : by_scale<std::uint32_t>(ctx.scale, 128, 512, 1024);
      const std::uint64_t seed = ctx.seed();

      // Fault-free baseline.
      CoverTimeParams base;
      base.n = n;
      base.trials = trials;
      base.seed = seed;
      const CoverTimeResult clean = run_cover_time(base);

      ResultSet rs;
      Table& table = rs.add_table(
          "E9_adversarial",
          "cover time under periodic adversarial reassignment (Sect. 4.1)",
          {"gamma (period/n)", "strategy", "cover (mean)",
           "inflation vs clean", "max load seen", "timeouts"});
      table.row()
          .cell(std::string("no faults"))
          .cell(std::string("-"))
          .cell(clean.cover_time.mean(), 0)
          .cell(1.0, 2)
          .cell(clean.max_load_seen.mean(), 1)
          .cell(std::uint64_t{clean.timeouts});
      for (const std::uint64_t gamma : {6ull, 10ull, 20ull}) {
        for (const FaultStrategy strategy :
             {FaultStrategy::kAllToOne, FaultStrategy::kRandom}) {
          CoverTimeParams p = base;
          p.fault_period = gamma * n;
          p.fault_strategy = strategy;
          const CoverTimeResult r = run_cover_time(p);
          const double inflation =
              clean.cover_time.mean() > 0
                  ? r.cover_time.mean() / clean.cover_time.mean()
                  : 0.0;
          table.row()
              .cell(gamma)
              .cell(std::string(to_string(strategy)))
              .cell(r.cover_time.mean(), 0)
              .cell(inflation, 2)
              .cell(r.max_load_seen.mean(), 1)
              .cell(std::uint64_t{r.timeouts});
        }
      }

      // Severity ablation: a bounded-budget adversary moves only k balls
      // onto one bin; recovery should scale with the fault size.
      Table& severity = rs.add_table(
          "E9b_fault_severity",
          "bounded-budget adversary: recovery scales with fault size",
          {"fault size k", "k / n", "spike max load",
           "recovery rounds (mean)", "recovery / n"});
      for (const double frac : {0.125, 0.25, 0.5, 1.0}) {
        const auto k =
            static_cast<std::uint64_t>(frac * static_cast<double>(n));
        OnlineMoments recovery;
        OnlineMoments spike;
        for (std::uint32_t trial = 0; trial < trials; ++trial) {
          Rng rng(seed + 31, trial);
          RepeatedBallsProcess proc(
              make_config(InitialConfig::kOnePerBin, n, n, rng), rng);
          proc.run(4ull * n);  // reach equilibrium
          proc.reassign(apply_partial_fault(proc.loads(), k));
          obs::add(obs::Counter::kFaultsInjected);
          spike.add(static_cast<double>(proc.max_load()));
          std::uint64_t t = 0;
          while (!proc.is_legitimate(4.0) && t < 64ull * n) {
            proc.step();
            ++t;
          }
          recovery.add(static_cast<double>(t));
        }
        severity.row()
            .cell(k)
            .cell(frac, 3)
            .cell(spike.mean(), 1)
            .cell(recovery.mean(), 1)
            .cell(recovery.mean() / n, 3);
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner
