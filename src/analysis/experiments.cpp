#include "analysis/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baselines/independent_walks.hpp"
#include "baselines/jackson.hpp"
#include "baselines/oneshot.hpp"
#include "baselines/repeated_dchoices.hpp"
#include "baselines/threshold.hpp"
#include "core/mixed_process.hpp"
#include "core/process.hpp"
#include "par/sharded_mixed.hpp"
#include "coupling/coupling.hpp"
#include "engine/engine.hpp"
#include "par/sharded_process.hpp"
#include "par/sharded_variants.hpp"
#include "support/bounds.hpp"
#include "support/thread_pool.hpp"
#include "tetris/tetris.hpp"
#include "tetris/leaky.hpp"
#include "tetris/zchain.hpp"

namespace rbb {
namespace {

/// Expands a load configuration into token positions (bin u repeated
/// q_u times), preserving bin order.
std::vector<std::uint32_t> config_to_positions(const LoadConfig& q) {
  std::vector<std::uint32_t> pos;
  pos.reserve(total_balls(q));
  for (std::uint32_t u = 0; u < q.size(); ++u) {
    for (std::uint32_t j = 0; j < q[u]; ++j) pos.push_back(u);
  }
  return pos;
}

}  // namespace

StabilityResult run_stability(const StabilityParams& params) {
  if (params.n < 2) throw std::invalid_argument("run_stability: n < 2");
  if (params.trials == 0 || params.rounds == 0) {
    throw std::invalid_argument("run_stability: trials/rounds == 0");
  }
  const std::uint64_t balls = params.balls == 0 ? params.n : params.balls;
  const TrialPlan& plan = params.plan;
  if (plan.sharded()) {
    if (params.graph != nullptr) {
      throw std::invalid_argument(
          "run_stability: the sharded backend is clique-only");
    }
    if (params.process != StabilityProcess::kRepeated &&
        params.process != StabilityProcess::kRepeatedDChoice &&
        params.process != StabilityProcess::kThreshold) {
      throw std::invalid_argument(
          "run_stability: no sharded instantiation for this process");
    }
  }
  std::vector<double> window_max(params.trials);
  std::vector<double> final_max(params.trials);
  std::vector<double> min_empty(params.trials);

  for_each_trial(
      params.trials, params.seed, plan, [&](std::uint32_t trial, Rng& rng) {
        LoadConfig config = make_config(params.start, params.n, balls, rng);
        WindowMaxLoad wmax;
        MinEmptyFraction memp;
        const auto window = [&](auto process) {
          Engine engine(std::move(process));
          engine.run_rounds(params.rounds, wmax, memp);
        };
        switch (params.process) {
          case StabilityProcess::kRepeated:
            if (params.graph != nullptr) {
              window(
                  RepeatedBallsProcess(std::move(config), params.graph, rng));
            } else {
              plan.with_kernel<RepeatedBallsProcess,
                               par::ShardedRepeatedBallsProcess>(
                  params.seed, trial, rng, window, std::move(config));
            }
            break;
          case StabilityProcess::kTetris:
            if (params.graph != nullptr) {
              throw std::invalid_argument(
                  "run_stability: Tetris is clique-only");
            }
            window(TetrisProcess(std::move(config), rng));
            break;
          case StabilityProcess::kRepeatedDChoice:
            if (params.graph != nullptr) {
              throw std::invalid_argument(
                  "run_stability: d-choices is clique-only");
            }
            plan.with_kernel<RepeatedDChoicesProcess,
                             par::ShardedDChoicesProcess>(
                params.seed, trial, rng, window, std::move(config),
                params.choices);
            break;
          case StabilityProcess::kIndependent:
            window(IndependentWalksProcess(
                params.n, config_to_positions(config), params.graph, rng));
            break;
          case StabilityProcess::kThreshold: {
            if (params.graph != nullptr) {
              throw std::invalid_argument(
                  "run_stability: threshold allocation is clique-only");
            }
            // Default accept bound: one above the mean load, so the
            // rule bites exactly when a bin is above average.
            const load_t accept =
                params.threshold != 0
                    ? params.threshold
                    : static_cast<load_t>((balls + params.n - 1) / params.n +
                                          1);
            plan.with_kernel<ThresholdProcess, par::ShardedThresholdProcess>(
                params.seed, trial, rng, window, std::move(config), accept,
                params.choices);
            break;
          }
        }
        window_max[trial] = static_cast<double>(wmax.window_max);
        final_max[trial] = static_cast<double>(wmax.final_max);
        min_empty[trial] = memp.min_fraction;
      });

  StabilityResult result;
  const double legit_threshold = params.beta * log2n(params.n);
  std::uint32_t legit = 0;
  for (std::uint32_t t = 0; t < params.trials; ++t) {
    result.window_max.add(window_max[t]);
    result.final_max.add(final_max[t]);
    result.min_empty_fraction.add(min_empty[t]);
    if (window_max[t] <= legit_threshold) ++legit;
  }
  result.legit_window_fraction =
      static_cast<double>(legit) / static_cast<double>(params.trials);
  result.overall_max = static_cast<std::uint32_t>(result.window_max.max());
  result.per_trial_window_max = std::move(window_max);
  return result;
}

ConvergenceResult run_convergence(const ConvergenceParams& p) {
  if (p.n < 2) throw std::invalid_argument("run_convergence: n < 2");
  if (p.trials == 0) throw std::invalid_argument("run_convergence: trials==0");
  const std::uint64_t cap = p.cap == 0 ? 64ull * p.n : p.cap;
  std::vector<double> rounds(p.trials, -1.0);

  const std::uint64_t conv_balls = p.balls == 0 ? p.n : p.balls;
  for_each_trial(p.trials, p.seed, p.plan, [&](std::uint32_t trial, Rng& rng) {
    LoadConfig config = make_config(p.start, p.n, conv_balls, rng);
    const auto converge = [&](auto process) {
      Engine engine(std::move(process));
      const EngineResult r =
          engine.run(cap, UntilLegitimate{p.beta * log2n(p.n)});
      if (r.goal_reached) rounds[trial] = static_cast<double>(r.rounds);
    };
    p.plan.with_kernel<RepeatedBallsProcess, par::ShardedRepeatedBallsProcess>(
        p.seed, trial, rng, converge, std::move(config));
  });

  ConvergenceResult result;
  for (std::uint32_t t = 0; t < p.trials; ++t) {
    if (rounds[t] < 0) {
      ++result.timeouts;
      continue;
    }
    result.rounds_to_legitimate.add(rounds[t]);
    result.normalized.add(rounds[t] / static_cast<double>(p.n));
  }
  return result;
}

EmptyBinsResult run_empty_bins(const EmptyBinsParams& p) {
  if (p.n < 2) throw std::invalid_argument("run_empty_bins: n < 2");
  if (p.trials == 0 || p.rounds == 0) {
    throw std::invalid_argument("run_empty_bins: trials/rounds == 0");
  }
  std::vector<double> min_frac(p.trials);
  std::vector<double> mean_frac(p.trials);

  const std::uint64_t eb_balls = p.balls == 0 ? p.n : p.balls;
  for_each_trial(p.trials, p.seed, p.plan, [&](std::uint32_t trial, Rng& rng) {
    LoadConfig config = make_config(p.start, p.n, eb_balls, rng);
    const auto measure = [&](auto process) {
      Engine engine(std::move(process));
      MinEmptyFraction lo;
      MeanEmptyFraction mean;
      engine.run_rounds(p.rounds, lo, mean);
      min_frac[trial] = lo.min_fraction;
      mean_frac[trial] = mean.mean();
    };
    p.plan.with_kernel<RepeatedBallsProcess, par::ShardedRepeatedBallsProcess>(
        p.seed, trial, rng, measure, std::move(config));
  });

  EmptyBinsResult result;
  for (std::uint32_t t = 0; t < p.trials; ++t) {
    result.min_fraction.add(min_frac[t]);
    result.mean_fraction.add(mean_frac[t]);
    if (min_frac[t] < 0.25) ++result.below_quarter;
  }
  return result;
}

MixedResult run_mixed(const MixedParams& p) {
  if (p.n < 2) throw std::invalid_argument("run_mixed: n < 2");
  if (p.trials == 0) throw std::invalid_argument("run_mixed: trials == 0");
  const std::uint64_t rounds = p.rounds == 0 ? 4ull * p.n : p.rounds;
  // The scenario is deterministic in its parameters (round-robin deal,
  // largest-remainder class split); trials differ only in the in-round
  // randomness, exactly like the m = n drivers.
  const MixedSpec spec =
      make_mixed_spec(p.n, p.ball_ratio, p.weights, p.bin_profile);
  const double initial_balls = static_cast<double>(spec.balls);

  struct TrialOut {
    double window_max = 0, final_max = 0, window_max_weighted = 0;
    double mean_empty = 0, max_util = 0, dropped = 0;
  };
  std::vector<TrialOut> out(p.trials);

  for_each_trial(p.trials, p.seed, p.plan, [&](std::uint32_t trial, Rng& rng) {
    const auto measure = [&](auto process) {
      Engine engine(std::move(process));
      WindowMaxLoad wmax;
      WindowMaxWeightedLoad wweighted;
      MeanEmptyFraction mean_empty;
      WindowMaxUtilization util;
      engine.run_rounds(rounds, wmax, wweighted, mean_empty, util);
      out[trial] = {static_cast<double>(wmax.window_max),
                    static_cast<double>(wmax.final_max),
                    static_cast<double>(wweighted.window_max),
                    mean_empty.mean(), util.window_max,
                    static_cast<double>(engine.process().dropped_balls()) /
                        initial_balls};
    };
    p.plan.with_kernel<MixedProcess, par::ShardedMixedProcess>(
        p.seed, trial, rng, measure, spec);
  });

  MixedResult result;
  for (std::uint32_t t = 0; t < p.trials; ++t) {
    result.window_max.add(out[t].window_max);
    result.final_max.add(out[t].final_max);
    result.window_max_weighted.add(out[t].window_max_weighted);
    result.mean_empty_fraction.add(out[t].mean_empty);
    result.max_utilization.add(out[t].max_util);
    result.dropped_fraction.add(out[t].dropped);
  }
  return result;
}

CouplingResult run_coupling(const CouplingParams& p) {
  if (p.n < 4) throw std::invalid_argument("run_coupling: n < 4");
  if (p.trials == 0 || p.rounds == 0) {
    throw std::invalid_argument("run_coupling: trials/rounds == 0");
  }
  struct TrialOut {
    double original_max = 0;
    double tetris_max = 0;
    std::uint64_t case_two = 0;
    std::uint64_t violations = 0;
  };
  std::vector<TrialOut> out(p.trials);

  for_each_trial(p.trials, p.seed, [&](std::uint32_t trial, Rng& rng) {
    LoadConfig config = make_config(p.start, p.n, p.n, rng);
    // Lemma 3 requires a start with >= n/4 empty bins; as in Theorem 1's
    // proof, run one round of the original process first if needed.  The
    // warm-up and the coupled run get split sub-streams so the coupled
    // rounds do not replay the warm-up's randomness.
    if (empty_bins(config) < p.n / 4) {
      RepeatedBallsProcess warmup(std::move(config), rng.split());
      warmup.step();
      config = warmup.loads();
    }
    CoupledProcesses coupled(std::move(config), rng.split());
    coupled.run(p.rounds);
    out[trial] = TrialOut{
        static_cast<double>(coupled.original_running_max()),
        static_cast<double>(coupled.tetris_running_max()),
        coupled.case_two_rounds(), coupled.violation_rounds()};
  });

  CouplingResult result;
  for (const TrialOut& o : out) {
    result.original_window_max.add(o.original_max);
    result.tetris_window_max.add(o.tetris_max);
    result.total_case_two_rounds += o.case_two;
    result.total_violation_rounds += o.violations;
    if (o.violations > 0) {
      ++result.trials_with_violation;
    } else {
      ++result.trials_dominated_throughout;
    }
  }
  return result;
}

TetrisDrainResult run_tetris_drain(const TetrisDrainParams& p) {
  if (p.n < 2) throw std::invalid_argument("run_tetris_drain: n < 2");
  if (p.trials == 0) throw std::invalid_argument("run_tetris_drain: trials==0");
  const std::uint64_t cap = p.cap == 0 ? 64ull * p.n : p.cap;
  std::vector<double> drain(p.trials, -1.0);

  for_each_trial(p.trials, p.seed, [&](std::uint32_t trial, Rng& rng) {
    LoadConfig config = make_config(p.start, p.n, p.n, rng);
    Engine engine(TetrisProcess(std::move(config), rng));
    const EngineResult r = engine.run(cap, UntilAllEmptiedOnce{});
    if (r.goal_reached) {
      drain[trial] =
          static_cast<double>(engine.process().max_first_empty_round());
    }
  });

  TetrisDrainResult result;
  for (std::uint32_t t = 0; t < p.trials; ++t) {
    if (drain[t] < 0) {
      ++result.timeouts;
      continue;
    }
    result.max_first_empty.add(drain[t]);
    result.normalized.add(drain[t] / static_cast<double>(p.n));
    if (drain[t] > 5.0 * static_cast<double>(p.n)) ++result.exceeded_5n;
  }
  return result;
}

ZChainTailResult run_zchain_tail(const ZChainTailParams& p) {
  if (p.trials == 0 || p.ts.empty()) {
    throw std::invalid_argument("run_zchain_tail: trials/ts empty");
  }
  if (!std::is_sorted(p.ts.begin(), p.ts.end())) {
    throw std::invalid_argument("run_zchain_tail: ts must be sorted");
  }
  const std::uint64_t cap = p.ts.back();
  std::vector<double> taus(p.trials);

  for_each_trial(p.trials, p.seed, [&](std::uint32_t trial, Rng& rng) {
    const std::uint64_t tau = sample_absorption_time(p.n, p.start, cap, rng);
    taus[trial] = tau == kZChainNotAbsorbed
                      ? static_cast<double>(cap) + 1.0
                      : static_cast<double>(tau);
  });

  ZChainTailResult result;
  result.empirical_tail.assign(p.ts.size(), 0.0);
  for (std::uint32_t trial = 0; trial < p.trials; ++trial) {
    const double tau = taus[trial];
    if (tau > static_cast<double>(cap)) {
      ++result.timeouts;
    } else {
      result.absorption_time.add(tau);
    }
    for (std::size_t i = 0; i < p.ts.size(); ++i) {
      if (tau > static_cast<double>(p.ts[i])) result.empirical_tail[i] += 1.0;
    }
  }
  for (double& frac : result.empirical_tail) {
    frac /= static_cast<double>(p.trials);
  }
  return result;
}

TetrisWindowResult run_tetris_window(const TetrisWindowParams& p) {
  if (p.n < 2) throw std::invalid_argument("run_tetris_window: n < 2");
  if (p.trials == 0 || p.rounds == 0) {
    throw std::invalid_argument("run_tetris_window: trials/rounds == 0");
  }
  struct TrialOut {
    double max_load = 0.0;
    double min_empty_frac = 1.0;
    double empty_frac_sum = 0.0;
    double final_balls = 0.0;
  };
  std::vector<TrialOut> out(p.trials);

  for_each_trial(p.trials, p.seed, p.plan, [&](std::uint32_t trial, Rng& rng) {
    // Both backends step to TetrisRoundStats, so one body folds them.
    const auto measure = [&](auto&& proc) {
      TrialOut& o = out[trial];
      for (std::uint64_t t = 0; t < p.rounds; ++t) {
        const TetrisRoundStats s = proc.step();
        o.max_load = std::max(o.max_load, static_cast<double>(s.max_load));
        const double empty_frac = static_cast<double>(s.empty_bins) / p.n;
        o.min_empty_frac = std::min(o.min_empty_frac, empty_frac);
        o.empty_frac_sum += empty_frac;
        o.final_balls = static_cast<double>(s.total_balls);
      }
    };
    LoadConfig config = make_config(InitialConfig::kRandom, p.n, p.n, rng);
    if (p.plan.sharded()) {
      measure(par::ShardedTetrisProcess(std::move(config),
                                        trial_key(p.seed, trial), p.arrivals,
                                        p.plan.exec()));
    } else {
      measure(TetrisProcess(std::move(config), rng, p.arrivals));
    }
  });

  TetrisWindowResult result;
  for (const TrialOut& o : out) {
    result.max_load.add(o.max_load);
    result.min_empty_fraction.add(o.min_empty_frac);
    result.mean_empty_fraction.add(o.empty_frac_sum /
                                   static_cast<double>(p.rounds));
    result.final_balls_per_bin.add(o.final_balls / p.n);
  }
  return result;
}

NegAssocResult run_negative_association(std::uint64_t trials,
                                        std::uint64_t seed) {
  if (trials == 0) {
    throw std::invalid_argument("run_negative_association: trials == 0");
  }
  constexpr std::uint32_t kBatches = 256;
  struct Counts {
    std::uint64_t x1_zero = 0;
    std::uint64_t x2_zero = 0;
    std::uint64_t both_zero = 0;
    std::uint64_t trials = 0;
  };
  std::vector<Counts> batches(kBatches);

  for_each_trial(kBatches, seed, [&](std::uint32_t batch, Rng& rng) {
    Counts& c = batches[batch];
    const std::uint64_t quota =
        trials / kBatches + (batch < trials % kBatches ? 1 : 0);
    for (std::uint64_t i = 0; i < quota; ++i) {
      // n = 2, start (1, 1).  X_t = arrivals at bin 0 in round t,
      // recoverable from the load update: X_t = Q0(t) - max(Q0(t-1)-1, 0).
      // split() advances the batch rng so trials are independent.
      RepeatedBallsProcess proc(LoadConfig{1, 1}, rng.split());
      const std::uint32_t q0_before_1 = proc.loads()[0];
      proc.step();
      const std::uint32_t q0_after_1 = proc.loads()[0];
      const std::uint32_t x1 =
          q0_after_1 - (q0_before_1 > 0 ? q0_before_1 - 1 : 0);
      proc.step();
      const std::uint32_t q0_after_2 = proc.loads()[0];
      const std::uint32_t x2 =
          q0_after_2 - (q0_after_1 > 0 ? q0_after_1 - 1 : 0);
      if (x1 == 0) ++c.x1_zero;
      if (x2 == 0) ++c.x2_zero;
      if (x1 == 0 && x2 == 0) ++c.both_zero;
      ++c.trials;
    }
  });

  Counts total;
  for (const Counts& c : batches) {
    total.x1_zero += c.x1_zero;
    total.x2_zero += c.x2_zero;
    total.both_zero += c.both_zero;
    total.trials += c.trials;
  }
  NegAssocResult result;
  result.trials = total.trials;
  const double denom = static_cast<double>(total.trials);
  result.p_x1_zero = static_cast<double>(total.x1_zero) / denom;
  result.p_x2_zero = static_cast<double>(total.x2_zero) / denom;
  result.p_both_zero = static_cast<double>(total.both_zero) / denom;
  return result;
}

SqrtTResult run_sqrt_t(const SqrtTParams& p) {
  if (p.n < 2) throw std::invalid_argument("run_sqrt_t: n < 2");
  if (p.trials == 0 || p.checkpoints.empty()) {
    throw std::invalid_argument("run_sqrt_t: trials/checkpoints empty");
  }
  if (!std::is_sorted(p.checkpoints.begin(), p.checkpoints.end())) {
    throw std::invalid_argument("run_sqrt_t: checkpoints must be sorted");
  }
  const std::size_t k = p.checkpoints.size();
  std::vector<std::vector<double>> per_trial(p.trials,
                                             std::vector<double>(k, 0.0));

  for_each_trial(p.trials, p.seed, [&](std::uint32_t trial, Rng& rng) {
    LoadConfig config = make_config(p.start, p.n, p.n, rng);
    Engine engine(RepeatedBallsProcess(std::move(config), rng));
    RunningMaxAtCheckpoints running(p.checkpoints);
    engine.run_rounds(p.checkpoints.back(), running);
    for (std::size_t i = 0; i < k; ++i) {
      per_trial[trial][i] = static_cast<double>(running.values()[i]);
    }
  });

  SqrtTResult result;
  result.running_max_mean.assign(k, 0.0);
  result.running_max_worst.assign(k, 0);
  for (std::uint32_t trial = 0; trial < p.trials; ++trial) {
    for (std::size_t i = 0; i < k; ++i) {
      result.running_max_mean[i] += per_trial[trial][i];
      result.running_max_worst[i] =
          std::max(result.running_max_worst[i],
                   static_cast<std::uint32_t>(per_trial[trial][i]));
    }
  }
  for (double& m : result.running_max_mean) {
    m /= static_cast<double>(p.trials);
  }
  return result;
}

OneShotResult run_oneshot(const OneShotParams& p) {
  if (p.n < 2) throw std::invalid_argument("run_oneshot: n < 2");
  if (p.trials == 0) throw std::invalid_argument("run_oneshot: trials == 0");
  const std::uint64_t balls = p.balls == 0 ? p.n : p.balls;
  std::vector<double> maxima(p.trials);

  for_each_trial(p.trials, p.seed, [&](std::uint32_t trial, Rng& rng) {
    std::uint32_t m = 0;
    if (p.always_go_left) {
      m = dleft_max_load(balls, p.n, p.d, rng);
    } else if (p.d <= 1) {
      m = oneshot_max_load(balls, p.n, rng);
    } else {
      m = dchoice_max_load(balls, p.n, p.d, rng);
    }
    maxima[trial] = static_cast<double>(m);
  });

  OneShotResult result;
  for (const double m : maxima) result.max_load.add(m);
  return result;
}

LeakyResult run_leaky(const LeakyParams& p) {
  if (p.n < 2) throw std::invalid_argument("run_leaky: n < 2");
  if (p.trials == 0 || p.rounds == 0) {
    throw std::invalid_argument("run_leaky: trials/rounds == 0");
  }
  struct TrialOut {
    double window_max = 0;
    double mean_total = 0;
    double mean_empty = 0;
  };
  std::vector<TrialOut> out(p.trials);

  for_each_trial(p.trials, p.seed, p.plan, [&](std::uint32_t trial, Rng& rng) {
    LoadConfig config =
        make_config(InitialConfig::kOnePerBin, p.n, p.n, rng);
    const auto measure = [&](auto process) {
      Engine engine(std::move(process));
      engine.run_rounds(p.burn_in);
      WindowMaxLoad wmax;
      MeanTotalBallsPerBin total;
      MeanEmptyFraction empty;
      engine.run_rounds(p.rounds, wmax, total, empty);
      out[trial] = TrialOut{static_cast<double>(wmax.window_max),
                            total.mean(), empty.mean()};
    };
    p.plan.with_kernel<LeakyBinsProcess, par::ShardedLeakyBinsProcess>(
        p.seed, trial, rng, measure, std::move(config), p.lambda);
  });

  LeakyResult result;
  for (const TrialOut& o : out) {
    result.window_max.add(o.window_max);
    result.mean_total_per_bin.add(o.mean_total);
    result.mean_empty_fraction.add(o.mean_empty);
  }
  return result;
}

JacksonResult run_jackson(const JacksonParams& p) {
  if (p.n < 2) throw std::invalid_argument("run_jackson: n < 2");
  if (p.trials == 0) throw std::invalid_argument("run_jackson: trials == 0");
  const std::uint64_t customers = p.customers == 0 ? p.n : p.customers;
  const double horizon =
      p.horizon > 0 ? p.horizon : 20.0 * static_cast<double>(p.n);
  struct TrialOut {
    double running_max = 0;
    double final_max = 0;
    double rate = 0;
  };
  std::vector<TrialOut> out(p.trials);

  for_each_trial(p.trials, p.seed, [&](std::uint32_t trial, Rng& rng) {
    LoadConfig config =
        make_config(InitialConfig::kOnePerBin, p.n, customers, rng);
    ClosedJacksonNetwork net(std::move(config), rng);
    net.run_until(horizon);
    out[trial] = TrialOut{static_cast<double>(net.running_max_load()),
                          static_cast<double>(net.max_load()),
                          static_cast<double>(net.events()) / horizon};
  });

  JacksonResult result;
  for (const TrialOut& o : out) {
    result.running_max.add(o.running_max);
    result.final_max.add(o.final_max);
    result.events_per_unit_time.add(o.rate);
  }
  return result;
}

LoadProfileResult run_load_profile(const LoadProfileParams& p) {
  if (p.n < 2) throw std::invalid_argument("run_load_profile: n < 2");
  if (p.trials == 0) {
    throw std::invalid_argument("run_load_profile: trials == 0");
  }
  const std::uint64_t burn_in = p.burn_in == 0 ? 4ull * p.n : p.burn_in;
  const std::uint32_t samples = p.samples == 0 ? 50 : p.samples;
  const std::uint64_t gap =
      p.sample_gap == 0 ? std::max<std::uint64_t>(1, p.n / 4) : p.sample_gap;
  std::vector<Histogram> per_trial(p.trials);

  for_each_trial(p.trials, p.seed, [&](std::uint32_t trial, Rng& rng) {
    LoadConfig config =
        make_config(InitialConfig::kOnePerBin, p.n, p.n, rng);
    Histogram& h = per_trial[trial];
    // Round-synchronous processes share one chunked sampling loop; the
    // continuous-time Jackson network keeps its event clock.
    const auto sample_profile = [&](auto process) {
      Engine engine(std::move(process));
      engine.run_rounds(burn_in);
      for (std::uint32_t s = 0; s < samples; ++s) {
        engine.run_rounds(gap);
        h.merge(occupancy_histogram(engine.process().loads()));
      }
    };
    switch (p.process) {
      case ProfileProcess::kRepeated:
        sample_profile(RepeatedBallsProcess(std::move(config), rng));
        break;
      case ProfileProcess::kIndependent:
        sample_profile(IndependentWalksProcess(
            p.n, config_to_positions(config), nullptr, rng));
        break;
      case ProfileProcess::kTetris: {
        // Sequenced on purpose: make_config draws from `rng` before the
        // process copies it.
        LoadConfig start = make_config(InitialConfig::kRandom, p.n, p.n, rng);
        sample_profile(TetrisProcess(std::move(start), rng));
        break;
      }
      case ProfileProcess::kJackson: {
        ClosedJacksonNetwork net(std::move(config), rng);
        net.run_until(static_cast<double>(burn_in));
        double now = static_cast<double>(burn_in);
        for (std::uint32_t s = 0; s < samples; ++s) {
          now += static_cast<double>(gap);
          net.run_until(now);
          h.merge(occupancy_histogram(net.loads()));
        }
        break;
      }
    }
  });

  LoadProfileResult result;
  for (const Histogram& h : per_trial) result.profile.merge(h);
  const std::uint64_t max_load = result.profile.max_value();
  result.tail.reserve(max_load + 1);
  for (std::uint64_t k = 0; k <= max_load; ++k) {
    result.tail.push_back(result.profile.tail_fraction(k));
  }
  return result;
}

}  // namespace rbb
