// mc_claims: Monte-Carlo trials of the catalog's claim drivers.
//
// Why: users check the paper's claims by many independent trials at
// moderate n.  The state fits in cache, so the time goes to the engine's
// observers and stop rules, the trial fan-out over the thread pool
// (engine/trials + support/thread_pool) and the legacy token process
// (core/token_process).  The sharded scatter, the pipeline and ckpt are
// bypassed.
//
// One unit calls the analysis drivers on the sequential xoshiro kernels,
// trials spread over the process-wide pool (3 workers + the caller):
//   run_convergence  all-in-one start, n = 2^13  (Theorem 1, part 2)
//   run_stability    one-per-bin start, n = 2^12, window 20n  (part 1)
//   run_delays       FIFO, n = 2^12  (O(log n) per-release delay)
// and checks each claim.  A single stability trial on the calling
// thread alone gives the width-1 cost of the same per-ball work.
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "common.hpp"
#include "core/process.hpp"
#include "engine/engine.hpp"
#include "engine/trials.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {
namespace {

struct Size {
  std::uint32_t conv_n;
  std::uint32_t conv_trials;
  std::uint32_t stab_n;
  std::uint32_t stab_trials;
  std::uint64_t stab_window_per_n;  // window = this * n rounds
  std::uint32_t delay_n;
  std::uint32_t delay_trials;
  std::uint64_t delay_rounds_per_n;  // rounds = this * n
  std::uint64_t short_window_per_n;  // set-up, width-1 and engine probes
};

constexpr Size kFull{1u << 13, 4, 1u << 12, 4, 20, 1u << 12, 4, 4, 4};
constexpr Size kTiny{1u << 8, 4, 1u << 8, 4, 20, 1u << 8, 4, 4, 4};

// Constants of the checks: window max <= 4 log2 n (Theorem 1 with the
// repository's legitimacy beta = 4) and p99.9 delay <= 4 log2 n.
constexpr double kBeta = 4.0;
constexpr double kDelayConstant = 4.0;

struct Pass : PassBase {
  std::vector<double> convergence_s;
  std::vector<double> stability_s;
  std::vector<double> delays_s;
  std::vector<double> ns_per_release;
  std::vector<double> rounds_per_trial;
};

double log2n(std::uint32_t n) { return std::log2(static_cast<double>(n)); }

void unit(const Options& o, const Size& s, Pass& p, Report& rep) {
  const std::uint64_t unit_seed = rbb::mix64(o.seed, p.units);
  const double start = now_s();

  // The work before the first timed round: one short batch of stability
  // trials, one per pool thread, touches every worker's trial state.
  rbb::StabilityParams w;
  w.n = s.stab_n;
  w.rounds = s.short_window_per_n * s.stab_n;
  w.trials = rbb::ThreadPool::global().thread_count() + 1;
  w.seed = rbb::mix64(unit_seed, 0);
  const double setup =
      timed("bench.setup", [&] { (void)rbb::run_stability(w); });
  p.setup_s.push_back(setup);

  rbb::ConvergenceParams c;
  c.n = s.conv_n;
  c.trials = s.conv_trials;
  c.seed = rbb::mix64(unit_seed, 1);
  c.start = rbb::InitialConfig::kAllInOne;
  c.beta = kBeta;
  rbb::ConvergenceResult conv;
  const double conv_s = timed("bench.analysis.convergence",
                              [&] { conv = rbb::run_convergence(c); });
  rep.check(conv.timeouts == 0, "mc_claims: convergence timed out");
  rep.check(conv.rounds_to_legitimate.max() <= 4.0 * s.conv_n,
            "mc_claims: convergence took more than 4n rounds");

  rbb::StabilityParams st;
  st.n = s.stab_n;
  st.rounds = s.stab_window_per_n * s.stab_n;
  st.trials = s.stab_trials;
  st.seed = rbb::mix64(unit_seed, 2);
  st.beta = kBeta;
  rbb::StabilityResult stab;
  const double stab_s = timed("bench.analysis.stability",
                              [&] { stab = rbb::run_stability(st); });
  for (const double m : stab.per_trial_window_max) {
    rep.check(m <= kBeta * log2n(s.stab_n),
              "mc_claims: stability window max above 4 log2 n");
  }

  rbb::DelayParams d;
  d.n = s.delay_n;
  d.rounds = s.delay_rounds_per_n * s.delay_n;
  d.trials = s.delay_trials;
  d.seed = rbb::mix64(unit_seed, 3);
  rbb::DelayResult delays;
  const double delay_s =
      timed("bench.analysis.delays", [&] { delays = rbb::run_delays(d); });
  rep.check(static_cast<double>(delays.p999) <=
                kDelayConstant * log2n(s.delay_n),
            "mc_claims: p99.9 delay above 4 log2 n");

  // Width 1: one trial with a sequential fan-out, so only the caller runs.
  rbb::StabilityParams st1 = st;
  st1.rounds = s.short_window_per_n * s.stab_n;
  st1.trials = 1;
  st1.seed = rbb::mix64(unit_seed, 4);
  st1.plan = rbb::TrialPlan{1, 1};
  rbb::StabilityResult stab1;
  const double width1_s = timed("bench.analysis.stability_1t",
                                [&] { stab1 = rbb::run_stability(st1); });
  rep.check(stab1.overall_max <= kBeta * log2n(s.stab_n),
            "mc_claims: width-1 stability window max above 4 log2 n");

  const double balls4 =
      conv.rounds_to_legitimate.mean() * c.trials * s.conv_n +
      static_cast<double>(st.rounds) * st.trials * s.stab_n +
      static_cast<double>(d.rounds) * d.trials * s.delay_n;
  const double balls1 = static_cast<double>(st1.rounds) * s.stab_n;
  const double layers = conv_s + stab_s + delay_s + width1_s;
  const double wall = now_s() - start - setup;
  p.wall_s.push_back(wall);
  p.unattributed.push_back((wall - layers) / wall);
  p.ns4.push_back((conv_s + stab_s + delay_s) * 1e9 / balls4);
  p.ns1.push_back(width1_s * 1e9 / balls1);
  p.balls += balls4 + balls1;
  p.convergence_s.push_back(conv_s);
  p.stability_s.push_back(stab_s);
  p.delays_s.push_back(delay_s);
  p.ns_per_release.push_back(delay_s * 1e9 /
                             static_cast<double>(delays.delays.total()));
  p.rounds_per_trial.push_back(conv.rounds_to_legitimate.mean());
}

/// One stability trial body: run_stability's observers over `rounds`
/// rounds, or (bare) the plain step loop on the same start and stream.
double stability_trial(std::uint32_t n, std::uint64_t rounds, rbb::Rng rng,
                       bool bare) {
  rbb::Rng cfg_rng = rng;
  rbb::LoadConfig config =
      rbb::make_config(rbb::InitialConfig::kOnePerBin, n, n, cfg_rng);
  const double t0 = now_s();
  if (bare) {
    rbb::RepeatedBallsProcess proc(std::move(config), rng);
    for (std::uint64_t r = 0; r < rounds; ++r) proc.step();
  } else {
    rbb::Engine engine(rbb::RepeatedBallsProcess(std::move(config), rng));
    rbb::WindowMaxLoad wmax;
    rbb::MinEmptyFraction memp;
    engine.run_rounds(rounds, wmax, memp);
  }
  return now_s() - t0;
}

/// engine.observer_overhead_frac and engine.trial_imbalance.
void engine_metrics(const Options& o, const Size& s, Report& rep) {
  const std::uint64_t rounds = s.short_window_per_n * s.stab_n;
  std::vector<double> engine_s;
  std::vector<double> bare_s;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const rbb::Rng rng(o.seed, i);
    engine_s.push_back(stability_trial(s.stab_n, rounds, rng, false));
    bare_s.push_back(stability_trial(s.stab_n, rounds, rng, true));
  }
  rep.layer("engine.observer_overhead_frac",
            median(engine_s) / median(bare_s) - 1.0);

  constexpr std::uint32_t kTrials = 8;
  std::vector<double> spans(kTrials, 0.0);
  rbb::for_each_trial(kTrials, o.seed, [&](std::uint32_t trial, rbb::Rng& rng) {
    spans[trial] = stability_trial(s.stab_n, rounds, rng, false);
  });
  rep.layer("engine.trial_imbalance", max_over_mean(spans));
}

}  // namespace

void run_mc_claims(const Options& o, Report& rep) {
  const Size& s = o.tiny ? kTiny : kFull;
  const unsigned width = rbb::ThreadPool::global().thread_count() + 1;
  rep.info("pool_threads", width);
  // Resident state: one trial's largest load kernel, times the trials
  // that run at once.
  rbb::Rng rng(o.seed);
  const double state_bytes =
      static_cast<double>(
          rbb::RepeatedBallsProcess(
              rbb::make_config(rbb::InitialConfig::kAllInOne, s.conv_n,
                               s.conv_n, rng),
              rng)
              .resident_state_bytes()) *
      width;
  const auto one_unit = [&](Pass& p) {
    p.state_bytes = state_bytes;
    unit(o, s, p, rep);
  };
  if (!o.trace) {
    report_end_to_end(run_pass<Pass>(o.seconds, one_unit), rep);
    return;
  }
  const TracedRun<Pass> run = run_traced<Pass>(o, one_unit);
  report_common_layers(run.plain, run.traced, run.snap, o.seed, rep);
  rep.layer("analysis.convergence_s", median(run.traced.convergence_s));
  rep.layer("analysis.stability_s", median(run.traced.stability_s));
  rep.layer("analysis.delays_s", median(run.traced.delays_s));
  rep.layer("core.delays_ns_per_release", median(run.traced.ns_per_release));
  rep.layer("engine.rounds_per_trial", median(run.traced.rounds_per_trial));
  engine_metrics(o, s, rep);
  rep.fill_bypassed_layers();
}

}  // namespace perfbench
