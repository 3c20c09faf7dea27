// Experiment drivers: one function per claim-reproduction experiment.
//
// Each driver runs `trials` independent simulations via
// engine/trials.hpp (per-trial RNG substreams -- results are independent
// of the worker-thread count), composes an Engine with the observers and
// stopping rule the experiment needs, reduces per-trial observables into
// OnlineMoments, and returns a small result struct the registry
// experiments (src/runner/experiments/) format into tables.  DESIGN.md
// Sect. 4 maps experiments E1..E23 to these drivers; DESIGN.md Sect. 2
// describes the engine layer they sit on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/faults.hpp"
#include "core/mixed_config.hpp"
#include "core/token_process.hpp"
#include "engine/trials.hpp"
#include "graph/graph.hpp"
#include "support/stats.hpp"

namespace rbb {

// ---------------------------------------------------------------------------
// E1 / E7 / E13 / E14 / E15 -- stability windows
// ---------------------------------------------------------------------------

/// Which process the stability driver runs.
enum class StabilityProcess {
  kRepeated,        // the paper's process (E1, E13, E14)
  kTetris,          // the auxiliary process (E7)
  kRepeatedDChoice, // the [36] extension (E15); set `choices`
  kIndependent,     // unconstrained parallel walks (E12 comparator)
  kThreshold,       // 1-2-3-Toolkit threshold allocation; set
                    // `threshold` and `choices` (= probe count)
};

struct StabilityParams {
  std::uint32_t n = 0;
  std::uint64_t balls = 0;      // 0 = n
  std::uint64_t rounds = 0;     // observation window (after round 1)
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
  InitialConfig start = InitialConfig::kOnePerBin;
  double beta = 4.0;            // legitimacy constant
  const Graph* graph = nullptr; // nullptr = complete graph
  StabilityProcess process = StabilityProcess::kRepeated;
  std::uint32_t choices = 2;    // d for kRepeatedDChoice; probes for
                                // kThreshold
  std::uint32_t threshold = 0;  // kThreshold accept bound; 0 = auto
                                // (ceil(m/n) + 1)
  /// Fan-out and kernel (default: legacy shared-pool fan-out, seq
  /// kernel).  Backend::kSharded is supported for kRepeated,
  /// kRepeatedDChoice and kThreshold on the complete graph (the
  /// kernels with src/par/ instantiations); other processes reject it.
  TrialPlan plan = {};
};

struct StabilityResult {
  OnlineMoments window_max;        // per-trial max_t M(t), t in [1, rounds]
  OnlineMoments final_max;         // per-trial M(rounds)
  OnlineMoments min_empty_fraction;// per-trial min_t empty(t)/n, t >= 1
  double legit_window_fraction = 0; // trials with window max <= beta log2 n
  std::uint32_t overall_max = 0;   // max over trials of window max
  /// Raw per-trial window maxima (indexed by trial), for ablations that
  /// re-evaluate legitimacy under several beta values without re-running.
  std::vector<double> per_trial_window_max;
};

[[nodiscard]] StabilityResult run_stability(const StabilityParams& params);

// ---------------------------------------------------------------------------
// E2 -- convergence time from arbitrary configurations (Theorem 1, part 2)
// ---------------------------------------------------------------------------

struct ConvergenceParams {
  std::uint32_t n = 0;
  std::uint64_t balls = 0;  // 0 = n (m = c * n regimes set this)
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
  InitialConfig start = InitialConfig::kAllInOne;
  double beta = 4.0;
  std::uint64_t cap = 0;  // 0 = 64 n
  TrialPlan plan = {};    // fan-out and kernel (engine/trials.hpp)
};

struct ConvergenceResult {
  OnlineMoments rounds_to_legitimate;  // per-trial convergence round
  OnlineMoments normalized;            // convergence round / n
  std::uint32_t timeouts = 0;          // trials that hit the cap
};

[[nodiscard]] ConvergenceResult run_convergence(const ConvergenceParams& p);

// ---------------------------------------------------------------------------
// E3 -- the empty-bins invariant (Lemmas 1-2)
// ---------------------------------------------------------------------------

struct EmptyBinsParams {
  std::uint32_t n = 0;
  std::uint64_t balls = 0;  // 0 = n (m = c * n regimes set this)
  std::uint64_t rounds = 0;
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
  InitialConfig start = InitialConfig::kOnePerBin;
  TrialPlan plan = {};  // fan-out and kernel (engine/trials.hpp)
};

struct EmptyBinsResult {
  OnlineMoments min_fraction;   // per-trial min_{t>=1} empty(t)/n
  OnlineMoments mean_fraction;  // per-trial mean_{t>=1} empty(t)/n
  std::uint32_t below_quarter = 0;  // trials whose min dipped below 1/4
};

[[nodiscard]] EmptyBinsResult run_empty_bins(const EmptyBinsParams& p);

// ---------------------------------------------------------------------------
// Mixed-regime engine (DESIGN.md Sect. 5): m = c n, weighted balls,
// heterogeneous bins
// ---------------------------------------------------------------------------

struct MixedParams {
  std::uint32_t n = 0;
  double ball_ratio = 1.0;            // m = round(ratio * n), min 1
  std::string weights = "unit";       // core/mixed_config.hpp profile
  std::string bin_profile = "uniform";
  std::uint64_t rounds = 0;           // 0 = 4 n
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
  TrialPlan plan = {};                // fan-out and kernel
};

struct MixedResult {
  OnlineMoments window_max;           // per-trial max_t M(t)
  OnlineMoments final_max;            // per-trial M(rounds)
  OnlineMoments window_max_weighted;  // per-trial max_t weighted M(t)
  OnlineMoments mean_empty_fraction;  // per-trial mean_t empty(t)/n
  OnlineMoments max_utilization;      // per-trial max_t load/cap (capped)
  OnlineMoments dropped_fraction;     // per-trial drops / initial balls
};

[[nodiscard]] MixedResult run_mixed(const MixedParams& p);

// ---------------------------------------------------------------------------
// E4 -- coupling & domination (Lemma 3)
// ---------------------------------------------------------------------------

struct CouplingParams {
  std::uint32_t n = 0;
  std::uint64_t rounds = 0;
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
  InitialConfig start = InitialConfig::kRandom;
};

struct CouplingResult {
  OnlineMoments original_window_max;  // M_T per trial
  OnlineMoments tetris_window_max;    // M-hat_T per trial
  std::uint64_t total_case_two_rounds = 0;
  std::uint64_t total_violation_rounds = 0;
  std::uint32_t trials_with_violation = 0;
  std::uint32_t trials_dominated_throughout = 0;
};

[[nodiscard]] CouplingResult run_coupling(const CouplingParams& p);

// ---------------------------------------------------------------------------
// E5 -- Tetris drain time (Lemma 4)
// ---------------------------------------------------------------------------

struct TetrisDrainParams {
  std::uint32_t n = 0;
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
  InitialConfig start = InitialConfig::kAllInOne;
  std::uint64_t cap = 0;  // 0 = 64 n
};

struct TetrisDrainResult {
  OnlineMoments max_first_empty;  // per-trial max_u first-empty round
  OnlineMoments normalized;       // the same, divided by n
  std::uint32_t exceeded_5n = 0;  // trials where the max exceeded 5n
  std::uint32_t timeouts = 0;
};

[[nodiscard]] TetrisDrainResult run_tetris_drain(const TetrisDrainParams& p);

// ---------------------------------------------------------------------------
// E6 -- Z-chain absorption tail (Lemma 5)
// ---------------------------------------------------------------------------

struct ZChainTailParams {
  std::uint32_t n = 0;
  std::uint64_t start = 0;          // initial state k
  std::vector<std::uint64_t> ts;    // tail evaluation points
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
};

struct ZChainTailResult {
  OnlineMoments absorption_time;      // per-trial tau
  std::vector<double> empirical_tail; // P(tau > t) for each requested t
  std::uint32_t timeouts = 0;         // trials not absorbed within max(ts)
};

[[nodiscard]] ZChainTailResult run_zchain_tail(const ZChainTailParams& p);

// ---------------------------------------------------------------------------
// E7 -- Tetris stability window (Lemma 6)
// ---------------------------------------------------------------------------

struct TetrisWindowParams {
  std::uint32_t n = 0;
  std::uint64_t arrivals = 0;  // fresh balls per round; 0 = floor(3n/4)
  std::uint64_t rounds = 0;    // measured window, from a random start
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
  TrialPlan plan = {};         // fan-out and kernel (engine/trials.hpp)
};

struct TetrisWindowResult {
  OnlineMoments max_load;             // per-trial window max load
  OnlineMoments min_empty_fraction;   // per-trial min empty(t)/n
  OnlineMoments mean_empty_fraction;  // per-trial mean empty(t)/n
  OnlineMoments final_balls_per_bin;  // per-trial total balls / n at the end
};

[[nodiscard]] TetrisWindowResult run_tetris_window(const TetrisWindowParams& p);

// ---------------------------------------------------------------------------
// E8 / E9 -- cover times (Corollary 1, Sect. 4.1)
// ---------------------------------------------------------------------------

struct CoverTimeParams {
  std::uint32_t n = 0;
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
  QueuePolicy policy = QueuePolicy::kFifo;
  const Graph* graph = nullptr;
  InitialConfig placement = InitialConfig::kOnePerBin;
  std::uint64_t fault_period = 0;   // 0 = no faults (E8); else E9
  FaultStrategy fault_strategy = FaultStrategy::kAllToOne;
  std::uint64_t max_rounds = 0;     // 0 = 64 n log2(n)^2
  /// Fan-out and kernel.  Backend::kSharded drives the visit-tracking
  /// token core (any queue policy, clique, no faults); rejected when
  /// graph/faults need the sequential xoshiro token core.
  TrialPlan plan = {};
};

struct CoverTimeResult {
  OnlineMoments cover_time;          // per-trial global cover time
  OnlineMoments normalized;          // cover time / (n log2(n)^2)
  OnlineMoments first_token;         // earliest token cover round
  OnlineMoments max_load_seen;
  OnlineMoments single_walk;         // single-token baseline cover time
  std::uint32_t timeouts = 0;
};

[[nodiscard]] CoverTimeResult run_cover_time(const CoverTimeParams& p);

// ---------------------------------------------------------------------------
// E10 -- negative-association counterexample (Appendix B)
// ---------------------------------------------------------------------------

struct NegAssocResult {
  double p_x1_zero = 0;        // estimate of P(X1 = 0); exact 1/4
  double p_x2_zero = 0;        // estimate of P(X2 = 0); exact 3/8
  double p_both_zero = 0;      // estimate of P(X1 = 0, X2 = 0); exact 1/8
  std::uint64_t trials = 0;
};

/// Monte-Carlo estimate of the Appendix-B probabilities for n = 2 started
/// from one ball per bin; X_t = number of balls arriving at bin 0 in
/// round t.
[[nodiscard]] NegAssocResult run_negative_association(std::uint64_t trials,
                                                      std::uint64_t seed);

// ---------------------------------------------------------------------------
// E11 -- running max vs the O(sqrt(t)) bound of [12]
// ---------------------------------------------------------------------------

struct SqrtTParams {
  std::uint32_t n = 0;
  std::vector<std::uint64_t> checkpoints;  // increasing round indices
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
  InitialConfig start = InitialConfig::kOnePerBin;
};

struct SqrtTResult {
  /// mean over trials of max_{s<=t} M(s) at each checkpoint.
  std::vector<double> running_max_mean;
  /// max over trials at each checkpoint.
  std::vector<std::uint32_t> running_max_worst;
};

[[nodiscard]] SqrtTResult run_sqrt_t(const SqrtTParams& p);

// ---------------------------------------------------------------------------
// E12 -- one-shot baseline max loads
// ---------------------------------------------------------------------------

struct OneShotParams {
  std::uint32_t n = 0;
  std::uint64_t balls = 0;   // 0 = n
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
  std::uint32_t d = 1;       // 1 = plain one-shot; >= 2 = Greedy[d]
  bool always_go_left = false;
};

struct OneShotResult {
  OnlineMoments max_load;
};

[[nodiscard]] OneShotResult run_oneshot(const OneShotParams& p);

// ---------------------------------------------------------------------------
// E16 -- leaky bins (lambda sweep)
// ---------------------------------------------------------------------------

struct LeakyParams {
  std::uint32_t n = 0;
  double lambda = 0.75;
  std::uint64_t burn_in = 0;   // rounds discarded before measuring
  std::uint64_t rounds = 0;    // measured window
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
  TrialPlan plan = {};  // fan-out and kernel (engine/trials.hpp)
};

struct LeakyResult {
  OnlineMoments window_max;         // per-trial max load in the window
  OnlineMoments mean_total_per_bin; // per-trial mean of total balls / n
  OnlineMoments mean_empty_fraction;
};

[[nodiscard]] LeakyResult run_leaky(const LeakyParams& p);

// ---------------------------------------------------------------------------
// E17 -- closed Jackson network
// ---------------------------------------------------------------------------

struct JacksonParams {
  std::uint32_t n = 0;
  std::uint64_t customers = 0;  // 0 = n
  double horizon = 0;           // time units; 0 = 20 n
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
};

struct JacksonResult {
  OnlineMoments running_max;  // per-trial max queue length over the run
  OnlineMoments final_max;    // per-trial max queue length at the horizon
  OnlineMoments events_per_unit_time;
};

[[nodiscard]] JacksonResult run_jackson(const JacksonParams& p);

// ---------------------------------------------------------------------------
// E18 -- FIFO token progress (Sect. 4 guarantee)
// ---------------------------------------------------------------------------

struct ProgressParams {
  std::uint32_t n = 0;
  std::uint64_t rounds = 0;   // 0 = 8 n
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
  QueuePolicy policy = QueuePolicy::kFifo;
  /// Fan-out and kernel; Backend::kSharded drives the src/par/ token
  /// core.
  TrialPlan plan = {};
};

struct ProgressResult {
  OnlineMoments min_progress;            // per-trial min_i progress_i(T)
  OnlineMoments min_progress_normalized; // min progress * log2(n) / T
  OnlineMoments mean_progress;           // per-trial mean progress / T
};

[[nodiscard]] ProgressResult run_progress(const ProgressParams& p);

// ---------------------------------------------------------------------------
// E19 -- token waiting times (Sect. 1.1: delay <= O(log n) w.h.p.)
// ---------------------------------------------------------------------------

struct DelayParams {
  std::uint32_t n = 0;
  std::uint64_t rounds = 0;  // 0 = 16 n
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
  QueuePolicy policy = QueuePolicy::kFifo;
};

struct DelayResult {
  Histogram delays;          // pooled over trials (one entry per release)
  OnlineMoments max_delay;   // per-trial maximum delay
  double mean_delay = 0;     // pooled mean
  std::uint64_t p50 = 0, p99 = 0, p999 = 0;  // pooled quantiles
};

[[nodiscard]] DelayResult run_delays(const DelayParams& p);

// ---------------------------------------------------------------------------
// E20 -- stationary load profile (occupancy distribution)
// ---------------------------------------------------------------------------

/// Which process's stationary profile to sample.
enum class ProfileProcess { kRepeated, kIndependent, kTetris, kJackson };

struct LoadProfileParams {
  std::uint32_t n = 0;
  ProfileProcess process = ProfileProcess::kRepeated;
  std::uint64_t burn_in = 0;   // rounds before sampling (0 = 4 n)
  std::uint32_t samples = 0;   // configuration snapshots (0 = 50)
  std::uint64_t sample_gap = 0;// rounds between snapshots (0 = n/4)
  std::uint32_t trials = 0;
  std::uint64_t seed = 1;
};

struct LoadProfileResult {
  /// Pooled occupancy histogram: total count of (bin, snapshot) pairs at
  /// each load value.
  Histogram profile;
  /// tail_fraction(k) convenience copy: fraction of bins with load >= k.
  std::vector<double> tail;  // index k, up to the max observed load
};

[[nodiscard]] LoadProfileResult run_load_profile(const LoadProfileParams& p);

// ---------------------------------------------------------------------------
// E21 -- tagged-token mixing (parallel-walk uniformity, cf. [13])
// ---------------------------------------------------------------------------

struct MixingParams {
  std::uint32_t n = 0;
  std::vector<std::uint64_t> checkpoints;  // increasing round indices
  std::uint32_t trials = 0;                // position samples per point
  std::uint64_t seed = 1;
  QueuePolicy policy = QueuePolicy::kFifo;
  /// Initial placement.  The tracked token is the *worst-positioned* one
  /// for the policy (the back of the queue under FIFO/random, the front
  /// under LIFO), so the measurement captures the delay-induced freezing
  /// the queueing correlation causes -- a front-of-queue token would mix
  /// in a single round and show nothing.
  InitialConfig placement = InitialConfig::kRandom;
};

struct MixingResult {
  /// TV distance of token 0's empirical position distribution from
  /// uniform, at each checkpoint.
  std::vector<double> tv_from_uniform;
  /// Sampling-noise floor: the TV a perfectly uniform sampler of the same
  /// trial count would show (estimated with fresh uniform draws).
  double noise_floor = 0;
};

[[nodiscard]] MixingResult run_mixing(const MixingParams& p);

}  // namespace rbb
