// The token-process experiments of analysis/experiments.hpp: cover time,
// progress, delays and mixing (E8/E9, E18, E19, E21).
//
// They live in their own translation unit, apart from the ball runs
// of experiments.cpp: GCC's inlining budget is per translation unit, so
// with every sequential kernel instantiated in one file, an edit of the
// token core moved the code of the stability and convergence trials.
#include "analysis/experiments.hpp"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "baselines/independent_walks.hpp"
#include "core/kernel/token_kernel.hpp"
#include "engine/engine.hpp"
#include "par/sharded_token_process.hpp"
#include "support/bounds.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "traversal/traversal.hpp"

namespace rbb {

CoverTimeResult run_cover_time(const CoverTimeParams& p) {
  if (p.n < 2) throw std::invalid_argument("run_cover_time: n < 2");
  if (p.trials == 0) throw std::invalid_argument("run_cover_time: trials==0");
  if (p.plan.sharded() && (p.graph != nullptr || p.fault_period != 0)) {
    throw std::invalid_argument(
        "run_cover_time: the sharded token core is clique-only and "
        "fault-free; use the sequential backend");
  }
  struct TrialOut {
    double cover = -1.0;
    double first = 0;
    double max_load = 0;
    double single = -1.0;
  };
  std::vector<TrialOut> out(p.trials);
  const std::uint64_t cap =
      p.max_rounds != 0 ? p.max_rounds
                        : static_cast<std::uint64_t>(
                              64.0 * parallel_cover_scale(p.n));

  for_each_trial(p.trials, p.seed, p.plan, [&](std::uint32_t trial, Rng& rng) {
    TrialOut& o = out[trial];
    if (p.plan.sharded()) {
      // The visit-tracking token core.
      par::ShardedTokenProcess proc(
          p.n, make_token_placement(p.placement, p.n, p.n, rng),
          trial_key(p.seed, trial), p.plan.exec(),
          kernel::TokenOptions{.track_visits = true, .policy = p.policy});
      std::uint32_t wmax = 0;
      while (!proc.all_covered() && proc.round() < cap) {
        proc.step();
        wmax = std::max(wmax, proc.max_load());
      }
      if (proc.all_covered()) {
        o.cover = static_cast<double>(proc.global_cover_time());
        std::uint64_t first = proc.cover_round(0);
        for (std::uint32_t i = 1; i < proc.token_count(); ++i) {
          first = std::min(first, proc.cover_round(i));
        }
        o.first = static_cast<double>(first);
      }
      o.max_load = static_cast<double>(wmax);
    } else {
      TraversalParams tp;
      tp.n = p.n;
      tp.policy = p.policy;
      tp.graph = p.graph;
      tp.max_rounds = p.max_rounds;
      tp.placement = p.placement;
      tp.fault_period = p.fault_period;
      tp.fault_strategy = p.fault_strategy;
      const TraversalResult r = run_traversal(tp, trial_key(p.seed, trial));
      if (r.cover_time.has_value()) {
        o.cover = static_cast<double>(*r.cover_time);
        o.first = static_cast<double>(r.first_token_covered);
      }
      o.max_load = static_cast<double>(r.max_load_seen);
    }
    const auto single = single_walk_cover_time(p.n, p.graph, cap, rng);
    if (single.has_value()) o.single = static_cast<double>(*single);
  });

  CoverTimeResult result;
  const double scale = parallel_cover_scale(p.n);
  for (const TrialOut& o : out) {
    if (o.cover < 0) {
      ++result.timeouts;
    } else {
      result.cover_time.add(o.cover);
      result.normalized.add(o.cover / scale);
      result.first_token.add(o.first);
    }
    result.max_load_seen.add(o.max_load);
    if (o.single >= 0) result.single_walk.add(o.single);
  }
  return result;
}

ProgressResult run_progress(const ProgressParams& p) {
  if (p.n < 2) throw std::invalid_argument("run_progress: n < 2");
  if (p.trials == 0) throw std::invalid_argument("run_progress: trials == 0");
  const std::uint64_t rounds = p.rounds == 0 ? 8ull * p.n : p.rounds;
  struct TrialOut {
    double min_progress = 0;
    double mean_progress = 0;
  };
  std::vector<TrialOut> out(p.trials);

  for_each_trial(p.trials, p.seed, p.plan, [&](std::uint32_t trial, Rng& rng) {
    const auto measure = [&](auto process) {
      Engine engine(std::move(process));
      engine.run_rounds(rounds);
      const auto& proc = engine.process();
      double sum = 0.0;
      for (std::uint32_t i = 0; i < p.n; ++i) {
        sum += static_cast<double>(proc.progress(i));
      }
      out[trial] = TrialOut{static_cast<double>(proc.min_progress()),
                            sum / static_cast<double>(p.n)};
    };
    if (p.plan.sharded()) {
      measure(par::ShardedTokenProcess(
          p.n, identity_placement(p.n), trial_key(p.seed, trial),
          p.plan.exec(), kernel::TokenOptions{.policy = p.policy}));
    } else {
      measure(kernel::SequentialTokenProcess(
          p.n, identity_placement(p.n), rng,
          kernel::TokenOptions{.policy = p.policy}));
    }
  });

  ProgressResult result;
  const double t = static_cast<double>(rounds);
  for (const TrialOut& o : out) {
    result.min_progress.add(o.min_progress);
    result.min_progress_normalized.add(o.min_progress * log2n(p.n) / t);
    result.mean_progress.add(o.mean_progress / t);
  }
  return result;
}

DelayResult run_delays(const DelayParams& p) {
  if (p.n < 2) throw std::invalid_argument("run_delays: n < 2");
  if (p.trials == 0) throw std::invalid_argument("run_delays: trials == 0");
  const std::uint64_t rounds = p.rounds == 0 ? 16ull * p.n : p.rounds;
  std::vector<Histogram> per_trial(p.trials);
  std::vector<double> max_delay(p.trials, 0.0);

  for_each_trial(p.trials, p.seed, [&](std::uint32_t trial, Rng& rng) {
    Engine engine(kernel::SequentialTokenProcess(
        p.n, identity_placement(p.n), rng,
        kernel::TokenOptions{.policy = p.policy, .track_delays = true}));
    engine.run_rounds(rounds);
    per_trial[trial] = engine.process().delay_histogram();
    max_delay[trial] = static_cast<double>(per_trial[trial].max_value());
  });

  DelayResult result;
  for (std::uint32_t t = 0; t < p.trials; ++t) {
    result.delays.merge(per_trial[t]);
    result.max_delay.add(max_delay[t]);
  }
  result.mean_delay = result.delays.mean();
  result.p50 = result.delays.quantile(0.50);
  result.p99 = result.delays.quantile(0.99);
  result.p999 = result.delays.quantile(0.999);
  return result;
}

MixingResult run_mixing(const MixingParams& p) {
  if (p.n < 2) throw std::invalid_argument("run_mixing: n < 2");
  if (p.trials == 0 || p.checkpoints.empty()) {
    throw std::invalid_argument("run_mixing: trials/checkpoints empty");
  }
  if (!std::is_sorted(p.checkpoints.begin(), p.checkpoints.end())) {
    throw std::invalid_argument("run_mixing: checkpoints must be sorted");
  }
  // positions[c][bin]: occurrences of token 0 at `bin` at checkpoint c.
  const std::size_t k = p.checkpoints.size();
  std::vector<std::vector<std::uint64_t>> positions(
      k, std::vector<std::uint64_t>(p.n, 0));
  std::mutex merge_mutex;

  // Track the worst-positioned token: queues order by id, so under FIFO
  // (and random) the highest id sits at the back of its start queue; under
  // LIFO the lowest id is buried deepest.
  const std::uint32_t tracked =
      p.policy == QueuePolicy::kLifo ? 0 : p.n - 1;

  /// Ad-hoc observer: the tracked token's bin at each checkpoint.
  struct TokenBinAtCheckpoints {
    const std::vector<std::uint64_t>& checkpoints;
    std::uint32_t token;
    std::vector<std::uint32_t> where;
    std::size_t next = 0;

    void observe(const RoundContext<kernel::SequentialTokenProcess>& ctx) {
      while (next < checkpoints.size() &&
             checkpoints[next] == ctx.round()) {
        where[next] = ctx.process().token_bin(token);
        ++next;
      }
    }
  };

  for_each_trial(p.trials, p.seed, [&](std::uint32_t /*trial*/, Rng& rng) {
    std::vector<std::uint32_t> placement =
        make_token_placement(p.placement, p.n, p.n, rng);
    Engine engine(kernel::SequentialTokenProcess(
        p.n, std::move(placement), rng.split(),
        kernel::TokenOptions{.policy = p.policy}));
    TokenBinAtCheckpoints tracker{
        p.checkpoints, tracked, std::vector<std::uint32_t>(k, 0), 0};
    engine.run_rounds(p.checkpoints.back(), tracker);
    const std::lock_guard<std::mutex> lock(merge_mutex);
    for (std::size_t c = 0; c < k; ++c) ++positions[c][tracker.where[c]];
  });

  MixingResult result;
  result.tv_from_uniform.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    result.tv_from_uniform.push_back(
        total_variation_from_uniform(positions[c]));
  }
  // Noise floor: TV of an actually-uniform sampler with the same count.
  Rng noise_rng(p.seed, 0xf100);
  std::vector<std::uint64_t> uniform_counts(p.n, 0);
  for (std::uint32_t t = 0; t < p.trials; ++t) {
    ++uniform_counts[noise_rng.index(p.n)];
  }
  result.noise_floor = total_variation_from_uniform(uniform_counts);
  return result;
}

}  // namespace rbb
