// Pluggable per-round metric observers for the Engine (DESIGN.md Sect. 2).
//
// Observers compose: Engine<P>::run(...) takes any number of them and
// invokes obs.observe(ctx) after every executed round with a
// RoundContext -- a lazy, memoized view of the end-of-round state.
// Laziness matters: computing the maximum load is O(1) for the load-only
// kernel but O(n) for the token process, so a run that observes nothing
// (or only round counts) must not pay for load scans.  Every observer
// here is a plain struct usable on the stack of one Monte-Carlo trial;
// experiment drivers read the accumulated values after the run.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <vector>

namespace rbb {

/// \brief Lazy, memoized view of the process state at the end of a
/// round -- the single argument every observer's `observe()` receives.
///
/// `round()` is 1-based and counts rounds executed by the current
/// Engine::run call (checkpoint observers index off it).  `max_load()`
/// and `empty_bins()` call the process member of that name at most once
/// per round no matter how many observers ask: all observers of one run
/// share one context, so a token process's O(n) load scan happens once,
/// or never if nobody asks.  An observer is any type with a
/// `void observe(const RoundContext<P>&)` member (template or not);
/// it lives on the trial's stack and is read after the run.
template <typename P>
class RoundContext {
 public:
  RoundContext(const P& process, std::uint64_t round)
      : process_(process), round_(round) {}

  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] const P& process() const noexcept { return process_; }
  [[nodiscard]] std::uint32_t bins() const { return process_.bin_count(); }
  [[nodiscard]] std::uint32_t max_load() const {
    if (!have_max_) {
      max_ = process_.max_load();
      have_max_ = true;
    }
    return max_;
  }
  [[nodiscard]] std::uint32_t empty_bins() const {
    if (!have_empty_) {
      empty_ = process_.empty_bins();
      have_empty_ = true;
    }
    return empty_;
  }
  [[nodiscard]] double empty_fraction() const {
    return static_cast<double>(empty_bins()) / static_cast<double>(bins());
  }

 private:
  const P& process_;
  std::uint64_t round_;
  mutable std::uint32_t max_ = 0;
  mutable std::uint32_t empty_ = 0;
  mutable bool have_max_ = false;
  mutable bool have_empty_ = false;
};

/// Window maximum and final value of the maximum load.
struct WindowMaxLoad {
  std::uint32_t window_max = 0;
  std::uint32_t final_max = 0;

  template <typename P>
  void observe(const RoundContext<P>& ctx) {
    final_max = ctx.max_load();
    window_max = std::max(window_max, final_max);
  }
};

/// Minimum over the window of the empty-bin fraction (Lemma 1 floor).
struct MinEmptyFraction {
  double min_fraction = 1.0;

  template <typename P>
  void observe(const RoundContext<P>& ctx) {
    min_fraction = std::min(min_fraction, ctx.empty_fraction());
  }
};

/// Mean over the window of the empty-bin fraction.
struct MeanEmptyFraction {
  double sum = 0.0;
  std::uint64_t rounds = 0;

  template <typename P>
  void observe(const RoundContext<P>& ctx) {
    sum += ctx.empty_fraction();
    ++rounds;
  }

  [[nodiscard]] double mean() const {
    return rounds == 0 ? 0.0 : sum / static_cast<double>(rounds);
  }
};

/// Running maximum of the max load, sampled at a sorted list of 1-based
/// round checkpoints (experiment E11's observable).
class RunningMaxAtCheckpoints {
 public:
  explicit RunningMaxAtCheckpoints(std::vector<std::uint64_t> checkpoints)
      : checkpoints_(std::move(checkpoints)),
        values_(checkpoints_.size(), 0) {}

  template <typename P>
  void observe(const RoundContext<P>& ctx) {
    if (next_ >= checkpoints_.size()) return;  // past the last checkpoint
    running_ = std::max(running_, ctx.max_load());
    while (next_ < checkpoints_.size() &&
           checkpoints_[next_] == ctx.round()) {
      values_[next_] = running_;
      ++next_;
    }
  }

  [[nodiscard]] const std::vector<std::uint32_t>& values() const noexcept {
    return values_;
  }

 private:
  std::vector<std::uint64_t> checkpoints_;
  std::vector<std::uint32_t> values_;
  std::uint32_t running_ = 0;
  std::size_t next_ = 0;
};

/// Mean over the window of the total ball count per bin (leaky bins do
/// not conserve mass; E16 tracks the stationary level).
struct MeanTotalBallsPerBin {
  double sum = 0.0;
  std::uint64_t rounds = 0;

  template <typename P>
    requires requires(const P& p) {
      { p.total_balls() } -> std::convertible_to<std::uint64_t>;
    }
  void observe(const RoundContext<P>& ctx) {
    sum += static_cast<double>(ctx.process().total_balls()) /
           static_cast<double>(ctx.bins());
    ++rounds;
  }

  [[nodiscard]] double mean() const {
    return rounds == 0 ? 0.0 : sum / static_cast<double>(rounds);
  }
};

/// Records the full max-load trajectory, one entry per round.  Testing /
/// plotting aid -- memory grows linearly with the window.
struct MaxLoadTrajectory {
  std::vector<std::uint32_t> values;

  template <typename P>
  void observe(const RoundContext<P>& ctx) {
    values.push_back(ctx.max_load());
  }
};

/// Window maximum and final value of the maximum WEIGHTED load
/// (mixed-regime engine: hot-key pressure that the unweighted max load
/// cannot see).  Binds only to processes exposing max_weighted_load().
struct WindowMaxWeightedLoad {
  std::uint64_t window_max = 0;
  std::uint64_t final_max = 0;

  template <typename P>
    requires requires(const P& p) {
      { p.max_weighted_load() } -> std::convertible_to<std::uint64_t>;
    }
  void observe(const RoundContext<P>& ctx) {
    final_max = ctx.process().max_weighted_load();
    window_max = std::max(window_max, final_max);
  }
};

/// Window maximum of the capacity utilization (load / capacity over
/// capacity-bounded bins; 0 when every bin is unbounded) -- the
/// normalized-by-capacity statistic of heterogeneous-bin scenarios.
struct WindowMaxUtilization {
  double window_max = 0.0;

  template <typename P>
    requires requires(const P& p) {
      { p.max_utilization() } -> std::convertible_to<double>;
    }
  void observe(const RoundContext<P>& ctx) {
    window_max = std::max(window_max, ctx.process().max_utilization());
  }
};

/// Revalidates process invariants every round (fuzzing aid; throws
/// std::logic_error on bookkeeping drift).
struct InvariantCheck {
  template <typename P>
  void observe(const RoundContext<P>& ctx) {
    if constexpr (requires { ctx.process().check_invariants(); }) {
      ctx.process().check_invariants();
    }
  }
};

}  // namespace rbb
