// Online statistics used by every experiment driver.
//
// Monte-Carlo sweeps accumulate per-trial observations into OnlineMoments
// (Welford's numerically stable single-pass algorithm) and integer-valued
// observables (loads, cover times in rounds) into Histogram.  Both types
// are mergeable so per-thread accumulators can be combined after a
// parallel sweep without any shared mutable state (design choice D5).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace rbb {

/// Single-pass mean/variance/min/max accumulator (Welford).
class OnlineMoments {
 public:
  OnlineMoments() = default;

  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  /// Merges another accumulator (Chan's parallel update).
  void merge(const OnlineMoments& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 when fewer than two observations.
  [[nodiscard]] double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean; 0 when fewer than two observations.
  [[nodiscard]] double stderror() const noexcept;
  /// Half-width of the ~95% normal confidence interval for the mean.
  [[nodiscard]] double ci95_halfwidth() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Dense histogram over non-negative integer values (bin loads, round
/// counts).  Grows on demand; O(1) add; mergeable.
class Histogram {
 public:
  Histogram() = default;

  /// Inline: the bounds check and the increment run on every token
  /// release of a delay-tracking round; only the growth is out of line.
  void add(std::uint64_t value, std::uint64_t weight = 1) {
    if (value >= counts_.size()) grow(value);
    counts_[value] += weight;
    total_ += weight;
  }
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Count at exactly `value`.
  [[nodiscard]] std::uint64_t count_at(std::uint64_t value) const noexcept;
  /// Largest value with non-zero count; 0 for an empty histogram.
  [[nodiscard]] std::uint64_t max_value() const noexcept;
  /// Smallest value with non-zero count; 0 for an empty histogram.
  [[nodiscard]] std::uint64_t min_value() const noexcept;
  [[nodiscard]] double mean() const noexcept;
  /// Smallest v such that P(X <= v) >= q, for q in [0, 1].  Requires a
  /// non-empty histogram.
  [[nodiscard]] std::uint64_t quantile(double q) const;
  /// P(X >= v): fraction of mass at or above `value`.
  [[nodiscard]] double tail_fraction(std::uint64_t value) const noexcept;
  /// Raw counts, indexed by value.
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept {
    return counts_;
  }

 private:
  /// Extends counts_ with zeros to cover `value`.
  void grow(std::uint64_t value);

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Total-variation distance between an empirical distribution over
/// {0..n-1} given by `counts` (any non-negative weights) and the uniform
/// distribution on the same support: 0.5 * sum_i |p_i - 1/n|.
/// Requires a non-empty counts vector with positive total.
[[nodiscard]] double total_variation_from_uniform(
    const std::vector<std::uint64_t>& counts);

/// Total-variation distance between two empirical distributions with the
/// same support size (each normalized by its own total).
[[nodiscard]] double total_variation(const std::vector<std::uint64_t>& a,
                                     const std::vector<std::uint64_t>& b);

/// Median of a copy of `values` (even count: lower median).  Requires a
/// non-empty vector.
[[nodiscard]] double median(std::vector<double> values);

/// q-quantile (nearest-rank, lower) of a copy of `values`.
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace rbb
