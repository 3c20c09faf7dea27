#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rbb {

void OnlineMoments::merge(const OnlineMoments& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineMoments::stddev() const noexcept { return std::sqrt(variance()); }

double OnlineMoments::stderror() const noexcept {
  return count_ > 1 ? stddev() / std::sqrt(static_cast<double>(count_)) : 0.0;
}

double OnlineMoments::ci95_halfwidth() const noexcept {
  return 1.959963984540054 * stderror();
}

void Histogram::grow(std::uint64_t value) { counts_.resize(value + 1, 0); }

void Histogram::merge(const Histogram& other) {
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size(), 0);
  }
  for (std::size_t v = 0; v < other.counts_.size(); ++v) {
    counts_[v] += other.counts_[v];
  }
  total_ += other.total_;
}

std::uint64_t Histogram::count_at(std::uint64_t value) const noexcept {
  return value < counts_.size() ? counts_[value] : 0;
}

std::uint64_t Histogram::max_value() const noexcept {
  for (std::size_t v = counts_.size(); v > 0; --v) {
    if (counts_[v - 1] != 0) return v - 1;
  }
  return 0;
}

std::uint64_t Histogram::min_value() const noexcept {
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    if (counts_[v] != 0) return v;
  }
  return 0;
}

double Histogram::mean() const noexcept {
  if (total_ == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    sum += static_cast<double>(v) * static_cast<double>(counts_[v]);
  }
  return sum / static_cast<double>(total_);
}

std::uint64_t Histogram::quantile(double q) const {
  if (total_ == 0) throw std::logic_error("Histogram::quantile: empty");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("Histogram::quantile: q outside [0, 1]");
  }
  const double target = q * static_cast<double>(total_);
  std::uint64_t cum = 0;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    cum += counts_[v];
    if (static_cast<double>(cum) >= target && cum > 0) return v;
  }
  return max_value();
}

double Histogram::tail_fraction(std::uint64_t value) const noexcept {
  if (total_ == 0) return 0.0;
  std::uint64_t above = 0;
  for (std::size_t v = counts_.size(); v > value; --v) above += counts_[v - 1];
  return static_cast<double>(above) / static_cast<double>(total_);
}

double total_variation_from_uniform(
    const std::vector<std::uint64_t>& counts) {
  if (counts.empty()) {
    throw std::invalid_argument("total_variation_from_uniform: empty");
  }
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0) {
    throw std::invalid_argument("total_variation_from_uniform: zero total");
  }
  const double uniform = 1.0 / static_cast<double>(counts.size());
  double sum = 0.0;
  for (const auto c : counts) {
    sum += std::abs(static_cast<double>(c) / static_cast<double>(total) -
                    uniform);
  }
  return 0.5 * sum;
}

double total_variation(const std::vector<std::uint64_t>& a,
                       const std::vector<std::uint64_t>& b) {
  if (a.empty() || a.size() != b.size()) {
    throw std::invalid_argument("total_variation: size mismatch");
  }
  std::uint64_t ta = 0;
  std::uint64_t tb = 0;
  for (const auto c : a) ta += c;
  for (const auto c : b) tb += c;
  if (ta == 0 || tb == 0) {
    throw std::invalid_argument("total_variation: zero total");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += std::abs(static_cast<double>(a[i]) / static_cast<double>(ta) -
                    static_cast<double>(b[i]) / static_cast<double>(tb));
  }
  return 0.5 * sum;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::logic_error("quantile: empty vector");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile: q outside [0, 1]");
  }
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

}  // namespace rbb
