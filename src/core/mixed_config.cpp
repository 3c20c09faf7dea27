#include "core/mixed_config.hpp"

#include <cmath>
#include <stdexcept>

namespace rbb {

WeightProfile weight_profile_from_string(const std::string& s) {
  if (s == "unit") {
    return WeightProfile{"unit", {1}, {1.0}};
  }
  if (s == "bimodal") {
    return WeightProfile{"bimodal", {1, 8}, {0.9, 0.1}};
  }
  if (s == "zipf") {
    return WeightProfile{"zipf",
                         {1, 2, 4, 8},
                         {8.0 / 15.0, 4.0 / 15.0, 2.0 / 15.0, 1.0 / 15.0}};
  }
  throw std::invalid_argument("unknown weight profile '" + s + "' (expected " +
                              weight_profile_names() + ")");
}

std::string weight_profile_names() { return "unit, bimodal, zipf"; }

BinProfileKind bin_profile_from_string(const std::string& s) {
  if (s == "uniform") return BinProfileKind::kUniform;
  if (s == "two-speed") return BinProfileKind::kTwoSpeed;
  if (s == "stalled-tenth") return BinProfileKind::kStalledTenth;
  if (s == "capped") return BinProfileKind::kCapped;
  throw std::invalid_argument("unknown bin profile '" + s + "' (expected " +
                              bin_profile_names() + ")");
}

const char* to_string(BinProfileKind kind) {
  switch (kind) {
    case BinProfileKind::kUniform:
      return "uniform";
    case BinProfileKind::kTwoSpeed:
      return "two-speed";
    case BinProfileKind::kStalledTenth:
      return "stalled-tenth";
    case BinProfileKind::kCapped:
      return "capped";
  }
  return "?";
}

std::string bin_profile_names() {
  return "uniform, two-speed, stalled-tenth, capped";
}

namespace {

void validate_weights(const WeightProfile& w) {
  if (w.class_weights.empty() ||
      w.class_weights.size() != w.fractions.size()) {
    throw std::invalid_argument("weight profile: empty or mismatched tables");
  }
  double total = 0.0;
  for (std::size_t c = 0; c < w.class_weights.size(); ++c) {
    if (w.class_weights[c] == 0) {
      throw std::invalid_argument("weight profile: zero ball weight");
    }
    if (!(w.fractions[c] > 0.0)) {
      throw std::invalid_argument("weight profile: non-positive fraction");
    }
    total += w.fractions[c];
  }
  if (std::abs(total - 1.0) > 1e-9) {
    throw std::invalid_argument("weight profile: fractions must sum to 1");
  }
}

/// Largest-remainder apportionment of m balls over the class
/// fractions: deterministic, exact total, every class with a positive
/// fraction keeps its floor share.
std::vector<ball_count_t> apportion(ball_count_t m,
                                    const std::vector<double>& fractions) {
  const std::size_t k = fractions.size();
  std::vector<ball_count_t> out(k, 0);
  std::vector<double> remainder(k, 0.0);
  ball_count_t assigned = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const double exact = fractions[c] * static_cast<double>(m);
    out[c] = static_cast<ball_count_t>(exact);
    remainder[c] = exact - static_cast<double>(out[c]);
    assigned += out[c];
  }
  while (assigned < m) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < k; ++c) {
      if (remainder[c] > remainder[best]) best = c;
    }
    ++out[best];
    remainder[best] = -1.0;
    ++assigned;
  }
  return out;
}

}  // namespace

MixedSpec make_mixed_spec(std::uint32_t bins, double ball_ratio,
                          const std::string& weight_profile,
                          const std::string& bin_profile) {
  return make_mixed_spec(bins, ball_ratio,
                         weight_profile_from_string(weight_profile),
                         bin_profile_from_string(bin_profile));
}

MixedSpec make_mixed_spec(std::uint32_t bins, double ball_ratio,
                          WeightProfile weights, BinProfileKind bins_kind) {
  if (bins == 0) throw std::invalid_argument("make_mixed_spec: bins == 0");
  if (!(ball_ratio > 0.0)) {
    throw std::invalid_argument("make_mixed_spec: ball ratio must be > 0");
  }
  const double balls = std::round(ball_ratio * static_cast<double>(bins));
  if (!(balls <= 0xffffffffp0)) {
    throw std::invalid_argument(
        "make_mixed_spec: the ball ratio puts m = round(ratio * n) above "
        "the 32-bit range at n = " + std::to_string(bins));
  }
  validate_weights(weights);

  MixedSpec spec;
  spec.bins = bins;
  spec.balls = static_cast<ball_count_t>(balls);
  if (spec.balls == 0) spec.balls = 1;
  spec.weights = std::move(weights);

  const std::size_t k = spec.weights.class_weights.size();
  spec.class_counts.assign(static_cast<std::size_t>(bins) * k, 0);

  // Deal the balls round-robin over the bins, classes in consecutive
  // blocks of their apportioned populations: ball i of class c lands in
  // bin i % n, so every bin starts with floor(m/n) or ceil(m/n) balls.
  const std::vector<ball_count_t> per_class =
      apportion(spec.balls, spec.weights.fractions);
  ball_count_t i = 0;
  for (std::size_t c = 0; c < k; ++c) {
    for (ball_count_t b = 0; b < per_class[c]; ++b, ++i) {
      const auto u = static_cast<std::uint32_t>(i % bins);
      ++spec.class_counts[static_cast<std::size_t>(u) * k + c];
    }
  }

  spec.rates.assign(bins, 1);
  spec.capacities.assign(bins, 0);
  switch (bins_kind) {
    case BinProfileKind::kUniform:
      break;
    case BinProfileKind::kTwoSpeed:
      for (std::uint32_t u = 1; u < bins; u += 2) spec.rates[u] = 4;
      break;
    case BinProfileKind::kStalledTenth:
      for (std::uint32_t u = 0; u < bins; u += 10) spec.rates[u] = 0;
      break;
    case BinProfileKind::kCapped: {
      const auto mean_ceil = static_cast<load_t>(
          (spec.balls + bins - 1) / bins);
      const load_t cap = 2 * mean_ceil + 2;
      spec.capacities.assign(bins, cap);
      break;
    }
  }
  return spec;
}

}  // namespace rbb
