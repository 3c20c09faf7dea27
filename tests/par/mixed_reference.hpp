// Naive weighted oracle for the mixed-regime kernel (tests/par/).
//
// An independent, deliberately simple re-implementation of the
// mixed-regime round semantics straight from the spec in
// core/kernel/mixed_kernel.hpp, consuming CounterRng scalar draws
// directly (no streams, no planes, no incremental bookkeeping):
//
//   round t, bins ascending: bin u releases min(load_u, rate_u) balls;
//   departure j removes ball x = CounterRng.index(t, 2^50|(j<<32)|u,
//   load_u) counted over the bin's class census in class order, and
//   throws to dest = CounterRng.index(t, 2^51|(j<<32)|u, n); arrivals
//   apply in ascending (u, j) order; an arrival into a bin at capacity
//   is dropped.
//
// Constructed from an Rng instead of a seed, it replays the sequential
// xoshiro stream of MixedProcess: per departure, in the same (u, j)
// order, the class pick x = Rng.index(load_u) and then the destination
// Rng.index(n), both from the one Rng.
//
// The parity tests replay every kernel instantiation against this
// oracle, so a bug in the kernel's shared bookkeeping cannot hide by
// being bit-identical across its own execution policies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/kernel/stream.hpp"
#include "core/mixed_config.hpp"
#include "support/counter_rng.hpp"
#include "support/rng.hpp"

namespace rbb::par::testing {

struct MixedOracle {
  MixedSpec spec;
  CounterRng rng;
  std::optional<Rng> seq_rng;  // set: replay the sequential stream
  std::vector<load_t> counts;  // bin-major [bin * k + class]
  std::uint64_t dropped = 0;
  std::uint64_t round = 0;

  MixedOracle(MixedSpec s, std::uint64_t seed)
      : spec(std::move(s)), rng(seed), counts(spec.class_counts) {}
  MixedOracle(MixedSpec s, Rng seq)
      : spec(std::move(s)), rng(0), seq_rng(seq), counts(spec.class_counts) {}

  [[nodiscard]] std::uint32_t classes() const {
    return static_cast<std::uint32_t>(spec.weights.class_weights.size());
  }

  [[nodiscard]] load_t load(std::uint32_t u) const {
    load_t q = 0;
    for (std::uint32_t c = 0; c < classes(); ++c) {
      q += counts[static_cast<std::size_t>(u) * classes() + c];
    }
    return q;
  }

  [[nodiscard]] std::vector<load_t> loads() const {
    std::vector<load_t> q(spec.bins);
    for (std::uint32_t u = 0; u < spec.bins; ++u) q[u] = load(u);
    return q;
  }

  [[nodiscard]] weighted_load_t weighted_load(std::uint32_t u) const {
    weighted_load_t w = 0;
    for (std::uint32_t c = 0; c < classes(); ++c) {
      w += static_cast<weighted_load_t>(
               counts[static_cast<std::size_t>(u) * classes() + c]) *
           spec.weights.class_weights[c];
    }
    return w;
  }

  void step() {
    const std::uint32_t k = classes();
    std::vector<std::pair<std::uint32_t, std::uint32_t>> arrivals;
    for (std::uint32_t u = 0; u < spec.bins; ++u) {
      const std::uint32_t releases = static_cast<std::uint32_t>(
          std::min<load_t>(load(u), spec.rates[u]));
      for (std::uint32_t j = 0; j < releases; ++j) {
        std::uint32_t x =
            seq_rng ? seq_rng->index(load(u))
                    : rng.index(round, kernel::mixed_class_slot(j, u), load(u));
        std::uint32_t cls = 0;
        while (cls + 1 < k &&
               x >= counts[static_cast<std::size_t>(u) * k + cls]) {
          x -= counts[static_cast<std::size_t>(u) * k + cls];
          ++cls;
        }
        --counts[static_cast<std::size_t>(u) * k + cls];
        arrivals.emplace_back(
            cls, seq_rng ? seq_rng->index(spec.bins)
                         : rng.index(round, kernel::mixed_dest_slot(j, u),
                                     spec.bins));
      }
    }
    for (const auto& [cls, dest] : arrivals) {
      if (spec.capacities[dest] != 0 && load(dest) >= spec.capacities[dest]) {
        ++dropped;
        continue;
      }
      ++counts[static_cast<std::size_t>(dest) * k + cls];
    }
    ++round;
  }
};

}  // namespace rbb::par::testing
