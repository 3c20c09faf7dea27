// Retained reference implementation of the per-ball rounds of the
// sequential ball cores (load-only, Tetris, leaky, d-choices,
// threshold) for seq_reference_test.cpp.
//
// Deliberately naive textbook rounds: one pass over the bins in order,
// each non-empty bin releases one ball and -- for the relaunching
// variants -- takes its draw right there (rng.index(n) on the complete
// graph, a uniform neighbour on a graph); the arrivals then land one
// by one; max load, empty bins and the Tetris first-empty rounds are
// recounted from scratch at the end of every round.  The production
// kernel (core/kernel/ball_kernel.hpp) reaches the same trajectory by
// other means -- a branch-free departure scan, block draws and a
// vectorized round-end scan -- and must match this bit for bit.
//
// Two placement conventions of the choose variants:
//   * xoshiro stream: online -- each ball's candidates are drawn and
//     compared against the live loads, so arrivals of the same round
//     are visible to later balls;
//   * counter stream: batch-snapshot -- candidate j of the ball
//     released by bin u is index(round, candidate_slot(j, u), n), every
//     choice reads the post-departure loads, then all balls land.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/kernel/stream.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"
#include "support/samplers.hpp"
#include "support/types.hpp"

namespace rbb::testing {

enum class RefCore {
  kLoad,          // complete graph, or a uniform neighbour when graph set
  kTetris,        // `arrivals` fresh balls, ball by ball
  kLeaky,         // Binomial(n, lambda) fresh balls
  kDChoices,      // least loaded of d candidates
  kThreshold,     // first of `probes` candidates at or below `threshold`
};

/// Which round the reference plays, and its parameters.
struct RefRule {
  RefCore core = RefCore::kLoad;
  const Graph* graph = nullptr;        // kLoad only
  std::uint64_t arrivals = 0;          // Tetris; 0 = floor(3n/4)
  double lambda = 0.0;                 // kLeaky
  std::uint32_t d = 2;                 // kDChoices
  load_t threshold = 1;                // kThreshold
  std::uint32_t probes = 2;            // kThreshold
  bool counter = false;                // choose variants: counter stream
  std::uint64_t counter_seed = 0;
};

/// End-of-round state of one reference round.
struct RefRound {
  std::uint32_t max_load = 0;
  std::uint32_t empty_bins = 0;
  std::uint32_t departures = 0;
  std::uint64_t total_balls = 0;
  std::uint64_t arrivals = 0;  // fresh arrivals (Tetris / leaky)
};

class ReferenceBallProcess {
 public:
  static constexpr std::uint64_t kNeverEmptied =
      std::numeric_limits<std::uint64_t>::max();

  ReferenceBallProcess(LoadConfig loads, Rng rng, RefRule rule)
      : loads_(std::move(loads)),
        rng_(rng),
        rule_(rule),
        counter_(rule.counter_seed),
        first_empty_(loads_.size(), kNeverEmptied) {
    const auto n = static_cast<std::uint32_t>(loads_.size());
    if (rule_.arrivals == 0) rule_.arrivals = std::uint64_t{n} * 3 / 4;
    for (std::uint32_t u = 0; u < n; ++u) {
      balls_ += loads_[u];
      if (loads_[u] == 0) first_empty_[u] = 0;
    }
  }

  RefRound step() {
    const auto n = static_cast<std::uint32_t>(loads_.size());
    const std::uint64_t r = round_;
    RefRound out;

    // Departures, in bin order; relaunching variants draw as they go.
    std::vector<std::uint32_t> released;
    std::vector<std::uint32_t> dests;
    for (std::uint32_t u = 0; u < n; ++u) {
      if (loads_[u] == 0) continue;
      --loads_[u];
      ++out.departures;
      released.push_back(u);
      if (rule_.core == RefCore::kLoad) {
        if (rule_.graph != nullptr) {
          const auto nbrs = rule_.graph->neighbors(u);
          dests.push_back(
              nbrs[rng_.index(static_cast<std::uint32_t>(nbrs.size()))]);
        } else {
          dests.push_back(rng_.index(n));
        }
      }
    }

    switch (rule_.core) {
      case RefCore::kLoad:
        for (const std::uint32_t v : dests) ++loads_[v];
        break;
      case RefCore::kTetris:
        balls_ -= out.departures;
        out.arrivals = rule_.arrivals;
        for (std::uint64_t i = 0; i < out.arrivals; ++i) {
          ++loads_[rng_.index(n)];
        }
        balls_ += out.arrivals;
        break;
      case RefCore::kLeaky: {
        balls_ -= out.departures;
        const BinomialSampler law(n, rule_.lambda);
        out.arrivals = law(rng_);
        for (std::uint64_t i = 0; i < out.arrivals; ++i) {
          ++loads_[rng_.index(n)];
        }
        balls_ += out.arrivals;
        break;
      }
      case RefCore::kDChoices:
      case RefCore::kThreshold:
        if (rule_.counter) {
          const std::vector<load_t> snapshot = loads_;
          for (const std::uint32_t u : released) {
            dests.push_back(choose(u, r, snapshot));
          }
          for (const std::uint32_t v : dests) ++loads_[v];
        } else {
          for (std::uint32_t i = 0; i < out.departures; ++i) {
            ++loads_[choose(0, r, loads_)];
          }
        }
        break;
    }

    ++round_;
    for (std::uint32_t u = 0; u < n; ++u) {
      out.max_load = std::max(out.max_load, loads_[u]);
      if (loads_[u] == 0) {
        ++out.empty_bins;
        if (first_empty_[u] == kNeverEmptied) first_empty_[u] = round_;
      }
    }
    out.total_balls = balls_;
    return out;
  }

  [[nodiscard]] const LoadConfig& loads() const noexcept { return loads_; }
  [[nodiscard]] std::uint64_t first_empty_round(std::uint32_t u) const {
    return first_empty_[u];
  }

 private:
  /// Candidate j of the ball released by bin u: the live xoshiro stream,
  /// or the counter draw keyed by (round, candidate_slot(j, u)).
  std::uint32_t candidate(std::uint32_t j, std::uint32_t u, std::uint64_t r) {
    const auto n = static_cast<std::uint32_t>(loads_.size());
    return rule_.counter ? counter_.index(r, kernel::candidate_slot(j, u), n)
                         : rng_.index(n);
  }

  std::uint32_t choose(std::uint32_t u, std::uint64_t r,
                       const std::vector<load_t>& view) {
    if (rule_.core == RefCore::kDChoices) {
      std::uint32_t best = candidate(0, u, r);
      for (std::uint32_t j = 1; j < rule_.d; ++j) {
        const std::uint32_t c = candidate(j, u, r);
        if (view[c] < view[best]) best = c;  // ties keep the earlier draw
      }
      return best;
    }
    std::uint32_t probe = candidate(0, u, r);
    for (std::uint32_t j = 1; j < rule_.probes && view[probe] > rule_.threshold;
         ++j) {
      probe = candidate(j, u, r);
    }
    return probe;
  }

  LoadConfig loads_;
  Rng rng_;
  RefRule rule_;
  kernel::CounterStream counter_;
  std::vector<std::uint64_t> first_empty_;
  std::uint64_t balls_ = 0;
  std::uint64_t round_ = 0;
};

}  // namespace rbb::testing
