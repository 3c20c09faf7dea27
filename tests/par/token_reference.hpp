// Retained reference implementation of the token round for the flat
// storage parity suite (token_flat_test.cpp).
//
// Deliberately naive: per-bin std::vector queues mutated with erase()
// -- the transparent semantics the flat implicit-FIFO store of
// core/kernel/token_store.hpp must reproduce bit for bit.  One class
// covers both RNG stream policies:
//
//   * CounterStream: destination = index(round, relaunch_slot(u), n)
//     and, under the random policy, the departing position =
//     index(round, pop_select_slot(u), count) -- per-call scalar
//     draws, bit-identical to the production kernel's gathered draw
//     planes by the plane contract.
//   * SequentialStream: the pop draw (random policy) and the
//     destination draw -- rng.index(n) on the complete graph,
//     graph->sample_neighbor(u, rng) under TokenOptions::graph --
//     interleave per releasing bin.
//
// Pop semantics (the canonical, order-preserving convention of the
// flat core): FIFO removes the front, LIFO the back, random the k-th
// in arrival order via erase(begin() + k).
//
// Delays (TokenOptions::track_delays): every token carries the round
// it joined its queue -- set on each push (after the round counter
// advanced) and on every rebuild -- and each release records
// round - arrival.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/kernel/stream.hpp"
#include "core/kernel/token_kernel.hpp"  // TokenOptions
#include "core/token_process.hpp"        // QueuePolicy
#include "support/stats.hpp"

namespace rbb::par::testing {

template <typename StreamP>
class ReferenceTokenProcess {
 public:
  static constexpr std::uint64_t kNotCovered =
      std::numeric_limits<std::uint64_t>::max();

  ReferenceTokenProcess(std::uint32_t bins,
                        std::vector<std::uint32_t> start_bin, StreamP stream,
                        kernel::TokenOptions options = {})
      : bins_(bins),
        stream_(std::move(stream)),
        options_(options),
        queues_(bins),
        token_bin_(std::move(start_bin)),
        progress_(token_bin_.size(), 0) {
    if (options_.track_visits) {
      words_per_token_ = (bins_ + 63) / 64;
      visited_.assign(static_cast<std::size_t>(words_per_token_) *
                          token_bin_.size(),
                      0);
      visited_count_.assign(token_bin_.size(), 0);
      cover_round_.assign(token_bin_.size(), kNotCovered);
    }
    if (options_.track_delays) arrival_.assign(token_bin_.size(), 0);
    rebuild();
  }

  void step() {
    const std::uint64_t r = round_;
    moves_.clear();
    for (std::uint32_t u = 0; u < bins_; ++u) {
      if (queues_[u].empty()) continue;
      const std::uint32_t token = release(u, r);
      ++progress_[token];
      if (options_.track_delays) delays_.add(r - arrival_[token]);
      if constexpr (StreamP::kScheduleFree) {
        moves_.emplace_back(token,
                            stream_.index(r, kernel::relaunch_slot(u),
                                          bins_));
      } else if (options_.graph != nullptr) {
        moves_.emplace_back(token,
                            options_.graph->sample_neighbor(u, stream_.rng()));
      } else {
        moves_.emplace_back(token, stream_.rng().index(bins_));
      }
    }
    ++round_;
    for (const auto& [token, dest] : moves_) {
      queues_[dest].push_back(token);
      token_bin_[token] = dest;
      if (options_.track_delays) arrival_[token] = round_;
      mark_visited(token, dest);
    }
  }

  void run(std::uint64_t rounds) {
    for (std::uint64_t t = 0; t < rounds; ++t) step();
  }

  std::optional<std::uint64_t> run_until_covered(std::uint64_t max_rounds) {
    while (covered_tokens_ != token_count()) {
      if (round_ >= max_rounds) return std::nullopt;
      step();
    }
    std::uint64_t worst = 0;
    for (const std::uint64_t c : cover_round_) {
      worst = std::max(worst, c);
    }
    return worst;
  }

  void reassign(const std::vector<std::uint32_t>& new_bin) {
    token_bin_ = new_bin;
    rebuild();
  }

  [[nodiscard]] std::uint32_t token_count() const noexcept {
    return static_cast<std::uint32_t>(token_bin_.size());
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::uint32_t token_bin(std::uint32_t token) const {
    return token_bin_[token];
  }
  [[nodiscard]] std::uint64_t progress(std::uint32_t token) const {
    return progress_[token];
  }
  [[nodiscard]] const std::vector<std::uint32_t>& queue(
      std::uint32_t u) const {
    return queues_[u];
  }
  [[nodiscard]] std::uint32_t visited_count(std::uint32_t token) const {
    return visited_count_[token];
  }
  [[nodiscard]] std::uint64_t cover_round(std::uint32_t token) const {
    return cover_round_[token];
  }
  [[nodiscard]] const Histogram& delay_histogram() const { return delays_; }

 private:
  std::uint32_t release(std::uint32_t u, std::uint64_t r) {
    auto& q = queues_[u];
    std::size_t at = 0;
    switch (options_.policy) {
      case QueuePolicy::kFifo:
        at = 0;
        break;
      case QueuePolicy::kLifo:
        at = q.size() - 1;
        break;
      case QueuePolicy::kRandom:
        if constexpr (StreamP::kScheduleFree) {
          at = stream_.index(r, kernel::pop_select_slot(u),
                             static_cast<std::uint32_t>(q.size()));
        } else {
          at = static_cast<std::size_t>(stream_.rng().below(q.size()));
        }
        break;
    }
    const std::uint32_t token = q[at];
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(at));
    return token;
  }

  void rebuild() {
    for (auto& q : queues_) q.clear();
    for (std::uint32_t token = 0; token < token_count(); ++token) {
      if (token_bin_[token] >= bins_) {
        throw std::invalid_argument("reference: bin out of range");
      }
      queues_[token_bin_[token]].push_back(token);
      if (options_.track_delays) arrival_[token] = round_;
      mark_visited(token, token_bin_[token]);
    }
  }

  void mark_visited(std::uint32_t token, std::uint32_t bin) {
    if (!options_.track_visits) return;
    std::uint64_t& word =
        visited_[static_cast<std::size_t>(token) * words_per_token_ +
                 bin / 64];
    const std::uint64_t bit = 1ULL << (bin % 64);
    if ((word & bit) != 0) return;
    word |= bit;
    if (++visited_count_[token] == bins_ &&
        cover_round_[token] == kNotCovered) {
      cover_round_[token] = round_;
      ++covered_tokens_;
    }
  }

  std::uint32_t bins_;
  StreamP stream_;
  kernel::TokenOptions options_;
  std::vector<std::vector<std::uint32_t>> queues_;
  std::vector<std::uint32_t> token_bin_;
  std::vector<std::uint64_t> progress_;
  std::uint64_t round_ = 0;

  std::uint32_t words_per_token_ = 0;
  std::vector<std::uint64_t> visited_;
  std::vector<std::uint32_t> visited_count_;
  std::vector<std::uint64_t> cover_round_;
  std::uint32_t covered_tokens_ = 0;

  std::vector<std::uint64_t> arrival_;
  Histogram delays_;

  std::vector<std::pair<std::uint32_t, std::uint32_t>> moves_;
};

}  // namespace rbb::par::testing
