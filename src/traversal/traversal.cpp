#include "traversal/traversal.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/kernel/token_kernel.hpp"
#include "obs/metrics.hpp"
#include "support/bounds.hpp"

namespace rbb {

std::vector<std::uint32_t> make_token_placement(InitialConfig placement,
                                                std::uint32_t bins,
                                                std::uint32_t tokens,
                                                Rng& rng) {
  std::vector<std::uint32_t> pos(tokens, 0);
  switch (placement) {
    case InitialConfig::kOnePerBin:
      for (std::uint32_t i = 0; i < tokens; ++i) pos[i] = i % bins;
      break;
    case InitialConfig::kAllInOne:
      break;  // all zeros
    case InitialConfig::kRandom:
      for (auto& p : pos) p = rng.index(bins);
      break;
    case InitialConfig::kHalfLoaded: {
      const std::uint32_t half = std::max<std::uint32_t>(1, bins / 2);
      for (std::uint32_t i = 0; i < tokens; ++i) pos[i] = i % half;
      break;
    }
    case InitialConfig::kGeometric: {
      // Token blocks of geometrically decreasing size per bin.
      std::uint32_t token = 0;
      std::uint32_t remaining = tokens;
      for (std::uint32_t u = 0; u < bins && remaining > 0; ++u) {
        const std::uint32_t take =
            (u + 1 == bins) ? remaining : (remaining + 1) / 2;
        for (std::uint32_t j = 0; j < take; ++j) pos[token++] = u;
        remaining -= take;
      }
      break;
    }
  }
  return pos;
}

TraversalResult run_traversal(const TraversalParams& params,
                              std::uint64_t seed) {
  if (params.n < 2) throw std::invalid_argument("run_traversal: n < 2");
  Rng placement_rng(seed, 0xf417);
  Rng process_rng(seed, 0x9a11);
  Rng fault_rng(seed, 0x0bad);

  const std::uint64_t cap =
      params.max_rounds != 0
          ? params.max_rounds
          : static_cast<std::uint64_t>(64.0 * parallel_cover_scale(params.n));

  kernel::SequentialTokenProcess process(
      params.n,
      make_token_placement(params.placement, params.n, params.n,
                           placement_rng),
      process_rng,
      kernel::TokenOptions{.track_visits = true,
                           .policy = params.policy,
                           .graph = params.graph});

  const FaultSchedule faults(params.fault_period);
  TraversalResult result;
  while (!process.all_covered() && process.round() < cap) {
    process.step();
    result.max_load_seen = std::max(result.max_load_seen, process.max_load());
    if (faults.fires_at(process.round())) {
      process.reassign(apply_fault_tokens(params.fault_strategy, params.n,
                                          params.n, fault_rng));
      obs::add(obs::Counter::kFaultsInjected);
      result.max_load_seen =
          std::max(result.max_load_seen, process.max_load());
    }
  }
  result.rounds_run = process.round();
  result.min_progress = process.min_progress();
  if (process.all_covered()) {
    result.cover_time = process.global_cover_time();
    std::uint64_t first = kernel::SequentialTokenProcess::kNotCovered;
    std::uint64_t last = 0;
    for (std::uint32_t i = 0; i < process.token_count(); ++i) {
      first = std::min(first, process.cover_round(i));
      last = std::max(last, process.cover_round(i));
    }
    result.first_token_covered = first;
    result.last_token_covered = last;
  }
  return result;
}

}  // namespace rbb
