// The queue-policy vocabulary of the token process (paper, Sect. 4).
//
// The load-only kernel (process.hpp) suffices for Theorem 1, which is
// oblivious to the queueing strategy.  Everything in Sect. 4 of the paper
// -- token progress, parallel cover time, the multi-token traversal
// protocol and its adversarial variant -- needs per-ball identities and an
// explicit queue discipline: each non-empty bin releases one token per
// round according to a QueuePolicy.  The token process itself is the
// flat-store core of core/kernel/token_kernel.hpp (SequentialTokenProcess,
// and the counter-stream/sharded siblings in par/sharded_token_process.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rbb {

/// Which token a non-empty bin releases each round (paper: "according to
/// some fixed strategy (random, FIFO, etc)").
enum class QueuePolicy {
  kFifo,    // oldest token in the bin (the Sect. 4 traversal strategy)
  kLifo,    // newest token
  kRandom,  // uniform random token from the bin
};

[[nodiscard]] const char* to_string(QueuePolicy policy);
[[nodiscard]] QueuePolicy queue_policy_from_string(const std::string& s);

/// One token per bin, token i starting in bin i: the canonical
/// starting placement of the progress / delay / cover experiments and
/// the token benchmarks (sharded_scaling, perfbench token_ckpt).
[[nodiscard]] inline std::vector<std::uint32_t> identity_placement(
    std::uint32_t n) {
  std::vector<std::uint32_t> placement(n);
  for (std::uint32_t i = 0; i < n; ++i) placement[i] = i;
  return placement;
}

}  // namespace rbb
