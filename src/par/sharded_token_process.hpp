// Sharded and counter-stream instantiations of the token kernel
// (DESIGN.md Sect. 5): the multi-token traversal at mega-n scale.
//
// Thin constructor adapters over core/kernel/token_kernel.hpp:
//
//   ShardedTokenProcess            Token x CounterStream x Sharded
//   SequentialCounterTokenProcess  Token x CounterStream x Sequential
//                                  (the parity oracle of tests/par/)
//
// Scope (the mega-n subset): all three queue policies
// (TokenOptions::policy -- FIFO, LIFO, random with schedule-free
// pop-select draws) on the complete graph, per-token progress
// counters, and OPTIONAL per-token visited bitsets (cover-time
// experiments; m*n bits -- leave off at mega n).  TokenOptions::graph
// and ::track_delays need the sequential xoshiro core
// (kernel::SequentialTokenProcess); both classes here reject them at
// construction.  Queue state is the flat implicit-FIFO store
// (core/kernel/token_store.hpp): 16m + 12n bytes with progress, no
// per-bin allocation, which is what makes token rows benchable at
// n = 10^8.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/kernel/token_kernel.hpp"
#include "par/sharded_process.hpp"  // ShardedOptions

namespace rbb::par {

using kernel::TokenOptions;

/// Multi-token traversal on K_n, sharded across cores.
class ShardedTokenProcess
    : public kernel::TokenProcessCore<kernel::ShardedExecution> {
 public:
  /// `start_bin[i]` is the initial bin of token i; co-located tokens
  /// enqueue in token-id order.
  ShardedTokenProcess(std::uint32_t bins,
                      std::vector<std::uint32_t> start_bin,
                      std::uint64_t seed, ShardedOptions options = {},
                      TokenOptions token_options = {})
      : TokenProcessCore(bins, std::move(start_bin),
                         kernel::CounterStream(seed), options,
                         token_options) {}
};

/// Single-threaded token kernel under the counter-based RNG; the
/// parity oracle for ShardedTokenProcess.  Arrivals are applied in
/// ascending releasing-bin order (the canonical order), so queue states
/// match the sharded sibling exactly.
class SequentialCounterTokenProcess
    : public kernel::TokenProcessCore<kernel::SequentialExecution> {
 public:
  SequentialCounterTokenProcess(std::uint32_t bins,
                                std::vector<std::uint32_t> start_bin,
                                std::uint64_t seed,
                                TokenOptions token_options = {})
      : TokenProcessCore(bins, std::move(start_bin),
                         kernel::CounterStream(seed), {}, token_options) {}
};

}  // namespace rbb::par
