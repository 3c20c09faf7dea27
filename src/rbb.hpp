// Umbrella header: the complete public API of the rbb library.
//
// Downstream users can include this single header; fine-grained headers
// remain available for faster builds:
//
//   support/  rng, counter_rng, types, samplers, stats, bounds,
//             dense_set, thread_pool, table, scale
//   graph/    graph
//   core/     config, process, token_process, faults, and the policy
//             core under core/kernel/ (shard, exec, stream, variants,
//             ball_kernel, token_kernel)
//   par/      sharded_process, sharded_token_process, sharded_variants
//   engine/   engine, observers, stop, trials
//   tetris/   tetris, zchain, leaky
//   coupling/ coupling
//   baselines/ oneshot, independent_walks, repeated_dchoices, jackson
//   traversal/ traversal
//   markov/   dense_matrix, state_space, rbb_chain, zchain_exact
//   selfstab/ israeli_jalfon, certifier
//   analysis/ experiments
//   runner/   params, result, registry, docgen, runner
#pragma once

#include "analysis/experiments.hpp"
#include "engine/engine.hpp"
#include "engine/observers.hpp"
#include "engine/stop.hpp"
#include "engine/trials.hpp"
#include "baselines/independent_walks.hpp"
#include "baselines/jackson.hpp"
#include "baselines/oneshot.hpp"
#include "baselines/repeated_dchoices.hpp"
#include "core/config.hpp"
#include "core/faults.hpp"
#include "core/process.hpp"
#include "core/token_process.hpp"
#include "coupling/coupling.hpp"
#include "graph/graph.hpp"
#include "markov/dense_matrix.hpp"
#include "markov/rbb_chain.hpp"
#include "markov/state_space.hpp"
#include "markov/zchain_exact.hpp"
#include "par/sharded_process.hpp"
#include "par/sharded_token_process.hpp"
#include "par/sharded_variants.hpp"
#include "runner/docgen.hpp"
#include "runner/params.hpp"
#include "runner/registry.hpp"
#include "runner/result.hpp"
#include "runner/runner.hpp"
#include "selfstab/certifier.hpp"
#include "selfstab/israeli_jalfon.hpp"
#include "support/bounds.hpp"
#include "support/dense_set.hpp"
#include "support/rng.hpp"
#include "support/samplers.hpp"
#include "support/scale.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "tetris/leaky.hpp"
#include "tetris/tetris.hpp"
#include "tetris/zchain.hpp"
#include "traversal/traversal.hpp"
