// Benchmark scale selection: the values of `rbb run --scale` (default
// `default`; runner.cpp parses the names):
//   smoke   -- minimal sizes, seconds per bench (CI sanity),
//   default -- the sizes of the experiment map (DESIGN.md Sect. 4),
//   paper   -- full sweeps matching the asymptotic regime of the theorems,
//   mega    -- n >= 10^8 single instances for the sharded backend
//              (src/par/); experiments without mega-specific sizes fall
//              back to their paper sweeps.
#pragma once

#include <cstdint>
#include <string>

namespace rbb {

enum class BenchScale { kSmoke, kDefault, kPaper, kMega };

[[nodiscard]] std::string to_string(BenchScale scale);

/// Picks one of three values by scale; kMega falls back to the paper
/// value (use the four-argument overload to give mega its own sizes).
template <typename T>
[[nodiscard]] T by_scale(BenchScale scale, T smoke, T dflt, T paper) {
  switch (scale) {
    case BenchScale::kSmoke: return smoke;
    case BenchScale::kPaper: return paper;
    case BenchScale::kMega: return paper;
    case BenchScale::kDefault: break;
  }
  return dflt;
}

/// Picks one of four values by scale.
template <typename T>
[[nodiscard]] T by_scale(BenchScale scale, T smoke, T dflt, T paper, T mega) {
  return scale == BenchScale::kMega ? mega
                                    : by_scale(scale, smoke, dflt, paper);
}

}  // namespace rbb
