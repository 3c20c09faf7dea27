#include "support/scale.hpp"

#include <algorithm>
#include <cstdlib>

namespace rbb {

BenchScale bench_scale() {
  const char* env = std::getenv("RBB_BENCH_SCALE");
  if (env == nullptr) return BenchScale::kDefault;
  std::string v(env);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (v == "smoke") return BenchScale::kSmoke;
  if (v == "paper") return BenchScale::kPaper;
  if (v == "mega") return BenchScale::kMega;
  return BenchScale::kDefault;
}

std::string to_string(BenchScale scale) {
  switch (scale) {
    case BenchScale::kSmoke: return "smoke";
    case BenchScale::kPaper: return "paper";
    case BenchScale::kMega: return "mega";
    case BenchScale::kDefault: break;
  }
  return "default";
}

}  // namespace rbb
