#include "support/scale.hpp"

namespace rbb {

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
