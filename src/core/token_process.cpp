#include "core/token_process.hpp"

#include <stdexcept>
#include <string>

namespace rbb {

const char* to_string(QueuePolicy policy) {
  switch (policy) {
    case QueuePolicy::kFifo: return "fifo";
    case QueuePolicy::kLifo: return "lifo";
    case QueuePolicy::kRandom: return "random";
  }
  return "unknown";
}

QueuePolicy queue_policy_from_string(const std::string& s) {
  if (s == "fifo") return QueuePolicy::kFifo;
  if (s == "lifo") return QueuePolicy::kLifo;
  if (s == "random") return QueuePolicy::kRandom;
  throw std::invalid_argument("queue_policy_from_string: unknown: " + s);
}

}  // namespace rbb
