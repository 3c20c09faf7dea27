// Shared "--name=value" / "--name value" option splitting for the `rbb`
// CLI (runner.cpp).
#pragma once

#include <string>
#include <vector>

namespace rbb::runner {

/// Splits the option token at args[*i], consuming args[*i + 1] (and
/// advancing *i) when the value is space-separated.  Bare options leave
/// *has_value false with an empty value (flag semantics).  Returns
/// false when args[*i] is not a `--`-prefixed option at all.
inline bool split_option(const std::vector<std::string>& args,
                         std::size_t* i, std::string* name,
                         std::string* value, bool* has_value) {
  const std::string& arg = args[*i];
  if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') return false;
  const std::size_t eq = arg.find('=');
  if (eq != std::string::npos) {
    *name = arg.substr(2, eq - 2);
    *value = arg.substr(eq + 1);
    *has_value = true;
    return true;
  }
  *name = arg.substr(2);
  if (*i + 1 < args.size() &&
      (args[*i + 1].empty() || args[*i + 1].rfind("--", 0) != 0)) {
    *value = args[++*i];
    *has_value = true;
  } else {
    value->clear();
    *has_value = false;
  }
  return true;
}

}  // namespace rbb::runner
