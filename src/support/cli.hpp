// Tiny command-line option parser shared by the example programs.
// Supports `--name=value` and `--name value` forms, boolean flags, and
// prints a generated usage text.  Deliberately minimal: no subcommands,
// no positional arguments.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rbb {

/// Declarative option set: register options with defaults, then parse().
class Cli {
 public:
  explicit Cli(std::string program_description);

  /// Registers an option; `help` appears in usage output.
  void add_u64(const std::string& name, std::uint64_t default_value,
               const std::string& help);
  void add_double(const std::string& name, double default_value,
                  const std::string& help);
  void add_string(const std::string& name, std::string default_value,
                  const std::string& help);
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv.  Returns false (after printing usage) on --help or on a
  /// malformed/unknown option; callers should exit(0) / exit(2) then.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::uint64_t u64(const std::string& name) const;
  [[nodiscard]] double f64(const std::string& name) const;
  [[nodiscard]] const std::string& str(const std::string& name) const;
  [[nodiscard]] bool flag(const std::string& name) const;

  [[nodiscard]] std::string usage(const std::string& argv0) const;

 private:
  enum class Kind { kU64, kDouble, kString, kFlag };
  struct Option {
    Kind kind;
    std::string help;
    std::string value;  // canonical textual value
  };
  Option& find(const std::string& name, Kind kind);
  const Option& find(const std::string& name, Kind kind) const;

  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
};

}  // namespace rbb
