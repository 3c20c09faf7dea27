// Tiny command-line option parser shared by the example programs.
// Supports `--name=value` and `--name value` forms, boolean flags, and
// prints a generated usage text.  Deliberately minimal: no subcommands,
// no positional arguments.  Numeric values are validated at parse time
// with the strict parsers below, which the rbb runner shares.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rbb {

/// Strict decimal u64: digits only (no sign, no leading whitespace), the
/// whole text consumed, no overflow.  Writes `*out` when non-null.
[[nodiscard]] bool parse_u64(const std::string& text, std::uint64_t* out);

/// Strict finite double: no leading whitespace, the whole text consumed,
/// no overflow, no nan/inf.  Writes `*out` when non-null.
[[nodiscard]] bool parse_f64(const std::string& text, double* out);

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

  /// Parses argv.  Returns false on --help (usage to stdout) or on an
  /// unknown option or malformed value (message to stderr); the caller
  /// then exits with exit_status().
  [[nodiscard]] bool parse(int argc, const char* const* argv);
  /// 0 after --help, 2 after a rejected command line.
  [[nodiscard]] int exit_status() const noexcept { return exit_status_; }

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
  int exit_status_ = 0;
};

}  // namespace rbb
