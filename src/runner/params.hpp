// Typed parameter specs for registry experiments (DESIGN.md Sect. 1,
// src/runner/).
//
// Every experiment declares its tunables once -- name, type, default,
// help text -- and the same declaration drives all three consumers: the
// `rbb run` / `rbb sweep` option parser, `rbb describe`, and the
// generated docs/experiments.md catalog.  The example programs declare
// their flags the same way and parse them with example_main.  Values
// are kept as canonical text so run metadata can round-trip them without
// a per-type variant.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace rbb::runner {

/// One declared experiment parameter.
struct ParamSpec {
  enum class Type { kU64, kF64, kString, kFlag };

  std::string name;           // CLI spelling without the leading "--"
  Type type = Type::kU64;
  std::string default_value;  // canonical text; flags use "false"
  std::string help;
};

/// Short type name for usage text and the docs catalog.
[[nodiscard]] const char* to_string(ParamSpec::Type type);

/// Parsed parameter values over a spec list.  Starts at the defaults;
/// set() validates name and type.  The spec list must outlive the values.
class ParamValues {
 public:
  explicit ParamValues(const std::vector<ParamSpec>& specs);

  /// Sets `name` from text.  Returns false (and fills *error, if given)
  /// on an unknown name or text that does not parse as the spec's type.
  /// Flags accept "" (meaning true), "true"/"false", and "1"/"0".
  bool set(const std::string& name, const std::string& text,
           std::string* error = nullptr);

  [[nodiscard]] bool has(const std::string& name) const;

  // Typed accessors; throw std::out_of_range on an unknown name (a
  // programming error -- user input is validated in set()).
  [[nodiscard]] std::uint64_t u64(const std::string& name) const;
  /// u64 narrowed to 32 bits; throws std::invalid_argument (with the
  /// parameter name) when the value exceeds the u32 range, so oversized
  /// CLI input fails loudly instead of silently truncating.
  [[nodiscard]] std::uint32_t u32(const std::string& name) const;
  [[nodiscard]] double f64(const std::string& name) const;
  /// Ball count m = round(ratio * n) for the f64 ball-ratio parameter
  /// `name`; 0 when the ratio is 0 (the drivers' m = n default).  Throws
  /// std::invalid_argument (with the parameter name) on a negative ratio,
  /// on a positive one that rounds to no balls, and on an m above the
  /// 32-bit range.
  [[nodiscard]] std::uint64_t balls_for_ratio(const std::string& name,
                                              std::uint32_t n) const;
  [[nodiscard]] const std::string& str(const std::string& name) const;
  [[nodiscard]] bool flag(const std::string& name) const;

  /// Canonical textual value (for run metadata).
  [[nodiscard]] const std::string& text(const std::string& name) const;

  [[nodiscard]] const std::vector<ParamSpec>& specs() const {
    return *specs_;
  }

 private:
  const ParamSpec& spec_of(const std::string& name) const;

  const std::vector<ParamSpec>* specs_;
  std::map<std::string, std::string> values_;
};

/// Validates that `text` parses as `type` (the ParamValues::set rule,
/// exposed for option parsers that need to pre-check sweep grids).
[[nodiscard]] bool parses_as(const std::string& text, ParamSpec::Type type);

/// Splits the option token at args[*i] into `--name=value` or
/// `--name value`, consuming args[*i + 1] (and advancing *i) when the
/// value is space-separated.  Bare options leave *has_value false with
/// an empty value (flag semantics).  Returns false when args[*i] is not
/// a `--`-prefixed option at all.
bool split_option(const std::vector<std::string>& args, std::size_t* i,
                  std::string* name, std::string* value, bool* has_value);

/// The markdown parameter table (name, type, default, description) of
/// `rbb describe` and of an example's --help.
[[nodiscard]] std::string render_param_table(
    const std::vector<ParamSpec>& specs);

/// The main() of an example program.  Parses argv[1..] against `specs`
/// and calls `run` with the values.  Returns 0 after --help/-h (the
/// usage, `about` and the parameter table, on `out`) and 2 after a
/// rejected command line: an unknown option, a positional argument, a
/// malformed value, or a std::invalid_argument thrown by `run` (an
/// out-of-range value the library refuses).  Each rejection prints
/// "<program>: <message>" on `err`, one line.  Otherwise returns what
/// `run` returns.
int example_main(int argc, const char* const* argv, const std::string& about,
                 const std::vector<ParamSpec>& specs,
                 const std::function<int(const ParamValues&)>& run,
                 std::ostream& out, std::ostream& err);

}  // namespace rbb::runner
