// Typed parameter specs for registry experiments (DESIGN.md Sect. 1,
// src/runner/).
//
// Every experiment declares its tunables once -- name, type, default,
// help text -- and the same declaration drives all three consumers: the
// `rbb run` / `rbb sweep` option parser, `rbb describe`, and the
// generated docs/experiments.md catalog.  Values
// are kept as canonical text so run metadata can round-trip them without
// a per-type variant.
#pragma once

#include <cstdint>
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

}  // namespace rbb::runner
