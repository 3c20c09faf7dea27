#include "runner/params.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <stdexcept>

#include "support/table.hpp"

namespace rbb::runner {

namespace {

// Both number parsers pin the first character before handing to
// strto*: the C routines skip leading whitespace themselves, which
// would let " -1" wrap around to 2^64-1 for a u64 and " 5" sneak past
// validation.  strtod also takes "nan" and "inf" in any spelling; no
// parameter has a meaning for them, so f64 values must be finite.

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || std::isdigit(static_cast<unsigned char>(text[0])) == 0) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  if (out != nullptr) *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_f64(const std::string& text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) != 0) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size() || !std::isfinite(v)) {
    return false;
  }
  if (out != nullptr) *out = v;
  return true;
}

bool parse_flag(const std::string& text, bool* out) {
  bool value = false;
  if (text.empty() || text == "true" || text == "1") {
    value = true;
  } else if (text == "false" || text == "0") {
    value = false;
  } else {
    return false;
  }
  if (out != nullptr) *out = value;
  return true;
}

}  // namespace

const char* to_string(ParamSpec::Type type) {
  switch (type) {
    case ParamSpec::Type::kU64: return "u64";
    case ParamSpec::Type::kF64: return "f64";
    case ParamSpec::Type::kString: return "string";
    case ParamSpec::Type::kFlag: return "flag";
  }
  return "?";
}

bool parses_as(const std::string& text, ParamSpec::Type type) {
  switch (type) {
    case ParamSpec::Type::kU64: return parse_u64(text, nullptr);
    case ParamSpec::Type::kF64: return parse_f64(text, nullptr);
    case ParamSpec::Type::kString: return true;
    case ParamSpec::Type::kFlag: return parse_flag(text, nullptr);
  }
  return false;
}

ParamValues::ParamValues(const std::vector<ParamSpec>& specs)
    : specs_(&specs) {
  for (const ParamSpec& spec : specs) {
    values_[spec.name] = spec.default_value;
  }
}

bool ParamValues::set(const std::string& name, const std::string& text,
                      std::string* error) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    if (error != nullptr) *error = "unknown option --" + name;
    return false;
  }
  const ParamSpec& spec = spec_of(name);
  if (!parses_as(text, spec.type)) {
    if (error != nullptr) {
      *error = "option --" + name + " expects a " +
               std::string(to_string(spec.type)) + " value, got \"" + text +
               "\"";
    }
    return false;
  }
  // Canonicalize flags so metadata always reads true/false.
  if (spec.type == ParamSpec::Type::kFlag) {
    bool value = false;
    parse_flag(text, &value);
    it->second = value ? "true" : "false";
  } else {
    it->second = text;
  }
  return true;
}

bool ParamValues::has(const std::string& name) const {
  return values_.find(name) != values_.end();
}

const ParamSpec& ParamValues::spec_of(const std::string& name) const {
  for (const ParamSpec& spec : *specs_) {
    if (spec.name == name) return spec;
  }
  throw std::out_of_range("ParamValues: unknown parameter " + name);
}

const std::string& ParamValues::text(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::out_of_range("ParamValues: unknown parameter " + name);
  }
  return it->second;
}

std::uint64_t ParamValues::u64(const std::string& name) const {
  std::uint64_t v = 0;
  if (!parse_u64(text(name), &v)) {
    throw std::out_of_range("ParamValues: " + name + " is not a u64");
  }
  return v;
}

std::uint32_t ParamValues::u32(const std::string& name) const {
  const std::uint64_t v = u64(name);
  if (v > 0xffffffffull) {
    throw std::invalid_argument("--" + name + "=" + text(name) +
                                " exceeds the 32-bit range (at most "
                                "4294967295)");
  }
  return static_cast<std::uint32_t>(v);
}

std::uint64_t ParamValues::balls_for_ratio(const std::string& name,
                                           std::uint32_t n) const {
  const double ratio = f64(name);
  if (ratio < 0) {
    throw std::invalid_argument("--" + name + "=" + text(name) +
                                " is negative; the ball ratio must be >= 0");
  }
  const double balls = std::round(ratio * n);
  if (ratio > 0 && balls < 1) {
    throw std::invalid_argument("--" + name + "=" + text(name) +
                                " gives m = round(ratio * n) = 0 balls at "
                                "n = " + std::to_string(n));
  }
  if (balls > 0xffffffffp0) {
    throw std::invalid_argument("--" + name + "=" + text(name) +
                                " gives m = round(ratio * n) above the "
                                "32-bit range at n = " + std::to_string(n));
  }
  return static_cast<std::uint64_t>(balls);
}

double ParamValues::f64(const std::string& name) const {
  double v = 0;
  if (!parse_f64(text(name), &v)) {
    throw std::out_of_range("ParamValues: " + name + " is not a double");
  }
  return v;
}

const std::string& ParamValues::str(const std::string& name) const {
  return text(name);
}

bool ParamValues::flag(const std::string& name) const {
  bool v = false;
  if (!parse_flag(text(name), &v)) {
    throw std::out_of_range("ParamValues: " + name + " is not a flag");
  }
  return v;
}

bool split_option(const std::vector<std::string>& args, std::size_t* i,
                  std::string* name, std::string* value, bool* has_value) {
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

std::string render_param_table(const std::vector<ParamSpec>& specs) {
  Table table({"parameter", "type", "default", "description"});
  for (const ParamSpec& spec : specs) {
    table.row()
        .cell("--" + spec.name)
        .cell(std::string(to_string(spec.type)))
        .cell(spec.default_value.empty() ? std::string("\"\"")
                                         : spec.default_value)
        .cell(spec.help);
  }
  return table.markdown();
}

int example_main(int argc, const char* const* argv, const std::string& about,
                 const std::vector<ParamSpec>& specs,
                 const std::function<int(const ParamValues&)>& run,
                 std::ostream& out, std::ostream& err) {
  const std::string path = argc > 0 ? argv[0] : "example";
  const std::string program = path.substr(path.find_last_of('/') + 1);
  const std::vector<std::string> args(argv + (argc > 0 ? 1 : 0), argv + argc);
  ParamValues values(specs);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--help" || args[i] == "-h") {
      out << about << "\n\nusage: " << program << " [options]\n\n"
          << render_param_table(specs);
      return 0;
    }
    std::string name;
    std::string value;
    bool has_value = false;
    std::string error;
    if (!split_option(args, &i, &name, &value, &has_value)) {
      error = "unexpected argument \"" + args[i] + "\"";
    } else if (values.set(name, value, &error)) {
      continue;
    }
    err << program << ": " << error << " (see --help)\n";
    return 2;
  }
  try {
    return run(values);
  } catch (const std::invalid_argument& e) {
    err << program << ": " << e.what() << "\n";
    return 2;
  }
}

}  // namespace rbb::runner
