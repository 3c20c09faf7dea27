#include "runner/params.hpp"

#include <cmath>
#include <stdexcept>

#include "support/cli.hpp"

namespace rbb::runner {

namespace {

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
                                " exceeds the 32-bit range this experiment "
                                "supports");
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

}  // namespace rbb::runner
