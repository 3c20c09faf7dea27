#include "support/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace rbb {
namespace {

const char* kind_name(int kind) {
  switch (kind) {
    case 0: return "uint";
    case 1: return "float";
    case 2: return "string";
    default: return "flag";
  }
}

}  // namespace

// Both parsers pin the first character before handing to strto*: the C
// routines skip leading whitespace themselves, which would let " -1"
// wrap around to 2^64-1 for a u64 and " 5" sneak past validation.
// strtod also takes "nan" and "inf" in any spelling; no option has a
// meaning for them, so f64 values must be finite.

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

Cli::Cli(std::string program_description)
    : description_(std::move(program_description)) {}

void Cli::add_u64(const std::string& name, std::uint64_t default_value,
                  const std::string& help) {
  options_[name] = Option{Kind::kU64, help, std::to_string(default_value)};
  order_.push_back(name);
}

void Cli::add_double(const std::string& name, double default_value,
                     const std::string& help) {
  std::ostringstream v;
  v << default_value;
  options_[name] = Option{Kind::kDouble, help, v.str()};
  order_.push_back(name);
}

void Cli::add_string(const std::string& name, std::string default_value,
                     const std::string& help) {
  options_[name] = Option{Kind::kString, help, std::move(default_value)};
  order_.push_back(name);
}

void Cli::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{Kind::kFlag, help, "0"};
  order_.push_back(name);
}

bool Cli::parse(int argc, const char* const* argv) {
  const auto reject = [&](const std::string& message) {
    std::cerr << message << '\n' << usage(argv[0]);
    exit_status_ = 2;
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage(argv[0]);
      exit_status_ = 0;
      return false;
    }
    if (arg.rfind("--", 0) != 0) return reject("unexpected argument: " + arg);
    arg.erase(0, 2);
    std::string value;
    bool have_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
      have_value = true;
    }
    const auto it = options_.find(arg);
    if (it == options_.end()) return reject("unknown option: --" + arg);
    const Kind kind = it->second.kind;
    if (kind == Kind::kFlag) {
      it->second.value = have_value ? value : "1";
      continue;
    }
    if (!have_value) {
      if (i + 1 >= argc) return reject("option --" + arg + " needs a value");
      value = argv[++i];
    }
    if ((kind == Kind::kU64 && !parse_u64(value, nullptr)) ||
        (kind == Kind::kDouble && !parse_f64(value, nullptr))) {
      return reject("option --" + arg + ": '" + value + "' is not a " +
                    kind_name(static_cast<int>(kind)));
    }
    it->second.value = value;
  }
  return true;
}

Cli::Option& Cli::find(const std::string& name, Kind kind) {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.kind != kind) {
    throw std::logic_error("Cli: option not registered with this type: " +
                           name);
  }
  return it->second;
}

const Cli::Option& Cli::find(const std::string& name, Kind kind) const {
  return const_cast<Cli*>(this)->find(name, kind);
}

std::uint64_t Cli::u64(const std::string& name) const {
  return std::strtoull(find(name, Kind::kU64).value.c_str(), nullptr, 10);
}

double Cli::f64(const std::string& name) const {
  return std::strtod(find(name, Kind::kDouble).value.c_str(), nullptr);
}

const std::string& Cli::str(const std::string& name) const {
  return find(name, Kind::kString).value;
}

bool Cli::flag(const std::string& name) const {
  const std::string& v = find(name, Kind::kFlag).value;
  return v != "0" && v != "false" && !v.empty();
}

std::string Cli::usage(const std::string& argv0) const {
  std::ostringstream out;
  out << description_ << "\n\nusage: " << argv0 << " [options]\n\noptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    out << "  --" << name << " <" << kind_name(static_cast<int>(opt.kind))
        << ">  " << opt.help << " (default: " << opt.value << ")\n";
  }
  out << "  --help  print this message\n";
  return out.str();
}

}  // namespace rbb
