#include "io/args.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace rv::io {

namespace {

/// Parses the whole of `text` as a finite, in-range T.  \throws
/// std::invalid_argument naming the flag and the value otherwise (not a
/// number, trailing junk, out of range).
template <typename T>
T parse_number(const std::string& name, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end ||
      !std::isfinite(static_cast<double>(value))) {
    throw std::invalid_argument(
        "Args: --" + name + " expects " +
        (std::is_integral_v<T> ? "an int" : "a finite number") + ", got '" +
        text + "'");
  }
  return value;
}

}  // namespace

void Args::declare(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  specs_[name] = Spec{Kind::kString, default_value, help};
}

void Args::declare_double(const std::string& name, double default_value,
                          const std::string& help) {
  std::ostringstream os;
  os << default_value;
  specs_[name] = Spec{Kind::kDouble, os.str(), help};
}

void Args::declare_int(const std::string& name, int default_value,
                       const std::string& help) {
  specs_[name] = Spec{Kind::kInt, std::to_string(default_value), help};
}

void Args::declare_bool(const std::string& name, const std::string& help) {
  specs_[name] = Spec{Kind::kBool, "0", help};
}

void Args::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("Args: expected --flag, got '" + arg + "'");
    }
    const std::string name = arg.substr(2);
    const auto it = specs_.find(name);
    if (it == specs_.end()) {
      throw std::invalid_argument("Args: unknown flag --" + name);
    }
    if (it->second.kind == Kind::kBool) {
      values_.insert_or_assign(name, std::string("1"));
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("Args: missing value for --" + name);
    }
    values_.insert_or_assign(name, std::string(argv[++i]));
    // Numbers are checked here, where callers handle usage errors.
    if (it->second.kind == Kind::kInt) (void)get_int(name);
    if (it->second.kind == Kind::kDouble) (void)get_double(name);
  }
}

bool Args::provided(const std::string& name) const {
  if (specs_.find(name) == specs_.end()) {
    throw std::invalid_argument("Args: undeclared flag --" + name);
  }
  return values_.find(name) != values_.end();
}

const Args::Spec& Args::spec_for(const std::string& name, Kind expected) const {
  const auto it = specs_.find(name);
  if (it == specs_.end()) {
    throw std::invalid_argument("Args: undeclared flag --" + name);
  }
  if (it->second.kind != expected) {
    throw std::invalid_argument("Args: type mismatch for --" + name);
  }
  return it->second;
}

std::string Args::get(const std::string& name) const {
  const Spec& spec = spec_for(name, Kind::kString);
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : spec.default_value;
}

double Args::get_double(const std::string& name) const {
  const Spec& spec = spec_for(name, Kind::kDouble);
  const auto it = values_.find(name);
  return parse_number<double>(
      name, it != values_.end() ? it->second : spec.default_value);
}

int Args::get_int(const std::string& name) const {
  const Spec& spec = spec_for(name, Kind::kInt);
  const auto it = values_.find(name);
  return parse_number<int>(
      name, it != values_.end() ? it->second : spec.default_value);
}

bool Args::get_bool(const std::string& name) const {
  const auto it = specs_.find(name);
  if (it == specs_.end() || it->second.kind != Kind::kBool) {
    throw std::invalid_argument("Args: undeclared bool flag --" + name);
  }
  const auto vit = values_.find(name);
  return vit != values_.end() && vit->second == "1";
}

std::string Args::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    if (spec.kind != Kind::kBool) os << " <value>";
    os << "  " << spec.help;
    if (spec.kind != Kind::kBool) os << " (default: " << spec.default_value << ")";
    os << '\n';
  }
  return os.str();
}

}  // namespace rv::io
