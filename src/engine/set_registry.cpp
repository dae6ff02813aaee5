#include "engine/set_registry.hpp"

#include <map>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace rv::engine {

namespace detail {
/// (file stem, file text) of every listed `.rvset`, in display order;
/// defined in the source CMakeLists.txt generates.
const std::vector<std::pair<std::string_view, std::string_view>>&
embedded_sets();
}  // namespace detail

std::vector<std::string> builtin_set_names() {
  std::vector<std::string> names;
  for (const auto& [stem, text] : detail::embedded_sets()) {
    names.emplace_back(stem);
  }
  return names;
}

const SetDecl& builtin_set(const std::string& name) {
  // Parsed on first use only, so a process that runs one set never
  // parses the others; map nodes never move, so references stay valid.
  static std::mutex mutex;
  static std::map<std::string, SetDecl> parsed;
  for (const auto& [stem, text] : detail::embedded_sets()) {
    if (stem != name) continue;
    const std::lock_guard<std::mutex> lock(mutex);
    auto it = parsed.find(name);
    if (it == parsed.end()) {
      try {
        it = parsed.emplace(name, parse_set_decl(text)).first;
      } catch (const SetDeclError& error) {
        throw SetDeclError::with_prefix(name + ".rvset", error);
      }
      if (it->second.name.empty()) it->second.name = name;
    }
    return it->second;
  }
  std::string message = "unknown set '" + name + "'; available:";
  for (const std::string& known : builtin_set_names()) message += " " + known;
  throw std::invalid_argument(message);
}

}  // namespace rv::engine
