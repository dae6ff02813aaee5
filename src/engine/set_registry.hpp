#pragma once

/// \file set_registry.hpp
/// The built-in scenario sets, by name: the `examples/sets/*.rvset`
/// files listed in `RV_BUILTIN_SETS` in CMakeLists.txt (the list fixes
/// the `rv_batch list` order), embedded at build time and each parsed
/// once, on first use.  So `--set NAME` and `--set-file
/// examples/sets/NAME.rvset` read the same text.  To add a set, add an
/// `.rvset` file and list it there.

#include <string>
#include <vector>

#include "engine/set_decl.hpp"

namespace rv::engine {

/// The names of the built-in sets (their file stems), in display order.
[[nodiscard]] std::vector<std::string> builtin_set_names();

/// The named built-in set.  \throws std::invalid_argument ("unknown
/// set 'X'; available: ...") when `name` is unknown, SetDeclError
/// (naming the file) if its embedded declaration does not parse.
[[nodiscard]] const SetDecl& builtin_set(const std::string& name);

}  // namespace rv::engine
