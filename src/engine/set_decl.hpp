#pragma once

/// \file set_decl.hpp
/// Data-driven scenario declarations: the `*.rvset` text format.
///
/// A `ScenarioSet` is a C++ declaration.  This layer makes the
/// declaration *data*: a small line-oriented text format that covers
/// all five workload families — grid axes, base-cell fields,
/// program/algorithm names from the existing enums, and named
/// horizon-rule / component-hook selections — parsed into a
/// `ScenarioSet` that materialises and runs exactly like one built in
/// C++.  The built-in `rv_batch` sets are themselves the `.rvset`
/// files under `examples/sets/`, embedded at build time
/// (engine/set_registry.hpp; outputs pinned in
/// tests/test_golden_shard.cpp).
///
/// Format (LF line endings; `#` starts a full-line comment):
///
///     # top-level keys come before any section
///     name = search-ring
///     description = search (d x r x program) grid
///     components_only = false
///
///     [search]              # grid section, at most one per family
///     angles = 8            # base-cell fields (singular keys)
///     angle_offset = 0.03
///     distances = 1.0 2.0   # grid axes (plural keys, space-separated)
///     radii = 0.25 0.125
///     programs = algorithm4 square-spiral
///     horizon_rule = guaranteed-rounds+1   # named hook (see registry)
///
///     [gather.add]          # explicit cell, repeatable, file order
///     label = distinct speeds
///     robot = 1.0 1.0       # v tau [phi [chi]], one line per robot
///     robot = 1.5 1.0
///
/// Sections: `[rendezvous]`, `[search]`, `[gather]`, `[linear]`,
/// `[coverage]` declare the family's grid (base fields + at least one
/// axis); `[<family>.add]` appends one explicit cell (kept before the
/// grid, in section order — the fixed materialisation order of
/// `ScenarioSet`).  Numbers use a strict grammar (no inf/nan/hex, no
/// stray suffixes); enums use the display names (`algorithm4`,
/// `algorithm7`, `concentric`, `square-spiral`, `zigzag-search`,
/// `linear-rendezvous`).  Unknown sections/keys, duplicate keys, bad
/// values, and control bytes all fail with a `SetDeclError` naming the
/// line (and key) — a malformed file never mis-parses into a different
/// grid.  Coverage `checkpoints` above `analysis::kMaxCoverageCheckpoints`
/// (65 536) is rejected the same way: it sizes the series, so an
/// unbounded value would let one file ask for gigabytes.
///
/// Hooks cannot be arbitrary code in a text file, so the format selects
/// them from named registries (`horizon_rule = NAME`,
/// `components = NAME`):
/// see `horizon_rule_names()` / `components_hook_names()`.

#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "engine/families.hpp"
#include "engine/scenario_set.hpp"

namespace rv::engine {

/// Parse failure: `what()` is "line N: key 'K': message" (key omitted
/// for line-level errors), with the file path prepended by
/// `parse_set_decl_file`.
class SetDeclError : public std::runtime_error {
 public:
  SetDeclError(int line, std::string field, const std::string& message);
  /// 1-based line number the error names (0 for file-level errors).
  [[nodiscard]] int line() const noexcept { return line_; }
  /// The offending key, or empty for line-level errors.
  [[nodiscard]] const std::string& field() const noexcept { return field_; }

  /// Re-wraps `error` with `prefix + ": "` prepended to the message,
  /// keeping line/field (used by `parse_set_decl_file` to name the
  /// file).
  [[nodiscard]] static SetDeclError with_prefix(const std::string& prefix,
                                               const SetDeclError& error);

 private:
  struct Raw {};
  SetDeclError(Raw, int line, std::string field, const std::string& what);

  int line_ = 0;
  std::string field_;
};

/// One parsed declaration: the set plus its display metadata.
struct SetDecl {
  /// From the `name` key ([A-Za-z0-9._-]+, it becomes cache-shard file
  /// names); `parse_set_decl_file` defaults it to the file stem.
  std::string name;
  std::string description;  ///< from the `description` key (may be empty)
  ScenarioSet set;
};

/// Parses `.rvset` text.  \throws SetDeclError naming line/key on any
/// malformed input.
[[nodiscard]] SetDecl parse_set_decl(std::string_view text);

/// Reads and parses one `.rvset` file; an absent `name` key defaults to
/// the file stem.  \throws SetDeclError (with the path prepended to the
/// message) on read failure or malformed content.
[[nodiscard]] SetDecl parse_set_decl_file(const std::filesystem::path& path);

/// Registered `horizon_rule` names for the family (empty when the
/// family has none):
///  * search `guaranteed-rounds+1` — Lemma 2 time of the guaranteed
///    round of (d, r), plus 1;
///  * linear `zigzag-reach+1` — zigzag reach bound of the target plus 1
///    for zigzag-search cells, the cell's own max_time otherwise;
///  * coverage `2x-guaranteed-rounds` — twice the Lemma 2 time of the
///    guaranteed round of (R, r).
[[nodiscard]] std::vector<std::string> horizon_rule_names(Family family);

/// Registered `components` hook names for the family (empty when the
/// family has none): named closed-form sub-metric columns —
///  * search `guaranteed-rounds` — the guaranteed round index and its
///    Lemma 2 time bound;
///  * linear `zigzag-reach` — the zigzag reach bound of the target.
[[nodiscard]] std::vector<std::string> components_hook_names(Family family);

}  // namespace rv::engine
