#include "engine/set_decl.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "linear/zigzag.hpp"
#include "search/times.hpp"

namespace rv::engine {
namespace {

// ---------------------------------------------------------------------------
// Hook registries (named stand-ins for the built-in sets' C++ lambdas)
// ---------------------------------------------------------------------------

struct SearchHorizonRule {
  const char* name;
  double (*fn)(const SearchCell&);
};
constexpr SearchHorizonRule kSearchHorizonRules[] = {
    {"guaranteed-rounds+1",
     [](const SearchCell& c) {
       return search::time_first_rounds(
                  search::guaranteed_round(c.distance, c.visibility)) +
              1.0;
     }},
};

struct LinearHorizonRule {
  const char* name;
  double (*fn)(const LinearCell&);
};
constexpr LinearHorizonRule kLinearHorizonRules[] = {
    {"zigzag-reach+1",
     [](const LinearCell& c) {
       return c.mode == LinearMode::kZigZagSearch
                  ? linear::zigzag_reach_bound(c.target) + 1.0
                  : c.max_time;
     }},
};

struct CoverageHorizonRule {
  const char* name;
  double (*fn)(const CoverageCell&);
};
constexpr CoverageHorizonRule kCoverageHorizonRules[] = {
    {"2x-guaranteed-rounds",
     [](const CoverageCell& c) {
       return 2.0 * search::time_first_rounds(search::guaranteed_round(
                        c.disk_radius, c.visibility));
     }},
};

struct SearchComponentsHook {
  const char* name;
  Components (*fn)(const SearchCell&, const SearchOutcome&);
};
constexpr SearchComponentsHook kSearchComponentsHooks[] = {
    {"guaranteed-rounds",
     [](const SearchCell& c, const SearchOutcome&) {
       const int round = search::guaranteed_round(c.distance, c.visibility);
       return Components{
           {"guaranteed_round", static_cast<double>(round)},
           {"round_time_bound", search::time_first_rounds(round)},
       };
     }},
};

struct LinearComponentsHook {
  const char* name;
  Components (*fn)(const LinearCell&, const LinearOutcome&);
};
constexpr LinearComponentsHook kLinearComponentsHooks[] = {
    {"zigzag-reach",
     [](const LinearCell& c, const LinearOutcome&) {
       return Components{{"reach_bound", linear::zigzag_reach_bound(c.target)}};
     }},
};

// ---------------------------------------------------------------------------
// Lexing helpers
// ---------------------------------------------------------------------------

[[nodiscard]] bool is_digit(char c) { return c >= '0' && c <= '9'; }
[[nodiscard]] bool is_space(char c) { return c == ' ' || c == '\t'; }

[[nodiscard]] std::string trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return std::string(text.substr(begin, end - begin));
}

[[nodiscard]] std::vector<std::string> split_spaces(const std::string& text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (i > start) out.push_back(text.substr(start, i - start));
  }
  return out;
}

/// Strict numeric token: [+-]? (digits [. digits*] | . digits) exponent?.
/// Rejects inf/nan/hex and any trailing junk — a corrupt value must
/// fail the parse, never wrap or truncate.
[[nodiscard]] bool is_number_token(std::string_view s) {
  std::size_t i = 0;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
  std::size_t digits = 0;
  while (i < s.size() && is_digit(s[i])) {
    ++i;
    ++digits;
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    while (i < s.size() && is_digit(s[i])) {
      ++i;
      ++digits;
    }
  }
  if (digits == 0) return false;
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    std::size_t exp_digits = 0;
    while (i < s.size() && is_digit(s[i])) {
      ++i;
      ++exp_digits;
    }
    if (exp_digits == 0) return false;
  }
  return i == s.size();
}

// ---------------------------------------------------------------------------
// Raw sections
// ---------------------------------------------------------------------------

struct KeyValue {
  std::string value;
  int line = 0;
};

/// One raw `[header]` block (or the implicit top-level block): keys in
/// a map (duplicates rejected at parse time), except the repeatable
/// `robot` key which accumulates in order.
struct Section {
  std::string header;  // "", "rendezvous", "search.add", ...
  int line = 0;        // header line (0 for the top-level block)
  std::map<std::string, KeyValue> keys;
  std::vector<KeyValue> robots;
};

[[nodiscard]] std::string section_display(const Section& section) {
  return section.header.empty() ? "top level" : "[" + section.header + "]";
}

/// Splits text into raw sections, enforcing the line grammar: control
/// bytes, bare words, duplicate keys and malformed headers all throw.
[[nodiscard]] std::vector<Section> lex_sections(std::string_view text) {
  std::vector<Section> sections;
  sections.push_back(Section{});  // implicit top-level block
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view raw =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    for (char c : raw) {
      if (static_cast<unsigned char>(c) < 0x20 && c != '\t') {
        throw SetDeclError(line_no, "",
                           "control byte in line (LF-only text expected)");
      }
    }
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == '[') {
      if (line.back() != ']' || line.size() < 3) {
        throw SetDeclError(line_no, "", "malformed section header '" + line +
                                            "' (expected [family] or "
                                            "[family.add])");
      }
      Section section;
      section.header = line.substr(1, line.size() - 2);
      section.line = line_no;
      sections.push_back(std::move(section));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw SetDeclError(line_no, "",
                         "expected 'key = value', got '" + line + "'");
    }
    const std::string key = trim(std::string_view(line).substr(0, eq));
    const std::string value = trim(std::string_view(line).substr(eq + 1));
    if (key.empty()) {
      throw SetDeclError(line_no, "", "empty key before '='");
    }
    if (value.empty()) {
      throw SetDeclError(line_no, key, "empty value");
    }
    Section& section = sections.back();
    if (key == "robot") {
      section.robots.push_back(KeyValue{value, line_no});
      continue;
    }
    const auto [it, inserted] =
        section.keys.emplace(key, KeyValue{value, line_no});
    if (!inserted) {
      throw SetDeclError(line_no, key,
                         "duplicate key (first set on line " +
                             std::to_string(it->second.line) + ")");
    }
  }
  return sections;
}

// ---------------------------------------------------------------------------
// Value conversion
// ---------------------------------------------------------------------------

[[nodiscard]] double to_double(const KeyValue& kv, const std::string& key) {
  if (!is_number_token(kv.value)) {
    throw SetDeclError(kv.line, key,
                       "expected a number, got '" + kv.value + "'");
  }
  const char* begin = kv.value.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end != begin + kv.value.size() || !std::isfinite(value)) {
    throw SetDeclError(kv.line, key, "number out of range: '" + kv.value + "'");
  }
  return value;
}

[[nodiscard]] int to_int(const KeyValue& kv, const std::string& key) {
  std::string_view s = kv.value;
  std::size_t i = (!s.empty() && s[0] == '-') ? 1 : 0;
  bool digits_only = i < s.size();
  for (std::size_t j = i; j < s.size(); ++j) {
    digits_only = digits_only && is_digit(s[j]);
  }
  if (!digits_only) {
    throw SetDeclError(kv.line, key,
                       "expected an integer, got '" + kv.value + "'");
  }
  errno = 0;
  const char* begin = kv.value.c_str();
  char* end = nullptr;
  const long long value = std::strtoll(begin, &end, 10);
  if (errno != 0 || end != begin + kv.value.size() || value > 2147483647LL ||
      value < -2147483648LL) {
    throw SetDeclError(kv.line, key,
                       "integer out of range: '" + kv.value + "'");
  }
  return static_cast<int>(value);
}

[[nodiscard]] bool to_bool(const KeyValue& kv, const std::string& key) {
  if (kv.value == "true") return true;
  if (kv.value == "false") return false;
  throw SetDeclError(kv.line, key,
                     "expected true or false, got '" + kv.value + "'");
}

[[nodiscard]] std::vector<double> to_double_list(const KeyValue& kv,
                                                 const std::string& key) {
  std::vector<double> out;
  for (const std::string& token : split_spaces(kv.value)) {
    out.push_back(to_double(KeyValue{token, kv.line}, key));
  }
  if (out.empty()) throw SetDeclError(kv.line, key, "empty list");
  return out;
}

[[nodiscard]] std::vector<int> to_int_list(const KeyValue& kv,
                                           const std::string& key) {
  std::vector<int> out;
  for (const std::string& token : split_spaces(kv.value)) {
    out.push_back(to_int(KeyValue{token, kv.line}, key));
  }
  if (out.empty()) throw SetDeclError(kv.line, key, "empty list");
  return out;
}

[[nodiscard]] geom::Vec2 to_pair(const KeyValue& kv, const std::string& key) {
  const std::vector<std::string> tokens = split_spaces(kv.value);
  if (tokens.size() != 2) {
    throw SetDeclError(kv.line, key,
                       "expected 'x y' (two numbers), got '" + kv.value + "'");
  }
  return geom::Vec2{to_double(KeyValue{tokens[0], kv.line}, key),
                    to_double(KeyValue{tokens[1], kv.line}, key)};
}

/// Pair list: "x y; x y; ..." (semicolon-separated pairs).
[[nodiscard]] std::vector<geom::Vec2> to_pair_list(const KeyValue& kv,
                                                   const std::string& key) {
  std::vector<geom::Vec2> out;
  std::size_t start = 0;
  const std::string& v = kv.value;
  while (start <= v.size()) {
    std::size_t semi = v.find(';', start);
    if (semi == std::string::npos) semi = v.size();
    const std::string part = trim(std::string_view(v).substr(start, semi - start));
    if (part.empty()) {
      throw SetDeclError(kv.line, key, "empty pair in list");
    }
    out.push_back(to_pair(KeyValue{part, kv.line}, key));
    start = semi + 1;
    if (semi == v.size()) break;
  }
  if (out.empty()) throw SetDeclError(kv.line, key, "empty list");
  return out;
}

[[nodiscard]] rendezvous::AlgorithmChoice to_algorithm(const KeyValue& kv,
                                                       const std::string& key) {
  if (kv.value == "algorithm4") return rendezvous::AlgorithmChoice::kAlgorithm4;
  if (kv.value == "algorithm7") return rendezvous::AlgorithmChoice::kAlgorithm7;
  throw SetDeclError(
      kv.line, key,
      "unknown algorithm '" + kv.value + "' (valid: algorithm4 algorithm7)");
}

[[nodiscard]] SearchProgram to_program(const KeyValue& kv,
                                       const std::string& key) {
  if (kv.value == "algorithm4") return SearchProgram::kAlgorithm4;
  if (kv.value == "concentric") return SearchProgram::kConcentric;
  if (kv.value == "square-spiral") return SearchProgram::kSquareSpiral;
  throw SetDeclError(kv.line, key,
                     "unknown program '" + kv.value +
                         "' (valid: algorithm4 concentric square-spiral)");
}

[[nodiscard]] std::vector<SearchProgram> to_program_list(
    const KeyValue& kv, const std::string& key) {
  std::vector<SearchProgram> out;
  for (const std::string& token : split_spaces(kv.value)) {
    out.push_back(to_program(KeyValue{token, kv.line}, key));
  }
  if (out.empty()) throw SetDeclError(kv.line, key, "empty list");
  return out;
}

[[nodiscard]] LinearMode to_mode(const KeyValue& kv, const std::string& key) {
  if (kv.value == "zigzag-search") return LinearMode::kZigZagSearch;
  if (kv.value == "linear-rendezvous") return LinearMode::kRendezvous;
  throw SetDeclError(kv.line, key,
                     "unknown mode '" + kv.value +
                         "' (valid: zigzag-search linear-rendezvous)");
}

// ---------------------------------------------------------------------------
// Section dispatch
// ---------------------------------------------------------------------------

/// Checked key access: every key a section handler reads goes through
/// `take`, and `finish` rejects whatever is left over, naming the
/// section and its valid keys.
class Keys {
 public:
  explicit Keys(Section& section) : section_(section) {}

  [[nodiscard]] std::optional<KeyValue> take(const std::string& key) {
    valid_.push_back(key);
    const auto it = section_.keys.find(key);
    if (it == section_.keys.end()) return std::nullopt;
    KeyValue kv = it->second;
    section_.keys.erase(it);
    return kv;
  }

  /// True when `key` is present (and consumes it via the `out` pattern
  /// below).  Sugar for the common "apply if set" case.
  template <typename T, typename Fn>
  bool apply(const std::string& key, T& out, Fn&& convert) {
    const std::optional<KeyValue> kv = take(key);
    if (!kv) return false;
    out = convert(*kv, key);
    return true;
  }

  void finish() {
    if (section_.keys.empty()) return;
    const auto& [key, kv] = *section_.keys.begin();
    std::string valid;
    for (const std::string& name : valid_) {
      valid += valid.empty() ? "" : " ";
      valid += name;
    }
    throw SetDeclError(kv.line, key,
                       "unknown key in " + section_display(section_) +
                           " (valid keys: " + valid + ")");
  }

 private:
  Section& section_;
  std::vector<std::string> valid_;
};

[[nodiscard]] std::string join_names(const std::vector<std::string>& names) {
  if (names.empty()) return "(none)";
  std::string out;
  for (const std::string& name : names) {
    out += out.empty() ? "" : " ";
    out += name;
  }
  return out;
}

void apply_attrs(Keys& keys, geom::RobotAttributes& attrs) {
  keys.apply("speed", attrs.speed, to_double);
  keys.apply("time_unit", attrs.time_unit, to_double);
  keys.apply("orientation", attrs.orientation, to_double);
  keys.apply("chirality", attrs.chirality, to_int);
}

[[nodiscard]] rendezvous::Scenario parse_rendezvous_cell(Keys& keys) {
  rendezvous::Scenario cell;
  apply_attrs(keys, cell.attrs);
  keys.apply("offset", cell.offset, to_pair);
  keys.apply("visibility", cell.visibility, to_double);
  keys.apply("algorithm", cell.algorithm, to_algorithm);
  keys.apply("max_time", cell.max_time, to_double);
  return cell;
}

void apply_rendezvous(Section& section, bool add, ScenarioSet& set) {
  Keys keys(section);
  std::string label;
  if (add) keys.apply("label", label, [](const KeyValue& kv,
                                         const std::string&) {
    return kv.value;
  });
  rendezvous::Scenario cell = parse_rendezvous_cell(keys);
  if (add) {
    keys.finish();
    set.add(std::move(cell), std::move(label));
    return;
  }
  bool any_axis = false;
  std::vector<double> values;
  std::vector<int> ints;
  if (keys.apply("speeds", values, to_double_list)) {
    set.speeds(values);
    any_axis = true;
  }
  if (keys.apply("time_units", values, to_double_list)) {
    set.time_units(values);
    any_axis = true;
  }
  if (keys.apply("orientations", values, to_double_list)) {
    set.orientations(values);
    any_axis = true;
  }
  if (keys.apply("chiralities", ints, to_int_list)) {
    set.chiralities(ints);
    any_axis = true;
  }
  const std::optional<KeyValue> distances = keys.take("distances");
  const std::optional<KeyValue> offsets = keys.take("offsets");
  if (distances && offsets) {
    throw SetDeclError(offsets->line, "offsets",
                       "'distances' and 'offsets' both set the offset axis; "
                       "use one");
  }
  if (distances) {
    set.distances(to_double_list(*distances, "distances"));
    any_axis = true;
  }
  if (offsets) {
    set.offsets(to_pair_list(*offsets, "offsets"));
    any_axis = true;
  }
  keys.finish();
  if (!any_axis) {
    throw SetDeclError(section.line, "",
                       "[rendezvous] declares no grid axis (expected one of: "
                       "speeds time_units orientations chiralities distances "
                       "offsets)");
  }
  set.base(std::move(cell));
}

[[nodiscard]] SearchCell parse_search_cell(Keys& keys) {
  SearchCell cell;
  apply_attrs(keys, cell.attrs);
  keys.apply("distance", cell.distance, to_double);
  keys.apply("visibility", cell.visibility, to_double);
  keys.apply("angles", cell.angles, to_int);
  keys.apply("angle_offset", cell.angle_offset, to_double);
  keys.apply("program", cell.program, to_program);
  keys.apply("max_time", cell.max_time, to_double);
  return cell;
}

void apply_search(Section& section, bool add, ScenarioSet& set) {
  Keys keys(section);
  std::string label;
  if (add) keys.apply("label", label, [](const KeyValue& kv,
                                         const std::string&) {
    return kv.value;
  });
  SearchCell cell = parse_search_cell(keys);
  if (add) {
    keys.apply("targets", cell.targets, to_pair_list);
    keys.finish();
    set.add_search(std::move(cell), std::move(label));
    return;
  }
  bool any_axis = false;
  std::vector<double> values;
  std::vector<SearchProgram> programs;
  if (keys.apply("distances", values, to_double_list)) {
    set.search_distances(values);
    any_axis = true;
  }
  if (keys.apply("radii", values, to_double_list)) {
    set.search_radii(values);
    any_axis = true;
  }
  if (keys.apply("programs", programs, to_program_list)) {
    set.search_programs(programs);
    any_axis = true;
  }
  bool any_hook = false;
  if (const std::optional<KeyValue> rule = keys.take("horizon_rule")) {
    for (const SearchHorizonRule& entry : kSearchHorizonRules) {
      if (rule->value == entry.name) {
        set.search_horizon(entry.fn);
        any_hook = true;
        break;
      }
    }
    if (!any_hook) {
      throw SetDeclError(
          rule->line, "horizon_rule",
          "unknown search horizon rule '" + rule->value + "' (valid: " +
              join_names(horizon_rule_names(Family::kSearch)) + ")");
    }
  }
  if (const std::optional<KeyValue> hook = keys.take("components")) {
    bool found = false;
    for (const SearchComponentsHook& entry : kSearchComponentsHooks) {
      if (hook->value == entry.name) {
        set.search_components(entry.fn);
        found = true;
        break;
      }
    }
    if (!found) {
      throw SetDeclError(
          hook->line, "components",
          "unknown search components hook '" + hook->value + "' (valid: " +
              join_names(components_hook_names(Family::kSearch)) + ")");
    }
    any_hook = true;
  }
  keys.finish();
  if (!any_axis && !any_hook) {
    throw SetDeclError(section.line, "",
                       "[search] declares no grid axis (expected one of: "
                       "distances radii programs)");
  }
  set.search_base(std::move(cell));
}

[[nodiscard]] GatherCell parse_gather_cell(Keys& keys) {
  GatherCell cell;
  keys.apply("ring_radius", cell.ring_radius, to_double);
  keys.apply("ring_phase", cell.ring_phase, to_double);
  keys.apply("jitter", cell.jitter, to_pair_list);
  keys.apply("visibility", cell.visibility, to_double);
  keys.apply("algorithm", cell.algorithm, to_algorithm);
  keys.apply("contact_max_time", cell.contact_max_time, to_double);
  keys.apply("gather_max_time", cell.gather_max_time, to_double);
  return cell;
}

[[nodiscard]] geom::RobotAttributes parse_robot(const KeyValue& kv) {
  const std::vector<std::string> tokens = split_spaces(kv.value);
  if (tokens.size() < 2 || tokens.size() > 4) {
    throw SetDeclError(kv.line, "robot",
                       "expected 'v tau [phi [chi]]', got '" + kv.value + "'");
  }
  geom::RobotAttributes attrs;
  attrs.speed = to_double(KeyValue{tokens[0], kv.line}, "robot");
  attrs.time_unit = to_double(KeyValue{tokens[1], kv.line}, "robot");
  if (tokens.size() > 2) {
    attrs.orientation = to_double(KeyValue{tokens[2], kv.line}, "robot");
  }
  if (tokens.size() > 3) {
    attrs.chirality = to_int(KeyValue{tokens[3], kv.line}, "robot");
  }
  return attrs;
}

void apply_gather(Section& section, bool add, ScenarioSet& set) {
  Keys keys(section);
  std::string label;
  if (add) keys.apply("label", label, [](const KeyValue& kv,
                                         const std::string&) {
    return kv.value;
  });
  GatherCell cell = parse_gather_cell(keys);
  if (add) {
    keys.finish();
    for (const KeyValue& robot : section.robots) {
      cell.fleet.push_back(parse_robot(robot));
    }
    if (cell.fleet.size() < 2) {
      throw SetDeclError(section.line, "robot",
                         "[gather.add] needs at least 2 'robot = v tau "
                         "[phi [chi]]' lines, got " +
                             std::to_string(cell.fleet.size()));
    }
    set.add_gather(std::move(cell), std::move(label));
    return;
  }
  const std::optional<KeyValue> sizes = keys.take("sizes");
  keys.finish();
  if (!section.robots.empty()) {
    throw SetDeclError(section.robots.front().line, "robot",
                       "'robot' lines belong in [gather.add] sections");
  }
  if (!sizes) {
    throw SetDeclError(section.line, "",
                       "[gather] declares no grid axis (expected: sizes)");
  }
  set.gather_base(std::move(cell));
  set.gather_sizes(to_int_list(*sizes, "sizes"));
}

[[nodiscard]] LinearCell parse_linear_cell(Keys& keys) {
  LinearCell cell;
  keys.apply("mode", cell.mode, to_mode);
  keys.apply("speed", cell.attrs.speed, to_double);
  keys.apply("time_unit", cell.attrs.time_unit, to_double);
  keys.apply("direction", cell.attrs.direction, to_int);
  keys.apply("target", cell.target, to_double);
  keys.apply("visibility", cell.visibility, to_double);
  keys.apply("max_time", cell.max_time, to_double);
  return cell;
}

void apply_linear(Section& section, bool add, ScenarioSet& set) {
  Keys keys(section);
  std::string label;
  if (add) keys.apply("label", label, [](const KeyValue& kv,
                                         const std::string&) {
    return kv.value;
  });
  LinearCell cell = parse_linear_cell(keys);
  if (add) {
    keys.finish();
    set.add_linear(std::move(cell), std::move(label));
    return;
  }
  bool any_axis = false;
  std::vector<double> values;
  if (keys.apply("distances", values, to_double_list)) {
    set.linear_distances(values);
    any_axis = true;
  }
  if (keys.apply("radii", values, to_double_list)) {
    set.linear_radii(values);
    any_axis = true;
  }
  bool any_hook = false;
  if (const std::optional<KeyValue> rule = keys.take("horizon_rule")) {
    bool found = false;
    for (const LinearHorizonRule& entry : kLinearHorizonRules) {
      if (rule->value == entry.name) {
        set.linear_horizon(entry.fn);
        found = true;
        break;
      }
    }
    if (!found) {
      throw SetDeclError(
          rule->line, "horizon_rule",
          "unknown linear horizon rule '" + rule->value + "' (valid: " +
              join_names(horizon_rule_names(Family::kLinear)) + ")");
    }
    any_hook = true;
  }
  if (const std::optional<KeyValue> hook = keys.take("components")) {
    bool found = false;
    for (const LinearComponentsHook& entry : kLinearComponentsHooks) {
      if (hook->value == entry.name) {
        set.linear_components(entry.fn);
        found = true;
        break;
      }
    }
    if (!found) {
      throw SetDeclError(
          hook->line, "components",
          "unknown linear components hook '" + hook->value + "' (valid: " +
              join_names(components_hook_names(Family::kLinear)) + ")");
    }
    any_hook = true;
  }
  keys.finish();
  if (!any_axis && !any_hook) {
    throw SetDeclError(section.line, "",
                       "[linear] declares no grid axis (expected one of: "
                       "distances radii)");
  }
  set.linear_base(std::move(cell));
}

[[nodiscard]] CoverageCell parse_coverage_cell(Keys& keys) {
  CoverageCell cell;
  apply_attrs(keys, cell.attrs);
  keys.apply("program", cell.program, to_program);
  keys.apply("disk_radius", cell.disk_radius, to_double);
  keys.apply("visibility", cell.visibility, to_double);
  keys.apply("cell", cell.cell, to_double);
  if (const std::optional<KeyValue> kv = keys.take("checkpoints")) {
    cell.checkpoints = to_int(*kv, "checkpoints");
    if (cell.checkpoints > analysis::kMaxCoverageCheckpoints) {
      throw SetDeclError(kv->line, "checkpoints",
                         "at most " +
                             std::to_string(analysis::kMaxCoverageCheckpoints) +
                             " checkpoints, got " + kv->value);
    }
  }
  keys.apply("horizon", cell.horizon, to_double);
  return cell;
}

void apply_coverage(Section& section, bool add, ScenarioSet& set) {
  Keys keys(section);
  std::string label;
  if (add) keys.apply("label", label, [](const KeyValue& kv,
                                         const std::string&) {
    return kv.value;
  });
  CoverageCell cell = parse_coverage_cell(keys);
  if (add) {
    keys.finish();
    set.add_coverage(std::move(cell), std::move(label));
    return;
  }
  bool any_axis = false;
  std::vector<double> values;
  std::vector<SearchProgram> programs;
  if (keys.apply("programs", programs, to_program_list)) {
    set.coverage_programs(programs);
    any_axis = true;
  }
  if (keys.apply("disk_radii", values, to_double_list)) {
    set.coverage_disk_radii(values);
    any_axis = true;
  }
  if (keys.apply("radii", values, to_double_list)) {
    set.coverage_radii(values);
    any_axis = true;
  }
  bool any_hook = false;
  if (const std::optional<KeyValue> rule = keys.take("horizon_rule")) {
    bool found = false;
    for (const CoverageHorizonRule& entry : kCoverageHorizonRules) {
      if (rule->value == entry.name) {
        set.coverage_horizon(entry.fn);
        found = true;
        break;
      }
    }
    if (!found) {
      throw SetDeclError(
          rule->line, "horizon_rule",
          "unknown coverage horizon rule '" + rule->value + "' (valid: " +
              join_names(horizon_rule_names(Family::kCoverage)) + ")");
    }
    any_hook = true;
  }
  keys.finish();
  if (!any_axis && !any_hook) {
    throw SetDeclError(section.line, "",
                       "[coverage] declares no grid axis (expected one of: "
                       "programs disk_radii radii)");
  }
  set.coverage_base(std::move(cell));
}

[[nodiscard]] bool valid_set_name(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    is_digit(c) || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

SetDeclError::SetDeclError(int line, std::string field,
                           const std::string& message)
    : std::runtime_error(
          (line > 0 ? "line " + std::to_string(line) + ": " : std::string()) +
          (field.empty() ? "" : "key '" + field + "': ") + message),
      line_(line),
      field_(std::move(field)) {}

SetDeclError::SetDeclError(Raw, int line, std::string field,
                           const std::string& what)
    : std::runtime_error(what), line_(line), field_(std::move(field)) {}

SetDeclError SetDeclError::with_prefix(const std::string& prefix,
                                       const SetDeclError& error) {
  return SetDeclError(Raw{}, error.line(), error.field(),
                      prefix + ": " + error.what());
}

SetDecl parse_set_decl(std::string_view text) {
  std::vector<Section> sections = lex_sections(text);
  SetDecl decl;

  // Top-level block.
  {
    Keys keys(sections.front());
    keys.apply("name", decl.name,
               [](const KeyValue& kv, const std::string& key) {
                 if (!valid_set_name(kv.value)) {
                   throw SetDeclError(kv.line, key,
                                      "set name must be non-empty "
                                      "[A-Za-z0-9._-]+, got '" + kv.value +
                                          "'");
                 }
                 return kv.value;
               });
    keys.apply("description", decl.description,
               [](const KeyValue& kv, const std::string&) { return kv.value; });
    bool components_only = false;
    if (keys.apply("components_only", components_only, to_bool)) {
      decl.set.components_only(components_only);
    }
    keys.finish();
    if (!sections.front().robots.empty()) {
      throw SetDeclError(sections.front().robots.front().line, "robot",
                         "'robot' lines belong in [gather.add] sections");
    }
  }

  bool any_section = false;
  bool grid_seen[5] = {false, false, false, false, false};
  for (std::size_t i = 1; i < sections.size(); ++i) {
    Section& section = sections[i];
    std::string family = section.header;
    bool add = false;
    const std::size_t dot = family.find('.');
    if (dot != std::string::npos) {
      const std::string suffix = family.substr(dot + 1);
      family = family.substr(0, dot);
      if (suffix != "add") {
        throw SetDeclError(section.line, "",
                           "unknown section [" + section.header +
                               "] (expected [family] or [family.add])");
      }
      add = true;
    }
    static const std::pair<const char*, Family> kFamilies[] = {
        {"rendezvous", Family::kRendezvous}, {"search", Family::kSearch},
        {"gather", Family::kGather},         {"linear", Family::kLinear},
        {"coverage", Family::kCoverage},
    };
    std::optional<Family> which;
    for (const auto& [name, value] : kFamilies) {
      if (family == name) which = value;
    }
    if (!which) {
      throw SetDeclError(section.line, "",
                         "unknown section [" + section.header +
                             "] (families: rendezvous search gather linear "
                             "coverage)");
    }
    if (!add) {
      bool& seen = grid_seen[static_cast<int>(*which)];
      if (seen) {
        throw SetDeclError(section.line, "",
                           "duplicate grid section [" + section.header +
                               "] (at most one per family)");
      }
      seen = true;
    }
    if (!add && !section.robots.empty() && *which != Family::kGather) {
      throw SetDeclError(section.robots.front().line, "robot",
                         "'robot' lines belong in [gather.add] sections");
    }
    if (add && !section.robots.empty() && *which != Family::kGather) {
      throw SetDeclError(section.robots.front().line, "robot",
                         "'robot' lines belong in [gather.add] sections");
    }
    switch (*which) {
      case Family::kRendezvous:
        apply_rendezvous(section, add, decl.set);
        break;
      case Family::kSearch:
        apply_search(section, add, decl.set);
        break;
      case Family::kGather:
        apply_gather(section, add, decl.set);
        break;
      case Family::kLinear:
        apply_linear(section, add, decl.set);
        break;
      case Family::kCoverage:
        apply_coverage(section, add, decl.set);
        break;
    }
    any_section = true;
  }
  if (!any_section) {
    throw SetDeclError(0, "",
                       "declaration has no scenario sections (expected at "
                       "least one [family] or [family.add] block)");
  }
  return decl;
}

SetDecl parse_set_decl_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SetDeclError(0, "", path.string() + ": cannot open file");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    throw SetDeclError(0, "", path.string() + ": read error");
  }
  try {
    SetDecl decl = parse_set_decl(buffer.str());
    if (decl.name.empty()) {
      const std::string stem = path.stem().string();
      if (!valid_set_name(stem)) {
        throw SetDeclError(0, "name",
                           "file stem '" + stem +
                               "' is not a valid set name; add a 'name = ...' "
                               "key ([A-Za-z0-9._-]+)");
      }
      decl.name = stem;
    }
    return decl;
  } catch (const SetDeclError& error) {
    throw SetDeclError::with_prefix(path.string(), error);
  }
}

std::vector<std::string> horizon_rule_names(Family family) {
  std::vector<std::string> names;
  switch (family) {
    case Family::kSearch:
      for (const auto& rule : kSearchHorizonRules) names.push_back(rule.name);
      break;
    case Family::kLinear:
      for (const auto& rule : kLinearHorizonRules) names.push_back(rule.name);
      break;
    case Family::kCoverage:
      for (const auto& rule : kCoverageHorizonRules) names.push_back(rule.name);
      break;
    case Family::kRendezvous:
    case Family::kGather:
      break;
  }
  return names;
}

std::vector<std::string> components_hook_names(Family family) {
  std::vector<std::string> names;
  switch (family) {
    case Family::kSearch:
      for (const auto& hook : kSearchComponentsHooks) names.push_back(hook.name);
      break;
    case Family::kLinear:
      for (const auto& hook : kLinearComponentsHooks) names.push_back(hook.name);
      break;
    case Family::kRendezvous:
    case Family::kGather:
    case Family::kCoverage:
      break;
  }
  return names;
}

}  // namespace rv::engine
