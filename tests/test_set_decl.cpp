// Tests for the `.rvset` declaration parser (engine/set_decl) and the
// built-in set registry (engine/set_registry): the embedded sets match
// the shipped files (same work items, same content keys, same labels)
// in the pinned display order, precise error reporting
// (line + key on every failure mode), the named hook registries, and
// file-level behaviours (stem-default names, path-prefixed errors).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/families.hpp"
#include "engine/scenario_set.hpp"
#include "engine/set_decl.hpp"
#include "engine/set_registry.hpp"

namespace {

namespace fs = std::filesystem;
using rv::engine::Family;
using rv::engine::SetDecl;
using rv::engine::SetDeclError;
using rv::engine::WorkItem;

/// Directory holding the shipped example declarations.
fs::path sets_dir() {
#ifdef RV_SETS_DIR
  return fs::path(RV_SETS_DIR);
#else
  return fs::path("examples/sets");
#endif
}

/// Fresh scratch directory per test, removed on destruction.
struct Scratch {
  fs::path path;
  Scratch() {
    path = fs::temp_directory_path() / "rv_set_decl_XXXXXX";
    std::string buffer = path.string();
    EXPECT_NE(mkdtemp(buffer.data()), nullptr);
    path = buffer;
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Two materialised work lists are "the same sweep" when they pair up
/// item by item on family, label, and content key — the key covers
/// every cacheable input, so equal keys mean equal outcomes (and equal
/// horizon-rule results, which feed the keyed fields).
void expect_same_work(const std::vector<WorkItem>& want,
                      const std::vector<WorkItem>& got,
                      const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].family, got[i].family) << context << " item " << i;
    EXPECT_EQ(want[i].label, got[i].label) << context << " item " << i;
    const auto want_key = rv::engine::cache_key(want[i]);
    const auto got_key = rv::engine::cache_key(got[i]);
    ASSERT_EQ(want_key.has_value(), got_key.has_value())
        << context << " item " << i;
    if (want_key.has_value()) {
      EXPECT_EQ(*want_key, *got_key) << context << " item " << i;
    }
  }
}

/// Parses `text` and returns the error, failing the test when it
/// unexpectedly parses.
SetDeclError parse_error(const std::string& text) {
  try {
    (void)rv::engine::parse_set_decl(text);
  } catch (const SetDeclError& error) {
    return error;
  }
  ADD_FAILURE() << "expected SetDeclError for:\n" << text;
  return SetDeclError(0, "", "did not throw");
}

TEST(SetRegistry, ServesTheShippedFilesInDisplayOrder) {
  const std::vector<std::string> order = {"rendezvous-grid", "search-ring",
                                          "gather-fleet", "linear-line",
                                          "coverage-disk"};
  ASSERT_EQ(rv::engine::builtin_set_names(), order);
  for (const std::string& name : order) {
    const SetDecl& decl = rv::engine::builtin_set(name);
    EXPECT_EQ(decl.name, name);
    const SetDecl file =
        rv::engine::parse_set_decl_file(sets_dir() / (name + ".rvset"));
    EXPECT_EQ(decl.description, file.description);
    expect_same_work(file.set.materialize_work(), decl.set.materialize_work(),
                     name);
    // Parsed once: every lookup returns the same declaration.
    EXPECT_EQ(&rv::engine::builtin_set(name), &decl);
  }
}

TEST(SetRegistry, UnknownNameListsTheAvailableSets) {
  try {
    (void)rv::engine::builtin_set("no-such-set");
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "unknown set 'no-such-set'; available: rendezvous-grid "
                 "search-ring gather-fleet linear-line coverage-disk");
  }
}

TEST(SetDeclParse, GridAndAddSectionsMaterializeInDeclarationOrder) {
  // Explicit adds come before the grid, in file order — the fixed
  // materialisation order of ScenarioSet.
  const SetDecl decl = rv::engine::parse_set_decl(
      "name = ordered\n"
      "[linear.add]\n"
      "label = first\n"
      "mode = linear-rendezvous\n"
      "target = 1.0\n"
      "[linear.add]\n"
      "label = second\n"
      "mode = zigzag-search\n"
      "target = 2.0\n"
      "[linear]\n"
      "mode = zigzag-search\n"
      "distances = 3.0 4.0\n");
  const std::vector<WorkItem> items = decl.set.materialize_work();
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].label, "first");
  EXPECT_EQ(items[1].label, "second");
  EXPECT_EQ(items[2].linear.target, 3.0);
  EXPECT_EQ(items[3].linear.target, 4.0);
}

TEST(SetDeclParse, CommentsBlankLinesAndPaddingAreIgnored) {
  const SetDecl decl = rv::engine::parse_set_decl(
      "# leading comment\n"
      "\n"
      "  name   =   padded-name  \n"
      "[search]\t\n"
      "  angles = 2\n"
      "\tdistances = 1.0\n"
      "# trailing comment\n");
  EXPECT_EQ(decl.name, "padded-name");
  ASSERT_EQ(decl.set.materialize_work().size(), 1u);
  EXPECT_EQ(decl.set.materialize_work()[0].search.angles, 2);
}

TEST(SetDeclParse, ComponentsHooksAttachToMaterializedItems) {
  const SetDecl decl = rv::engine::parse_set_decl(
      "[search]\n"
      "distances = 1.0\n"
      "components = guaranteed-rounds\n"
      "[linear]\n"
      "distances = 2.0\n"
      "components = zigzag-reach\n");
  const std::vector<WorkItem> items = decl.set.materialize_work();
  ASSERT_EQ(items.size(), 2u);
  for (const WorkItem& item : items) {
    EXPECT_TRUE(static_cast<bool>(item.components))
        << rv::engine::family_name(item.family);
  }
  // The search hook replicates the Lemma 2 closed forms.
  const rv::engine::Components values =
      items[0].components(rv::engine::RunRecord{});
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].name, "guaranteed_round");
  EXPECT_EQ(values[1].name, "round_time_bound");
}

TEST(SetDeclErrors, NameLineAndKeyOnEveryFailureMode) {
  struct Case {
    const char* what;
    const char* text;
    int line;
    const char* field;
  };
  const Case cases[] = {
      {"bare word", "name = x\njunk\n", 2, ""},
      {"empty key", "= value\n", 1, ""},
      {"empty value", "name =\n", 1, "name"},
      {"duplicate key", "[search]\nangles = 2\nangles = 3\n", 3, "angles"},
      {"unknown top-level key", "color = red\n[search]\ndistances = 1\n", 1,
       "color"},
      {"unknown section", "[warp]\nspeed = 9\n", 1, ""},
      {"unknown section suffix", "[search.grid]\ndistances = 1\n", 1, ""},
      {"duplicate grid section",
       "[search]\ndistances = 1\n[search]\ndistances = 2\n", 3, ""},
      {"bad number", "[search]\ndistances = fast\n", 2, "distances"},
      {"inf rejected", "[search]\ndistances = inf\n", 2, "distances"},
      {"hex rejected", "[search]\ndistances = 0x10\n", 2, "distances"},
      {"trailing junk", "[search]\ndistances = 1.0x\n", 2, "distances"},
      {"bad integer", "[search]\nangles = 2.5\ndistances = 1\n", 2, "angles"},
      {"bad bool", "components_only = yes\n[search]\ndistances = 1\n", 1,
       "components_only"},
      {"bad enum", "[search]\nprograms = warp-drive\n", 2, "programs"},
      {"bad algorithm", "[rendezvous]\nalgorithm = algorithm9\n"
                        "speeds = 1\n", 2, "algorithm"},
      {"bad mode", "[linear]\nmode = sideways\ndistances = 1\n", 2, "mode"},
      {"unknown key in section", "[search]\ndistances = 1\nwheels = 4\n", 3,
       "wheels"},
      {"axis-less grid", "[search]\nangles = 4\n", 1, ""},
      {"distances+offsets conflict",
       "[rendezvous]\ndistances = 1\noffsets = 1 0\n", 3, "offsets"},
      {"bad pair", "[rendezvous]\noffsets = 1 2 3\n", 2, "offsets"},
      {"unknown horizon rule",
       "[search]\ndistances = 1\nhorizon_rule = forever\n", 3,
       "horizon_rule"},
      {"unknown components hook",
       "[search]\ndistances = 1\ncomponents = everything\n", 3, "components"},
      {"robot outside gather.add", "[search]\nrobot = 1 1\ndistances = 1\n",
       2, "robot"},
      {"robot at top level", "robot = 1 1\n[search]\ndistances = 1\n", 1,
       "robot"},
      {"gather grid without sizes", "[gather]\nvisibility = 0.2\n", 1, ""},
      {"lone robot", "[gather.add]\nrobot = 1.0 1.0\n", 1, "robot"},
      {"malformed robot", "[gather.add]\nrobot = 1.0\nrobot = 1 1\n", 2,
       "robot"},
      {"bad set name", "name = bad name!\n[search]\ndistances = 1\n", 1,
       "name"},
      {"integer overflow", "[rendezvous]\nchiralities = 99999999999\n", 2,
       "chiralities"},
      {"control byte", "name = x\0y\n", 0, ""},  // text below, see NUL case
  };
  for (const Case& test : cases) {
    if (std::string(test.what) == "control byte") continue;  // handled below
    const SetDeclError error = parse_error(test.text);
    EXPECT_EQ(error.line(), test.line) << test.what << ": " << error.what();
    EXPECT_EQ(error.field(), test.field) << test.what << ": " << error.what();
  }
  // NUL bytes need an explicit length — a C literal would truncate.
  const std::string nul_text = std::string("name = x\0y\n[search]\n", 20);
  const SetDeclError nul_error = parse_error(nul_text);
  EXPECT_EQ(nul_error.line(), 1);
  // No sections at all is a file-level error (line 0).
  const SetDeclError empty_error = parse_error("name = lonely\n");
  EXPECT_EQ(empty_error.line(), 0);
  EXPECT_NE(std::string(empty_error.what()).find("no scenario sections"),
            std::string::npos);
}

TEST(SetDeclErrors, DuplicateKeyErrorNamesTheFirstOccurrence) {
  const SetDeclError error = parse_error(
      "[coverage]\nprograms = concentric\n# gap\nprograms = algorithm4\n");
  EXPECT_EQ(error.line(), 4);
  EXPECT_EQ(error.field(), "programs");
  EXPECT_NE(std::string(error.what()).find("first set on line 2"),
            std::string::npos);
}

TEST(SetDeclErrors, CoverageCheckpointsAreCapped) {
  // `checkpoints` sizes the coverage series, so a hostile file must not
  // be able to ask for an unbounded one: above the cap is a structured
  // error on the key's line, in the grid section and in `.add` alike.
  const std::string over =
      std::to_string(rv::analysis::kMaxCoverageCheckpoints + 1);
  for (const std::string section : {"[coverage]", "[coverage.add]"}) {
    const SetDeclError error = parse_error(
        section + "\ndisk_radius = 1\ncheckpoints = " + over + "\n");
    EXPECT_EQ(error.line(), 3) << section;
    EXPECT_EQ(error.field(), "checkpoints") << section;
    EXPECT_NE(std::string(error.what()).find("at most 65536"),
              std::string::npos)
        << error.what();
  }
  const SetDeclError huge =
      parse_error("[coverage]\ncheckpoints = 2000000000\nradii = 0.1\n");
  EXPECT_EQ(huge.line(), 2);
  EXPECT_EQ(huge.field(), "checkpoints");
  // The cap itself is accepted.
  const auto decl = rv::engine::parse_set_decl(
      "[coverage]\nradii = 0.1\ncheckpoints = " +
      std::to_string(rv::analysis::kMaxCoverageCheckpoints) + "\n");
  const auto items = decl.set.materialize_work();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].coverage.checkpoints,
            rv::analysis::kMaxCoverageCheckpoints);
}

TEST(SetDeclErrors, UnknownKeyErrorListsTheValidKeys) {
  const SetDeclError error =
      parse_error("[gather]\nsizes = 2 3\nwarp = 9\n");
  const std::string what = error.what();
  EXPECT_NE(what.find("[gather]"), std::string::npos) << what;
  EXPECT_NE(what.find("valid keys:"), std::string::npos) << what;
  EXPECT_NE(what.find("ring_radius"), std::string::npos) << what;
  EXPECT_NE(what.find("sizes"), std::string::npos) << what;
}

TEST(SetDeclRegistries, HookNamesMatchTheBuiltinLambdas) {
  using rv::engine::components_hook_names;
  using rv::engine::horizon_rule_names;
  EXPECT_EQ(horizon_rule_names(Family::kSearch),
            std::vector<std::string>{"guaranteed-rounds+1"});
  EXPECT_EQ(horizon_rule_names(Family::kLinear),
            std::vector<std::string>{"zigzag-reach+1"});
  EXPECT_EQ(horizon_rule_names(Family::kCoverage),
            std::vector<std::string>{"2x-guaranteed-rounds"});
  EXPECT_TRUE(horizon_rule_names(Family::kRendezvous).empty());
  EXPECT_TRUE(horizon_rule_names(Family::kGather).empty());
  EXPECT_EQ(components_hook_names(Family::kSearch),
            std::vector<std::string>{"guaranteed-rounds"});
  EXPECT_EQ(components_hook_names(Family::kLinear),
            std::vector<std::string>{"zigzag-reach"});
  EXPECT_TRUE(components_hook_names(Family::kCoverage).empty());
}

TEST(SetDeclFile, NameDefaultsToTheFileStem) {
  Scratch scratch;
  const fs::path file = scratch.path / "my-sweep.rvset";
  std::ofstream(file) << "[search]\ndistances = 1.0\n";
  const SetDecl decl = rv::engine::parse_set_decl_file(file);
  EXPECT_EQ(decl.name, "my-sweep");
  EXPECT_TRUE(decl.description.empty());
}

TEST(SetDeclFile, ErrorsArePrefixedWithThePathAndKeepTheLine) {
  Scratch scratch;
  const fs::path file = scratch.path / "broken.rvset";
  std::ofstream(file) << "[search]\ndistances = nope\n";
  try {
    (void)rv::engine::parse_set_decl_file(file);
    FAIL() << "expected SetDeclError";
  } catch (const SetDeclError& error) {
    EXPECT_EQ(error.line(), 2);
    EXPECT_EQ(error.field(), "distances");
    const std::string what = error.what();
    EXPECT_NE(what.find(file.string()), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
  EXPECT_THROW((void)rv::engine::parse_set_decl_file(scratch.path / "no.rvset"),
               SetDeclError);
}

}  // namespace
