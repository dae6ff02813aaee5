// Tests for the engine layer: the shared certified sweep, declarative
// scenario sets, the deterministic parallel runner, and structured
// result emission.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/coverage.hpp"
#include "engine/contact_sweep.hpp"
#include "engine/families.hpp"
#include "engine/runner.hpp"
#include "engine/scenario_set.hpp"
#include "gather/multi_simulator.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "mathx/constants.hpp"
#include "rendezvous/algorithm7.hpp"
#include "rendezvous/core.hpp"
#include "rendezvous/variants.hpp"
#include "search/algorithm4.hpp"
#include "search/times.hpp"
#include "sim/simulator.hpp"
#include "traj/path.hpp"
#include "traj/program.hpp"

namespace {

using namespace rv;
using rv::engine::ContactSweep;
using rv::engine::RobotSpec;
using rv::engine::SweepMetric;
using rv::engine::SweepOptions;
using rv::geom::RobotAttributes;
using rv::geom::Vec2;
using rv::traj::Path;
using rv::traj::PathProgram;
using rv::traj::StationaryProgram;

std::shared_ptr<rv::traj::Program> straight_line(const Vec2& to) {
  Path p;
  p.line_to(to);
  return std::make_shared<PathProgram>(p, "line");
}

// ---------------------------------------------------------------------------
// A strict (RFC 8259) JSON parser for an array of flat objects — just
// enough to prove the emitters produce *parseable* JSON.  Throws
// std::runtime_error on any violation: raw control characters inside
// strings, bare inf/nan tokens, malformed numbers, trailing garbage.
// Scalar values are returned as strings: string values unescaped,
// numbers/booleans/null as their raw token text.
// ---------------------------------------------------------------------------

class StrictJson {
 public:
  using Row = std::map<std::string, std::string>;

  static std::vector<Row> parse_rows(const std::string& text) {
    StrictJson p(text);
    p.skip_ws();
    std::vector<Row> rows = p.parse_array();
    p.skip_ws();
    if (p.pos_ != p.s_.size()) p.fail("trailing content");
    return rows;
  }

 private:
  explicit StrictJson(const std::string& s) : s_(s) {}

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("StrictJson: " + why + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= s_.size()) throw std::runtime_error("StrictJson: EOF");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  std::vector<Row> parse_array() {
    expect('[');
    std::vector<Row> rows;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return rows;
    }
    while (true) {
      skip_ws();
      rows.push_back(parse_object());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return rows;
    }
  }

  Row parse_object() {
    expect('{');
    Row row;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return row;
    }
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      row[key] = parse_scalar();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return row;
    }
  }

  std::string parse_scalar() {
    const char c = peek();
    if (c == '"') return parse_string();
    if (c == 't') return parse_literal("true");
    if (c == 'f') return parse_literal("false");
    if (c == 'n') return parse_literal("null");
    return parse_number();
  }

  std::string parse_literal(const std::string& lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) fail("bad literal");
    pos_ += lit.size();
    return lit;
  }

  std::string parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      fail("bad number");  // catches bare inf / nan
    }
    if (s_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (pos_ >= s_.size() ||
          !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        fail("bad fraction");
      }
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (pos_ >= s_.size() ||
          !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        fail("bad exponent");
      }
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    return s_.substr(start, pos_ - start);
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) fail("raw control character in string");
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) fail("dangling escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("short \\u escape");
            unsigned value = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_++];
              value <<= 4;
              if (h >= '0' && h <= '9') {
                value |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                value |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                value |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad \\u digit");
              }
            }
            if (value < 0x80) {
              out += static_cast<char>(value);
            } else {
              fail("non-ASCII \\u escape (not needed by the emitters)");
            }
            break;
          }
          default: fail("unknown escape");
        }
        continue;
      }
      out += static_cast<char>(c);
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// ContactSweep core
// ---------------------------------------------------------------------------

TEST(ContactSweep, HeadOnPairMatchesClosedForm) {
  std::vector<RobotSpec> robots;
  robots.push_back({straight_line({100.0, 0.0}), RobotAttributes{},
                    Vec2{0.0, 0.0}});
  robots.push_back({straight_line({-100.0, 0.0}), RobotAttributes{},
                    Vec2{10.0, 0.0}});
  SweepOptions opts;
  opts.visibility = 2.0;
  opts.max_time = 1e6;
  ContactSweep sweep(std::move(robots), SweepMetric::kMinPairwise, opts);
  const auto res = sweep.run();
  ASSERT_TRUE(res.event);
  EXPECT_NEAR(res.time, 4.0, 1e-7);
  EXPECT_EQ(res.pair_i, 0);
  EXPECT_EQ(res.pair_j, 1);
  ASSERT_EQ(res.positions.size(), 2u);
}

TEST(ContactSweep, AgreesExactlyWithTwoRobotSimulator) {
  // The adapter must be a pure repackaging: identical event time,
  // metric, eval and segment counts.
  auto specs = [] {
    std::vector<RobotSpec> robots;
    robots.push_back({rendezvous::make_rendezvous_program(),
                      RobotAttributes{}, Vec2{0.0, 0.0}});
    RobotAttributes fast;
    fast.speed = 2.0;
    robots.push_back({rendezvous::make_rendezvous_program(), fast,
                      Vec2{1.0, 0.0}});
    return robots;
  };
  sim::SimOptions opts;
  opts.visibility = 0.2;
  opts.max_time = 1e6;

  auto robots = specs();
  sim::TwoRobotSimulator two(robots[0], robots[1], opts);
  const sim::SimResult a = two.run();

  ContactSweep sweep(specs(), SweepMetric::kMinPairwise, opts);
  const auto b = sweep.run();

  ASSERT_EQ(a.met, b.event);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.distance, b.metric);
  EXPECT_EQ(a.min_distance, b.best_metric);
  EXPECT_EQ(a.evals, b.evals);
  EXPECT_EQ(a.segments, b.segments);
}

TEST(ContactSweep, Validation) {
  auto mk = [] {
    return RobotSpec{std::make_shared<StationaryProgram>(), RobotAttributes{},
                     Vec2{0.0, 0.0}};
  };
  std::vector<RobotSpec> one;
  one.push_back(mk());
  EXPECT_THROW(
      ContactSweep(std::move(one), SweepMetric::kMinPairwise, SweepOptions{}),
      std::invalid_argument);

  std::vector<RobotSpec> with_null;
  with_null.push_back(mk());
  with_null.push_back({nullptr, RobotAttributes{}, Vec2{1.0, 0.0}});
  EXPECT_THROW(ContactSweep(std::move(with_null), SweepMetric::kMinPairwise,
                            SweepOptions{}),
               std::invalid_argument);

  std::vector<RobotSpec> ok;
  ok.push_back(mk());
  ok.push_back(mk());
  SweepOptions bad;
  bad.visibility = -1.0;
  EXPECT_THROW(ContactSweep(std::move(ok), SweepMetric::kMinPairwise, bad),
               std::invalid_argument);
}

// The run_universal seed capture (the pre-refactor simulator pins)
// lives in tests/test_golden.cpp now, as the full-precision golden
// file tests/golden/engine/universal_cells.csv.

// ---------------------------------------------------------------------------
// ScenarioSet
// ---------------------------------------------------------------------------

TEST(ScenarioSet, GridCoversCrossProductInFixedOrder) {
  engine::ScenarioSet set;
  set.speeds({1.0, 2.0}).time_units({0.5, 1.0}).visibility(0.1);
  const auto cells = set.materialize_work();
  ASSERT_EQ(cells.size(), 4u);
  // speeds outermost, time_units next.
  EXPECT_EQ(cells[0].scenario.attrs.speed, 1.0);
  EXPECT_EQ(cells[0].scenario.attrs.time_unit, 0.5);
  EXPECT_EQ(cells[1].scenario.attrs.speed, 1.0);
  EXPECT_EQ(cells[1].scenario.attrs.time_unit, 1.0);
  EXPECT_EQ(cells[3].scenario.attrs.speed, 2.0);
  EXPECT_EQ(cells[3].scenario.attrs.time_unit, 1.0);
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.scenario.visibility, 0.1);
  }
}

TEST(ScenarioSet, ExplicitAddsPrecedeGridAndHooksApply) {
  rendezvous::Scenario special;
  special.attrs.speed = 9.0;
  engine::ScenarioSet set;
  set.add(special, "special")
      .speeds({1.0, 2.0, 3.0})
      .filter([](const rendezvous::Scenario& s) {
        return s.attrs.speed != 2.0;  // drop one grid cell
      })
      .horizon([](const rendezvous::Scenario& s) {
        return 100.0 * s.attrs.speed;
      })
      .label([](const rendezvous::Scenario& s) {
        return "v=" + std::to_string(static_cast<int>(s.attrs.speed));
      });
  const auto cells = set.materialize_work();
  ASSERT_EQ(cells.size(), 3u);  // special + v=1 + v=3
  EXPECT_EQ(cells[0].label, "special");
  EXPECT_EQ(cells[0].scenario.max_time, 900.0);  // horizon hook applies
  EXPECT_EQ(cells[1].label, "v=1");
  EXPECT_EQ(cells[1].scenario.max_time, 100.0);
  EXPECT_EQ(cells[2].label, "v=3");
}

TEST(ScenarioSet, DistancesSugarSetsOffsetsOnXAxis) {
  engine::ScenarioSet set;
  set.distances({2.0, 5.0});
  const auto cells = set.materialize_work();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].scenario.offset.x, 2.0);
  EXPECT_EQ(cells[0].scenario.offset.y, 0.0);
  EXPECT_EQ(cells[1].scenario.offset.x, 5.0);
}

// ---------------------------------------------------------------------------
// Runner determinism + emission
// ---------------------------------------------------------------------------

engine::ScenarioSet small_grid() {
  engine::ScenarioSet set;
  set.speeds({0.5, 1.0, 2.0})
      .time_units({0.5, 1.0})
      .chiralities({1, -1})
      .visibility(0.25)
      .algorithm(rendezvous::AlgorithmChoice::kAlgorithm7)
      .max_time(500.0)
      .label([](const rendezvous::Scenario& s) {
        std::string label = "v";
        label.append(io::format_double(s.attrs.speed, 3))
            .append("/t")
            .append(io::format_double(s.attrs.time_unit, 3))
            .append("/c")
            .append(std::to_string(s.attrs.chirality));
        return label;
      });
  return set;
}

TEST(Runner, OneVsManyThreadsEmitByteIdenticalResults) {
  const auto set = small_grid();
  engine::RunnerOptions seq;
  seq.threads = 1;
  engine::RunnerOptions par;
  par.threads = 4;
  const engine::ResultSet a = engine::run_scenarios(set, seq);
  const engine::ResultSet b = engine::run_scenarios(set, par);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 12u);
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_table().to_ascii(), b.to_table().to_ascii());
}

TEST(Runner, RecordsKeepScenarioOrderAndOutcomes) {
  engine::ScenarioSet set;
  rendezvous::Scenario fast;
  fast.attrs.speed = 2.0;
  fast.visibility = 0.2;
  fast.max_time = 1e6;
  rendezvous::Scenario infeasible;  // identical robots never meet
  infeasible.visibility = 0.2;
  infeasible.max_time = 200.0;
  set.add(fast, "fast").add(infeasible, "identical");
  const auto results = engine::run_scenarios(set);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].label, "fast");
  EXPECT_TRUE(results[0].outcome.sim.met);
  EXPECT_EQ(results[1].label, "identical");
  EXPECT_FALSE(results[1].outcome.sim.met);
  EXPECT_FALSE(rendezvous::is_feasible(results[1].outcome.feasibility));
  EXPECT_FALSE(results.all_met());
}

TEST(ResultSet, CsvHasHeaderLabelAndExtras) {
  engine::ScenarioSet set;
  rendezvous::Scenario s;
  s.attrs.speed = 2.0;
  s.visibility = 0.2;
  s.max_time = 1e6;
  set.add(s, "case-a");
  const auto results = engine::run_scenarios(set);
  const std::vector<engine::Column> extras{
      {"twice_time", [](const engine::RunRecord& rec) {
         return io::format_double(2.0 * rec.outcome.sim.time);
       }}};
  const auto header = results.csv_header(extras);
  ASSERT_FALSE(header.empty());
  EXPECT_EQ(header.front(), "label");
  EXPECT_EQ(header.back(), "twice_time");
  const auto rows = results.csv_rows(extras);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), header.size());
  EXPECT_EQ(rows[0].front(), "case-a");
  // CSV string parses back to the same grid.
  const auto parsed = io::parse_csv(results.to_csv(extras));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], header);
  EXPECT_EQ(parsed[1], rows[0]);
}

TEST(ResultSet, JsonIsWellFormedEnoughToRoundTripKeys) {
  const auto results = engine::run_scenarios(small_grid());
  const std::string json = results.to_json();
  EXPECT_EQ(json.front(), '[');
  // One object per record.
  std::size_t count = 0;
  for (std::size_t pos = json.find("\"met\""); pos != std::string::npos;
       pos = json.find("\"met\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, results.size());
}

// ---------------------------------------------------------------------------
// Certified event reporting: pair/metric/positions must be mutually
// consistent at the *bisected* event time, not at the detection
// evaluation (regression for the stale-pair bug).
// ---------------------------------------------------------------------------

TEST(ContactSweep, MaxPairwiseBisectionReportsPairAtCertifiedTime) {
  // Collinear construction.  A walks right from 0 (x_A = t), B walks
  // left from 5.3 (x_B = 5.3 − t), C sits at 3.4.  Pairwise distances:
  //   AB = |5.3 − 2t|   (≤ 1 on [2.15, 3.25], 0 at t = 2.65)
  //   AC = |3.4 − t|    (≤ 1 from t = 2.4 — the *binding* pair)
  //   BC = |1.9 − t|    (≤ 1 on [0.9, 2.9])
  // The max-pairwise event (all pairs within r = 1) starts at t = 2.4
  // with AC the extremal pair.  The sweep's first certified step lands
  // at t = 2.15 (metric 1.25); with min_step = 0.65 the Zeno guard then
  // forces the next evaluation to t = 2.8, *inside* the event window,
  // where the extremal pair is BC (0.9) — not AC.  Bisection certifies
  // the crossing back at t = 2.4, so the reported pair must be AC at
  // the certified time, not the stale detection pair BC.
  std::vector<RobotSpec> robots;
  robots.push_back({straight_line({10.0, 0.0}), RobotAttributes{},
                    Vec2{0.0, 0.0}});
  robots.push_back({straight_line({-10.0, 0.0}), RobotAttributes{},
                    Vec2{5.3, 0.0}});
  robots.push_back({std::make_shared<StationaryProgram>(), RobotAttributes{},
                    Vec2{3.4, 0.0}});
  SweepOptions opts;
  opts.visibility = 1.0;
  opts.max_time = 1e3;
  opts.min_step = 0.65;
  ContactSweep sweep(std::move(robots), SweepMetric::kMaxPairwise, opts);
  const auto res = sweep.run();
  ASSERT_TRUE(res.event);
  EXPECT_NEAR(res.time, 2.4, 1e-6);
  EXPECT_NEAR(res.metric, 1.0, 1e-6);
  // The reported pair is the one extremal at the certified time...
  EXPECT_EQ(res.pair_i, 0);
  EXPECT_EQ(res.pair_j, 2);
  // ...and pair/metric/positions agree exactly.
  ASSERT_EQ(res.positions.size(), 3u);
  double worst = 0.0;
  int wi = -1, wj = -1;
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) {
      const double d = geom::distance(res.positions[i], res.positions[j]);
      if (d > worst) {
        worst = d;
        wi = i;
        wj = j;
      }
    }
  }
  EXPECT_EQ(res.metric, worst);
  EXPECT_EQ(res.pair_i, wi);
  EXPECT_EQ(res.pair_j, wj);
}

TEST(ContactSweep, CoincidentRobotsStillReportAPair) {
  // Degenerate all-zero distances: the max-pairwise event fires at
  // t = 0 with metric 0, and the extremal pair must still be set (the
  // first pair in scan order), not left at -1.
  std::vector<RobotSpec> robots;
  for (int i = 0; i < 3; ++i) {
    robots.push_back({std::make_shared<StationaryProgram>(), RobotAttributes{},
                      Vec2{1.0, 1.0}});
  }
  SweepOptions opts;
  opts.visibility = 0.1;
  opts.max_time = 10.0;
  ContactSweep sweep(std::move(robots), SweepMetric::kMaxPairwise, opts);
  const auto res = sweep.run();
  ASSERT_TRUE(res.event);
  EXPECT_EQ(res.time, 0.0);
  EXPECT_EQ(res.metric, 0.0);
  EXPECT_EQ(res.pair_i, 0);
  EXPECT_EQ(res.pair_j, 1);
}

TEST(ContactSweep, HorizonReportReportsExtremalPairConsistently) {
  // Three identical robots on a unit ring never gather: at the horizon
  // the report must still carry a pair consistent with the returned
  // positions/metric (it used to stay at -1).
  std::vector<RobotSpec> robots;
  for (int i = 0; i < 3; ++i) {
    robots.push_back({rendezvous::make_rendezvous_program(),
                      RobotAttributes{},
                      geom::polar(1.0, 2.0 * mathx::kPi * i / 3.0)});
  }
  SweepOptions opts;
  opts.visibility = 0.05;
  opts.max_time = 50.0;
  ContactSweep sweep(std::move(robots), SweepMetric::kMaxPairwise, opts);
  const auto res = sweep.run();
  ASSERT_FALSE(res.event);
  ASSERT_EQ(res.positions.size(), 3u);
  ASSERT_GE(res.pair_i, 0);
  ASSERT_GT(res.pair_j, res.pair_i);
  EXPECT_EQ(res.metric, geom::distance(res.positions[res.pair_i],
                                       res.positions[res.pair_j]));
}

TEST(Runner, AdapterParityGatherVsTwoRobot) {
  // A 2-robot gather in first-contact mode and the two-robot simulator
  // must report the same event through their shared engine core.
  sim::SimOptions opts;
  opts.visibility = 0.2;
  opts.max_time = 1e6;
  const auto factory =
      rendezvous::program_factory(rendezvous::AlgorithmChoice::kAlgorithm7);
  RobotAttributes fast;
  fast.speed = 2.0;

  const auto two = sim::simulate_rendezvous(factory, fast, {1.0, 0.0}, opts);

  gather::GatherOptions gopts;
  gopts.sweep = opts;
  gopts.mode = gather::GatherMode::kFirstContact;
  const auto multi = gather::simulate_gathering(
      factory, {RobotAttributes{}, fast}, {{0.0, 0.0}, {1.0, 0.0}}, gopts);

  ASSERT_TRUE(two.met);
  ASSERT_TRUE(multi.achieved);
  EXPECT_EQ(two.time, multi.time);
  EXPECT_EQ(two.evals, multi.evals);
}

// ---------------------------------------------------------------------------
// Strict JSON / CSV emission round trips (hostile labels, non-finite
// fields) — regression for the raw-control-character and bare-inf/nan
// bugs in ResultSet::to_json.
// ---------------------------------------------------------------------------

engine::ResultSet hostile_result_set() {
  engine::RunRecord rec;
  rec.family = engine::Family::kRendezvous;
  rec.label = std::string("evil \x01\x02\b\f\"back\\slash\",\nnewline\tend");
  rec.scenario.attrs.speed = 2.0;
  rec.scenario.visibility = 0.25;
  rec.outcome.initial_distance = 1.0;
  rec.outcome.algorithm_name = "algo\fname";
  rec.outcome.sim.met = false;
  rec.outcome.sim.time = std::numeric_limits<double>::infinity();
  rec.outcome.sim.distance = std::numeric_limits<double>::quiet_NaN();
  rec.outcome.sim.min_distance = 0.5;
  return engine::ResultSet({rec});
}

TEST(ResultSet, JsonEscapesControlCharactersAndNullsNonFinite) {
  const engine::ResultSet results = hostile_result_set();
  const std::string json = results.to_json(
      {{"weird\x1f" "col", [](const engine::RunRecord&) {
          return std::string("cell with \x7f and \x02 ctl");
        }}});
  // Must parse as strict JSON...
  std::vector<StrictJson::Row> rows;
  ASSERT_NO_THROW(rows = StrictJson::parse_rows(json)) << json;
  ASSERT_EQ(rows.size(), 1u);
  // ...the hostile label round-trips exactly...
  EXPECT_EQ(rows[0].at("label"), results[0].label);
  EXPECT_EQ(rows[0].at("algorithm"), "algo\fname");
  EXPECT_EQ(rows[0].at("weird\x1f" "col"), "cell with \x7f and \x02 ctl");
  // ...and non-finite numbers are emitted as null, not bare inf/nan.
  EXPECT_EQ(rows[0].at("time"), "null");
  EXPECT_EQ(rows[0].at("distance"), "null");
  EXPECT_EQ(rows[0].at("min_distance"), "0.5");
  EXPECT_EQ(rows[0].at("met"), "false");
}

TEST(ResultSet, CsvRoundTripsHostileLabels) {
  const engine::ResultSet results = hostile_result_set();
  const auto parsed = io::parse_csv(results.to_csv());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], results.csv_header());
  EXPECT_EQ(parsed[1].front(), results[0].label);  // quotes/commas/newlines
}

TEST(ResultSet, RealSweepJsonIsStrictlyParseable) {
  const auto results = engine::run_scenarios(small_grid());
  std::vector<StrictJson::Row> rows;
  ASSERT_NO_THROW(rows = StrictJson::parse_rows(results.to_json()));
  ASSERT_EQ(rows.size(), results.size());
  EXPECT_EQ(rows[0].at("algorithm"), "algorithm7");
}

// ---------------------------------------------------------------------------
// Workload families: search cells (engine-side worst-over-angles
// reducer), gather cells, mixed sets, per-family emission.
// ---------------------------------------------------------------------------

TEST(Families, SearchGridMaterializesAndReduces) {
  engine::SearchCell base;
  base.angles = 4;
  base.angle_offset = 0.03;
  engine::ScenarioSet set;
  set.search_base(base)
      .search_distances({1.0})
      .search_radii({0.5, 0.25})
      .search_horizon([](const engine::SearchCell& c) {
        return rv::search::theorem1_bound(c.distance, c.visibility) + 1.0;
      });
  const auto results = engine::run_scenarios(set);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results.all_met());
  for (const engine::RunRecord& rec : results) {
    EXPECT_EQ(rec.family, engine::Family::kSearch);
    const engine::SearchOutcome& out = rec.search_outcome;
    EXPECT_EQ(out.found, 4);
    EXPECT_EQ(out.missed, 0);
    EXPECT_TRUE(out.complete);
    EXPECT_GE(out.worst_time, out.mean_time);
    EXPECT_EQ(out.program_name, "algorithm4");
  }
  // Per-family standard columns + strict JSON.
  const auto header = results.csv_header();
  EXPECT_EQ(header.front(), "d");
  EXPECT_EQ(header.back(), "segments");
  std::vector<StrictJson::Row> rows;
  ASSERT_NO_THROW(rows = StrictJson::parse_rows(results.to_json()));
  EXPECT_EQ(rows[0].at("found"), "4");
  EXPECT_EQ(rows[0].at("program"), "algorithm4");
}

TEST(Families, GatherCellRunsBothSweeps) {
  engine::GatherCell cell;
  cell.fleet = {RobotAttributes{}, [] {
                  RobotAttributes a;
                  a.speed = 2.0;
                  return a;
                }()};
  cell.ring_radius = 0.5;
  cell.visibility = 0.2;
  cell.contact_max_time = 1e5;
  cell.gather_max_time = 1e5;
  engine::ScenarioSet set;
  set.add_gather(cell, "pair");
  const auto results = engine::run_scenarios(set);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].family, engine::Family::kGather);
  const engine::GatherOutcome& out = results[0].gather_outcome;
  // Two robots: first contact and all-pairs coincide.
  ASSERT_TRUE(out.contact.achieved);
  ASSERT_TRUE(out.gathered.achieved);
  EXPECT_EQ(out.contact.time, out.gathered.time);
  std::vector<StrictJson::Row> rows;
  ASSERT_NO_THROW(rows = StrictJson::parse_rows(results.to_json()));
  EXPECT_EQ(rows[0].at("n"), "2");
  EXPECT_EQ(rows[0].at("contact"), "true");
}

TEST(Families, GatherSizeGridUsesFleetBuilderAndRing) {
  engine::GatherCell base;
  base.ring_radius = 2.0;
  base.contact_max_time = 10.0;
  base.gather_max_time = 10.0;
  engine::ScenarioSet set;
  set.gather_base(base).gather_sizes({2, 3, 4}).gather_label(
      [](const engine::GatherCell& c) {
        return "n=" + std::to_string(c.fleet.size());
      });
  const auto work = set.materialize_work();
  ASSERT_EQ(work.size(), 3u);
  EXPECT_EQ(work[0].gather.fleet.size(), 2u);
  EXPECT_EQ(work[2].gather.fleet.size(), 4u);
  EXPECT_EQ(work[1].label, "n=3");
  // Ring placement: robot 0 of every cell sits at (radius, 0).
  const auto origin0 = engine::gather_origin(work[1].gather, 0);
  EXPECT_NEAR(origin0.x, 2.0, 1e-12);
  EXPECT_NEAR(origin0.y, 0.0, 1e-12);
}

TEST(Families, MixedSetsRunTogetherAndEmitPerFamily) {
  engine::ScenarioSet set;
  rendezvous::Scenario fast;
  fast.attrs.speed = 2.0;
  fast.visibility = 0.2;
  fast.max_time = 1e6;
  set.add(fast, "rdv");
  engine::SearchCell cell;
  cell.distance = 1.0;
  cell.visibility = 0.5;
  cell.angles = 2;
  cell.angle_offset = 0.03;
  cell.max_time = 1e4;
  set.add_search(cell, "srch");
  engine::GatherCell gcell;
  gcell.fleet = {RobotAttributes{}, fast.attrs};
  gcell.ring_radius = 0.5;
  gcell.contact_max_time = 1e4;
  gcell.gather_max_time = 1e4;
  set.add_gather(gcell, "gthr");

  const auto results = engine::run_scenarios(set);
  ASSERT_EQ(results.size(), 3u);
  // Materialisation order: rendezvous, search, gather.
  EXPECT_EQ(results[0].family, engine::Family::kRendezvous);
  EXPECT_EQ(results[1].family, engine::Family::kSearch);
  EXPECT_EQ(results[2].family, engine::Family::kGather);
  // Mixed emission is rejected; per-family views emit fine.
  EXPECT_THROW((void)results.to_csv(), std::logic_error);
  EXPECT_THROW((void)results.to_json(), std::logic_error);
  for (const auto family :
       {engine::Family::kRendezvous, engine::Family::kSearch,
        engine::Family::kGather}) {
    const auto view = results.filtered(family);
    ASSERT_EQ(view.size(), 1u);
    EXPECT_NO_THROW((void)StrictJson::parse_rows(view.to_json()));
    EXPECT_EQ(io::parse_csv(view.to_csv()).size(), 2u);
  }
}

TEST(Families, ThreadCountDoesNotChangeFamilyEmission) {
  engine::SearchCell base;
  base.angles = 3;
  base.angle_offset = 0.07;
  base.max_time = 1e4;
  engine::ScenarioSet set;
  set.search_base(base).search_distances({1.0, 2.0}).search_radii({0.5, 0.25});
  engine::RunnerOptions seq;
  seq.threads = 1;
  engine::RunnerOptions par;
  par.threads = 4;
  const auto a = engine::run_scenarios(set, seq);
  const auto b = engine::run_scenarios(set, par);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_table().to_ascii(), b.to_table().to_ascii());
}

// The ported-bench pins (E1/E9/X1/A1 declarations vs the pre-port
// hand-rolled loops, and the new linear/coverage/component pins) live
// in tests/test_golden.cpp on the golden harness, and the full bench
// binaries are pinned byte-for-byte in tests/test_golden_benches.cpp.

// ---------------------------------------------------------------------------
// Scenario result cache
// ---------------------------------------------------------------------------

TEST(ScenarioCache, IdenticalOutputWithCacheOnAndOffAndCountersExercised) {
  // A mixed-family set with deliberate duplicates: the rendezvous grid
  // contains two cells, one of which is also added explicitly, and the
  // same gather cell is declared twice under different labels (labels
  // are not part of the content key).
  auto declare = [] {
    engine::ScenarioSet set;
    set.speeds({1.0, 2.0})
        .visibility(0.25)
        .algorithm(rendezvous::AlgorithmChoice::kAlgorithm7)
        .max_time(2e3)
        .label([](const rendezvous::Scenario& s) {
          return "v=" + io::format_double(s.attrs.speed);
        });
    rendezvous::Scenario dup;
    dup.attrs.speed = 2.0;
    dup.offset = {1.0, 0.0};
    dup.visibility = 0.25;
    dup.max_time = 2e3;
    set.add(dup, "explicit twin");
    return set;
  };
  auto gather_twice = [] {
    engine::ScenarioSet set;
    engine::GatherCell cell;
    cell.fleet = {RobotAttributes{}, RobotAttributes{}, RobotAttributes{}};
    cell.visibility = 0.2;
    cell.contact_max_time = 1e3;
    cell.gather_max_time = 1e3;
    set.add_gather(cell, "first");
    set.add_gather(cell, "second");
    return set;
  };

  engine::ScenarioCache cache;
  engine::RunnerOptions with_cache;
  with_cache.cache = &cache;
  with_cache.threads = 1;  // deterministic hit/miss split for the twin

  const auto plain = engine::run_scenarios(declare());
  const auto cached = engine::run_scenarios(declare(), with_cache);
  EXPECT_EQ(plain.cache_stats().hits, 0u);
  EXPECT_EQ(plain.cache_stats().misses, 0u);
  // 3 items, one duplicated: 2 misses + 1 hit (single worker thread
  // guarantees the twin sees the stored entry; with more threads the
  // duplicate could race to a miss, which is also correct).
  EXPECT_EQ(cached.cache_stats().hits + cached.cache_stats().misses, 3u);
  EXPECT_GE(cached.cache_stats().hits, 1u);
  EXPECT_EQ(cached.cache_stats().uncacheable, 0u);
  EXPECT_EQ(plain.to_csv(), cached.to_csv());
  EXPECT_EQ(plain.to_json(), cached.to_json());

  // A repeated run against the same cache replays everything.
  const auto replay = engine::run_scenarios(declare(), with_cache);
  EXPECT_EQ(replay.cache_stats().hits, 3u);
  EXPECT_EQ(replay.cache_stats().misses, 0u);
  EXPECT_EQ(plain.to_csv(), replay.to_csv());

  // Gather duplicates share one computation; outputs stay identical.
  engine::ScenarioCache gcache;
  engine::RunnerOptions gopts;
  gopts.cache = &gcache;
  gopts.threads = 1;
  const auto gplain = engine::run_scenarios(gather_twice());
  const auto gcached = engine::run_scenarios(gather_twice(), gopts);
  EXPECT_EQ(gcached.cache_stats().hits + gcached.cache_stats().misses, 2u);
  EXPECT_EQ(gcache.size(), 1u);
  EXPECT_EQ(gplain.to_csv(), gcached.to_csv());
  // filtered() carries the producing run's counters through.
  EXPECT_EQ(gcached.filtered(engine::Family::kGather).cache_stats().hits,
            gcached.cache_stats().hits);
}

TEST(ScenarioCache, SearchCellsDifferingOnlyInProgramNameDoNotCollide) {
  // run_search_cell echoes a non-empty program_name into the reported
  // outcome even when no custom factory is set, so the name must be
  // part of the content key: two cells identical except for it must
  // not share a cache entry (regression: the second cell used to
  // replay the first's program column).
  auto declare = [] {
    engine::ScenarioSet set;
    engine::SearchCell cell;
    cell.distance = 1.0;
    cell.visibility = 0.25;
    cell.angles = 2;
    cell.max_time = 1e4;
    set.add_search(cell);
    cell.program_name = "display-name";
    set.add_search(cell);
    return set;
  };
  engine::ScenarioCache cache;
  engine::RunnerOptions opts;
  opts.cache = &cache;
  opts.threads = 1;
  const auto plain = engine::run_scenarios(declare());
  const auto cached = engine::run_scenarios(declare(), opts);
  EXPECT_EQ(cached.cache_stats().misses, 2u);
  EXPECT_EQ(cached.cache_stats().hits, 0u);
  EXPECT_EQ(cached[0].search_outcome.program_name, "algorithm4");
  EXPECT_EQ(cached[1].search_outcome.program_name, "display-name");
  EXPECT_EQ(plain.to_csv(), cached.to_csv());
  const auto replay = engine::run_scenarios(declare(), opts);
  EXPECT_EQ(replay.cache_stats().hits, 2u);
  EXPECT_EQ(plain.to_csv(), replay.to_csv());
}

TEST(ScenarioCache, AnonymousCustomProgramsAreUncacheable) {
  engine::ScenarioSet set;
  rendezvous::Scenario s;
  s.attrs.time_unit = 0.5;
  s.offset = {1.0, 0.0};
  s.visibility = 0.1;
  s.max_time = 5e6;
  s.program = [] {
    return rendezvous::make_variant_rendezvous_program(
        rendezvous::ActivePhaseOrder::kForwardThenReverse);
  };
  // No program_name: the factory has no stable identity, so the item
  // must bypass the cache entirely (recomputed every run, never
  // stored).
  set.add(s);
  engine::ScenarioCache cache;
  engine::RunnerOptions opts;
  opts.cache = &cache;
  const auto first = engine::run_scenarios(set, opts);
  const auto second = engine::run_scenarios(set, opts);
  EXPECT_EQ(first.cache_stats().uncacheable, 1u);
  EXPECT_EQ(second.cache_stats().uncacheable, 1u);
  EXPECT_EQ(second.cache_stats().hits, 0u);
  EXPECT_EQ(cache.size(), 0u);
  // Naming the program makes the same cell cacheable.
  s.program_name = "variant-fwd-rev";
  engine::ScenarioSet named;
  named.add(s);
  const auto third = engine::run_scenarios(named, opts);
  EXPECT_EQ(third.cache_stats().misses, 1u);
  const auto fourth = engine::run_scenarios(named, opts);
  EXPECT_EQ(fourth.cache_stats().hits, 1u);
  EXPECT_EQ(first.to_csv(), second.to_csv());
  EXPECT_EQ(third.to_csv(), fourth.to_csv());
}

// ---------------------------------------------------------------------------
// Linear family: 1-D zigzag search and linear rendezvous cells.
// ---------------------------------------------------------------------------

TEST(Families, LinearCellsRunBothModes) {
  engine::ScenarioSet set;
  // Zigzag search reaches targets on both sides of the origin.
  engine::LinearCell search_cell;
  search_cell.mode = engine::LinearMode::kZigZagSearch;
  search_cell.target = -3.0;
  search_cell.visibility = 0.01;
  search_cell.max_time = 1e3;
  set.add_linear(search_cell, "left");
  // Feasible (clock difference) and infeasible (identical robots)
  // rendezvous cells.
  engine::LinearCell feasible_cell;
  feasible_cell.mode = engine::LinearMode::kRendezvous;
  feasible_cell.attrs.time_unit = 0.5;
  feasible_cell.visibility = 0.1;
  feasible_cell.max_time = 1e6;
  set.add_linear(feasible_cell, "tau");
  engine::LinearCell identical_cell;
  identical_cell.mode = engine::LinearMode::kRendezvous;
  identical_cell.visibility = 0.1;
  identical_cell.max_time = 1e3;
  set.add_linear(identical_cell, "identical");

  const auto results = engine::run_scenarios(set);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].family, engine::Family::kLinear);
  EXPECT_TRUE(results[0].linear_outcome.feasible);
  EXPECT_TRUE(results[0].linear_outcome.sim.met);
  EXPECT_TRUE(results[1].linear_outcome.feasible);
  EXPECT_TRUE(results[1].linear_outcome.sim.met);
  // Identical robots on the line never meet — the [11] feasibility
  // predicate and the simulation agree.
  EXPECT_FALSE(results[2].linear_outcome.feasible);
  EXPECT_FALSE(results[2].linear_outcome.sim.met);
  EXPECT_FALSE(results.all_met());

  // Per-family standard columns + strict JSON.
  const auto header = results.csv_header();
  EXPECT_EQ(header.front(), "label");
  EXPECT_EQ(header[1], "mode");
  std::vector<StrictJson::Row> rows;
  ASSERT_NO_THROW(rows = StrictJson::parse_rows(results.to_json()));
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].at("mode"), "zigzag-search");
  EXPECT_EQ(rows[1].at("mode"), "linear-rendezvous");
  EXPECT_EQ(rows[2].at("met"), "false");
}

TEST(Families, LinearGridMaterializesWithHooks) {
  engine::LinearCell base;
  base.mode = engine::LinearMode::kZigZagSearch;
  engine::ScenarioSet set;
  set.linear_base(base)
      .linear_distances({1.0, 2.0, 4.0})
      .linear_radii({0.1, 0.2})
      .linear_filter(
          [](const engine::LinearCell& c) { return c.target != 2.0; })
      .linear_horizon([](const engine::LinearCell& c) {
        return 100.0 * c.target;
      })
      .linear_label([](const engine::LinearCell& c) {
        return "d=" + io::format_double(c.target);
      });
  const auto work = set.materialize_work();
  ASSERT_EQ(work.size(), 4u);  // (3 − 1 filtered) distances × 2 radii
  EXPECT_EQ(work[0].family, engine::Family::kLinear);
  EXPECT_EQ(work[0].linear.target, 1.0);
  EXPECT_EQ(work[0].linear.visibility, 0.1);
  EXPECT_EQ(work[1].linear.visibility, 0.2);
  EXPECT_EQ(work[0].linear.max_time, 100.0);
  EXPECT_EQ(work[2].linear.target, 4.0);
  EXPECT_EQ(work[2].label, "d=4");
}

// ---------------------------------------------------------------------------
// Coverage family: rasterised swept-area cells.
// ---------------------------------------------------------------------------

engine::ScenarioSet small_coverage_grid() {
  engine::CoverageCell base;
  base.disk_radius = 1.0;
  base.visibility = 0.25;
  base.cell = 0.1;
  base.checkpoints = 6;
  base.horizon = 60.0;
  engine::ScenarioSet set;
  set.coverage_base(base).coverage_programs(
      {engine::SearchProgram::kAlgorithm4,
       engine::SearchProgram::kConcentric});
  return set;
}

TEST(Families, CoverageCellsMeasureSweptArea) {
  const auto results = engine::run_scenarios(small_coverage_grid());
  ASSERT_EQ(results.size(), 2u);
  for (const engine::RunRecord& rec : results) {
    EXPECT_EQ(rec.family, engine::Family::kCoverage);
    const engine::CoverageOutcome& out = rec.coverage_outcome;
    ASSERT_EQ(out.series.size(), 6u);
    // Coverage is monotone in time and the summary fields agree with
    // the series.
    for (std::size_t i = 1; i < out.series.size(); ++i) {
      EXPECT_GE(out.series[i].fraction, out.series[i - 1].fraction);
      EXPECT_GE(out.series[i].covered_area, out.series[i - 1].covered_area);
    }
    EXPECT_EQ(out.final_fraction, out.series.back().fraction);
    EXPECT_EQ(out.covered_area, out.series.back().covered_area);
    EXPECT_EQ(out.t50, analysis::time_to_fraction(out.series, 0.50));
    EXPECT_GT(out.final_fraction, 0.5);  // generous horizon for R = 1
  }
  EXPECT_EQ(results[0].coverage_outcome.program_name, "algorithm4");
  EXPECT_EQ(results[1].coverage_outcome.program_name, "baseline-concentric");
  // Standard columns + strict JSON.
  const auto header = results.csv_header();
  EXPECT_EQ(header.front(), "program");
  EXPECT_EQ(header.back(), "covered_area");
  std::vector<StrictJson::Row> rows;
  ASSERT_NO_THROW(rows = StrictJson::parse_rows(results.to_json()));
  EXPECT_EQ(rows[0].at("checkpoints"), "6");
}

TEST(Families, LinearAndCoverageThreadCountDoesNotChangeEmission) {
  engine::LinearCell base;
  base.mode = engine::LinearMode::kZigZagSearch;
  base.visibility = 0.05;
  base.max_time = 1e3;
  engine::ScenarioSet set;
  set.linear_base(base).linear_distances({1.0, 2.0, 3.0}).linear_radii(
      {0.05, 0.1});
  engine::ScenarioSet cov = small_coverage_grid();

  engine::RunnerOptions seq;
  seq.threads = 1;
  engine::RunnerOptions par;
  par.threads = 4;
  for (const engine::ScenarioSet* s : {&set, &cov}) {
    const auto a = engine::run_scenarios(*s, seq);
    const auto b = engine::run_scenarios(*s, par);
    EXPECT_EQ(a.to_csv(), b.to_csv());
    EXPECT_EQ(a.to_json(), b.to_json());
    EXPECT_EQ(a.to_table().to_ascii(), b.to_table().to_ascii());
  }
}

// ---------------------------------------------------------------------------
// Component-times hook.
// ---------------------------------------------------------------------------

TEST(Components, HookColumnsEmitAcrossAllFormats) {
  engine::SearchCell cell;
  cell.distance = 1.0;
  cell.visibility = 0.5;
  cell.angles = 2;
  cell.angle_offset = 0.03;
  cell.max_time = 1e4;
  engine::ScenarioSet set;
  set.add_search(cell, "hooked")
      .search_components([](const engine::SearchCell& c,
                            const engine::SearchOutcome& out) {
        return engine::Components{{"twice_d", 2.0 * c.distance},
                                  {"worst_sq", out.worst_time * out.worst_time}};
      });
  const auto results = engine::run_scenarios(set);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].components.size(), 2u);
  EXPECT_EQ(engine::component_value(results[0].components, "twice_d"), 2.0);
  EXPECT_THROW(
      (void)engine::component_value(results[0].components, "missing"),
      std::out_of_range);

  // CSV: component columns sit between the standard columns and extras.
  const std::vector<engine::Column> extras{
      {"extra", [](const engine::RunRecord&) { return std::string("x"); }}};
  const auto header = results.csv_header(extras);
  ASSERT_GE(header.size(), 3u);
  EXPECT_EQ(header[header.size() - 3], "twice_d");
  EXPECT_EQ(header[header.size() - 2], "worst_sq");
  EXPECT_EQ(header.back(), "extra");
  const auto rows = results.csv_rows(extras);
  EXPECT_EQ(rows[0][header.size() - 3], io::format_double(2.0));
  // JSON: components are numeric fields, strictly parseable.
  std::vector<StrictJson::Row> json;
  ASSERT_NO_THROW(json = StrictJson::parse_rows(results.to_json()));
  EXPECT_EQ(json[0].at("twice_d"), "2");
  // Table: one column per component.
  EXPECT_NE(results.to_table().to_ascii().find("worst_sq"), std::string::npos);
}

TEST(Components, MismatchedSchemasRejectEmission) {
  engine::SearchCell cell;
  cell.visibility = 0.5;
  cell.angles = 1;
  cell.max_time = 1e4;
  engine::ScenarioSet set;
  set.add_search(cell, "a",
                 [](const engine::SearchCell&, const engine::SearchOutcome&) {
                   return engine::Components{{"one", 1.0}};
                 });
  set.add_search(cell, "b",
                 [](const engine::SearchCell&, const engine::SearchOutcome&) {
                   return engine::Components{{"two", 2.0}};
                 });
  const auto results = engine::run_scenarios(set);
  EXPECT_THROW((void)results.to_csv(), std::logic_error);
  EXPECT_THROW((void)results.to_json(), std::logic_error);
  EXPECT_THROW((void)results.to_table(), std::logic_error);
}

TEST(Components, ComponentsOnlySkipsPayloadAndBypassesCache) {
  engine::ScenarioSet set;
  set.components_only()
      .search_distances({1.0, 2.0})
      .search_components([](const engine::SearchCell& c,
                            const engine::SearchOutcome&) {
        return engine::Components{{"d3", 3.0 * c.distance}};
      });
  engine::ScenarioCache cache;
  engine::RunnerOptions opts;
  opts.cache = &cache;
  const auto results = engine::run_scenarios(set, opts);
  ASSERT_EQ(results.size(), 2u);
  for (const engine::RunRecord& rec : results) {
    // No payload ran: the outcome is untouched.
    EXPECT_EQ(rec.search_outcome.evals, 0u);
    EXPECT_EQ(rec.search_outcome.found, 0);
    EXPECT_TRUE(rec.search_outcome.program_name.empty());
  }
  EXPECT_EQ(engine::component_value(results[1].components, "d3"), 6.0);
  // Components-only items have no content key: never stored, counted
  // as uncacheable.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(results.cache_stats().uncacheable, 2u);
  EXPECT_EQ(results.cache_stats().hits, 0u);
  EXPECT_EQ(results.cache_stats().misses, 0u);
}

TEST(Components, PerCellHookOverridesSetHookAndSurvivesCacheReplay) {
  auto declare = [] {
    engine::SearchCell cell;
    cell.visibility = 0.5;
    cell.angles = 1;
    cell.angle_offset = 0.03;
    cell.max_time = 1e4;
    engine::ScenarioSet set;
    set.search_components([](const engine::SearchCell&,
                             const engine::SearchOutcome&) {
      return engine::Components{{"which", 1.0}};
    });
    set.add_search(cell, "set-hook");
    set.add_search(cell, "own-hook",
                   [](const engine::SearchCell&,
                      const engine::SearchOutcome& out) {
                     return engine::Components{
                         {"which", 2.0},
                         {"t", out.worst_time}};
                   });
    return set;
  };
  engine::ScenarioCache cache;
  engine::RunnerOptions opts;
  opts.cache = &cache;
  opts.threads = 1;
  const auto first = engine::run_scenarios(declare(), opts);
  // Identical cell content: one miss, one hit — but each record keeps
  // its own hook's components (hooks are re-evaluated, never cached).
  EXPECT_EQ(first.cache_stats().misses, 1u);
  EXPECT_EQ(first.cache_stats().hits, 1u);
  EXPECT_EQ(engine::component_value(first[0].components, "which"), 1.0);
  EXPECT_EQ(engine::component_value(first[1].components, "which"), 2.0);
  ASSERT_EQ(first[1].components.size(), 2u);
  // The replayed outcome feeds the hook the same values as a computed
  // one: worst_time of the hit matches the miss's.
  EXPECT_EQ(engine::component_value(first[1].components, "t"),
            first[0].search_outcome.worst_time);
  const auto replay = engine::run_scenarios(declare(), opts);
  EXPECT_EQ(replay.cache_stats().hits, 2u);
  EXPECT_EQ(engine::component_value(replay[1].components, "t"),
            engine::component_value(first[1].components, "t"));
}

// ---------------------------------------------------------------------------
// Cache behaviour of the new families.
// ---------------------------------------------------------------------------

TEST(ScenarioCache, LinearAndCoverageCellsReplayByteIdentical) {
  auto declare_linear = [] {
    engine::LinearCell base;
    base.mode = engine::LinearMode::kRendezvous;
    base.attrs.time_unit = 0.5;
    base.visibility = 0.2;
    base.max_time = 1e5;
    engine::ScenarioSet set;
    set.linear_base(base).linear_distances({1.0, 1.0, 2.0});  // duplicate cell
    return set;
  };
  engine::ScenarioCache cache;
  engine::RunnerOptions opts;
  opts.cache = &cache;
  opts.threads = 1;
  const auto plain = engine::run_scenarios(declare_linear());
  const auto cached = engine::run_scenarios(declare_linear(), opts);
  EXPECT_EQ(cached.cache_stats().misses, 2u);
  EXPECT_EQ(cached.cache_stats().hits, 1u);
  EXPECT_EQ(plain.to_csv(), cached.to_csv());
  EXPECT_EQ(plain.to_json(), cached.to_json());
  const auto replay = engine::run_scenarios(declare_linear(), opts);
  EXPECT_EQ(replay.cache_stats().hits, 3u);
  EXPECT_EQ(replay.cache_stats().misses, 0u);
  EXPECT_EQ(plain.to_csv(), replay.to_csv());

  auto declare_coverage = [] {
    auto set = small_coverage_grid();
    engine::CoverageCell dup;
    dup.disk_radius = 1.0;
    dup.visibility = 0.25;
    dup.cell = 0.1;
    dup.checkpoints = 6;
    dup.horizon = 60.0;
    set.add_coverage(dup, "explicit twin");  // = the grid's algorithm4 cell
    return set;
  };
  engine::ScenarioCache ccache;
  engine::RunnerOptions copts;
  copts.cache = &ccache;
  copts.threads = 1;
  const auto cplain = engine::run_scenarios(declare_coverage());
  const auto ccached = engine::run_scenarios(declare_coverage(), copts);
  EXPECT_EQ(ccached.cache_stats().hits + ccached.cache_stats().misses, 3u);
  EXPECT_GE(ccached.cache_stats().hits, 1u);
  EXPECT_EQ(cplain.to_csv(), ccached.to_csv());
  EXPECT_EQ(cplain.to_json(), ccached.to_json());
  // The replayed series is the computed series, checkpoint for
  // checkpoint.
  ASSERT_EQ(ccached[0].coverage_outcome.series.size(),
            cplain[0].coverage_outcome.series.size());
  // Anonymous coverage factories are uncacheable, like search ones.
  engine::CoverageCell anon;
  anon.disk_radius = 1.0;
  anon.visibility = 0.25;
  anon.cell = 0.1;
  anon.checkpoints = 2;
  anon.horizon = 10.0;
  anon.program_factory = [] { return rv::search::make_search_program(); };
  engine::WorkItem item;
  item.family = engine::Family::kCoverage;
  item.coverage = anon;
  EXPECT_FALSE(engine::cache_key(item).has_value());
  item.coverage.program_name = "named";
  EXPECT_TRUE(engine::cache_key(item).has_value());
}

// ---------------------------------------------------------------------------
// Empty result sets: filtered()/cache_stats()/emission must return
// empty/zeroed values, never throw or read uninitialized state.
// ---------------------------------------------------------------------------

TEST(ResultSet, EmptySetIsWellBehaved) {
  const engine::ResultSet empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.all_met());  // vacuously
  // cache_stats: all-zero counters, not garbage.
  EXPECT_EQ(empty.cache_stats().hits, 0u);
  EXPECT_EQ(empty.cache_stats().misses, 0u);
  EXPECT_EQ(empty.cache_stats().uncacheable, 0u);
  // filtered: empty in, empty out, for every family.
  for (const auto family :
       {engine::Family::kRendezvous, engine::Family::kSearch,
        engine::Family::kGather, engine::Family::kLinear,
        engine::Family::kCoverage}) {
    const auto view = empty.filtered(family);
    EXPECT_TRUE(view.empty());
    EXPECT_EQ(view.cache_stats().hits, 0u);
  }
  // Emission: header-only CSV, empty-but-valid JSON array, empty table.
  EXPECT_EQ(io::parse_csv(empty.to_csv()).size(), 1u);
  std::vector<StrictJson::Row> rows;
  ASSERT_NO_THROW(rows = StrictJson::parse_rows(empty.to_json()));
  EXPECT_TRUE(rows.empty());
  EXPECT_NO_THROW((void)empty.to_table().to_ascii());

  // A filtered() miss on a non-empty set behaves the same way.
  engine::ScenarioSet set;
  engine::SearchCell cell;
  cell.visibility = 0.5;
  cell.angles = 1;
  cell.max_time = 1e4;
  set.add_search(cell);
  const auto results = engine::run_scenarios(set);
  const auto none = results.filtered(engine::Family::kCoverage);
  EXPECT_TRUE(none.empty());
  EXPECT_NO_THROW((void)none.to_csv());
  EXPECT_EQ(none.cache_stats().hits, results.cache_stats().hits);
}

}  // namespace
