// Tests for the trajectory substrate: segments, paths, programs, frame
// mapping, sampling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "engine/families.hpp"
#include "engine/set_registry.hpp"
#include "geom/angle.hpp"
#include "mathx/binary.hpp"
#include "mathx/constants.hpp"
#include "mathx/kahan.hpp"
#include "mathx/rng.hpp"
#include "rendezvous/core.hpp"
#include "search/algorithm4.hpp"
#include "search/emitter.hpp"
#include "traj/batch.hpp"
#include "traj/frame.hpp"
#include "traj/path.hpp"
#include "traj/program.hpp"
#include "traj/sampler.hpp"
#include "traj/segment.hpp"

namespace {

using namespace rv::traj;
using rv::geom::RobotAttributes;
using rv::geom::Vec2;
using rv::mathx::kPi;
using rv::mathx::kTwoPi;

// ---------------------------------------------------------------------------
// Segments
// ---------------------------------------------------------------------------

TEST(SegmentTest, LineBasics) {
  const Segment seg = LineSeg{{0.0, 0.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(duration(seg), 5.0);
  EXPECT_EQ(start_point(seg), (Vec2{0.0, 0.0}));
  EXPECT_EQ(end_point(seg), (Vec2{3.0, 4.0}));
  EXPECT_TRUE(rv::geom::approx_equal(position_at(seg, 2.5), {1.5, 2.0}));
  EXPECT_DOUBLE_EQ(traversal_speed(seg), 1.0);
  EXPECT_FALSE(is_degenerate(seg));
}

TEST(SegmentTest, PositionClamping) {
  const Segment seg = LineSeg{{0.0, 0.0}, {1.0, 0.0}};
  EXPECT_EQ(position_at(seg, -1.0), (Vec2{0.0, 0.0}));
  EXPECT_EQ(position_at(seg, 10.0), (Vec2{1.0, 0.0}));
}

TEST(SegmentTest, DegenerateLine) {
  const Segment seg = LineSeg{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(duration(seg), 0.0);
  EXPECT_TRUE(is_degenerate(seg));
  EXPECT_DOUBLE_EQ(traversal_speed(seg), 0.0);
}

TEST(SegmentTest, ArcBasics) {
  // Unit circle full CCW turn starting at angle 0.
  const Segment seg = ArcSeg{{0.0, 0.0}, 1.0, 0.0, kTwoPi};
  EXPECT_NEAR(duration(seg), kTwoPi, 1e-15);
  EXPECT_TRUE(rv::geom::approx_equal(start_point(seg), {1.0, 0.0}));
  EXPECT_TRUE(rv::geom::approx_equal(end_point(seg), {1.0, 0.0}, 1e-12));
  // Quarter way round: angle π/2.
  EXPECT_TRUE(
      rv::geom::approx_equal(position_at(seg, kPi / 2.0), {0.0, 1.0}, 1e-12));
}

TEST(SegmentTest, ClockwiseArc) {
  const Segment seg = ArcSeg{{0.0, 0.0}, 2.0, kPi / 2.0, -kPi};
  EXPECT_NEAR(duration(seg), 2.0 * kPi, 1e-15);
  EXPECT_TRUE(rv::geom::approx_equal(start_point(seg), {0.0, 2.0}, 1e-12));
  EXPECT_TRUE(rv::geom::approx_equal(end_point(seg), {0.0, -2.0}, 1e-12));
  // Halfway: angle 0 (swept −π/2 from π/2).
  EXPECT_TRUE(
      rv::geom::approx_equal(position_at(seg, kPi), {2.0, 0.0}, 1e-12));
}

TEST(SegmentTest, ArcOnUnitSpeed) {
  // Traversal speed along arcs is 1 (arc length per time unit).
  const Segment seg = ArcSeg{{0.0, 0.0}, 3.0, 0.0, 1.0};
  const double h = 1e-6;
  const Vec2 a = position_at(seg, 1.0);
  const Vec2 b = position_at(seg, 1.0 + h);
  EXPECT_NEAR(rv::geom::distance(a, b) / h, 1.0, 1e-5);
}

TEST(SegmentTest, WaitBasics) {
  const Segment seg = WaitSeg{{2.0, 3.0}, 7.5};
  EXPECT_DOUBLE_EQ(duration(seg), 7.5);
  EXPECT_EQ(position_at(seg, 3.0), (Vec2{2.0, 3.0}));
  EXPECT_DOUBLE_EQ(traversal_speed(seg), 0.0);
}

TEST(SegmentTest, MaxRadius) {
  EXPECT_DOUBLE_EQ(max_radius(Segment{LineSeg{{0.0, 0.0}, {3.0, 4.0}}}), 5.0);
  EXPECT_DOUBLE_EQ(max_radius(Segment{ArcSeg{{1.0, 0.0}, 2.0, 0.0, 1.0}}), 3.0);
  EXPECT_DOUBLE_EQ(max_radius(Segment{WaitSeg{{0.0, 2.0}, 1.0}}), 2.0);
}

TEST(SegmentTest, ValidationRejectsBadParameters) {
  EXPECT_THROW(validate(Segment{ArcSeg{{0.0, 0.0}, -1.0, 0.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(validate(Segment{WaitSeg{{0.0, 0.0}, -1.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      validate(Segment{LineSeg{{std::nan(""), 0.0}, {1.0, 0.0}}}),
      std::invalid_argument);
  EXPECT_NO_THROW(validate(Segment{LineSeg{{0.0, 0.0}, {1.0, 0.0}}}));
}

// ---------------------------------------------------------------------------
// Path
// ---------------------------------------------------------------------------

TEST(PathTest, BuildAndEvaluate) {
  Path p;
  p.line_to({1.0, 0.0});
  p.arc_around({0.0, 0.0}, kTwoPi);
  p.line_to({0.0, 0.0});
  EXPECT_EQ(p.size(), 3u);
  EXPECT_NEAR(p.duration(), 2.0 + kTwoPi, 1e-12);
  EXPECT_TRUE(p.is_continuous());
  EXPECT_TRUE(rv::geom::approx_equal(p.position_at(0.5), {0.5, 0.0}));
  EXPECT_TRUE(
      rv::geom::approx_equal(p.position_at(1.0 + kPi), {-1.0, 0.0}, 1e-12));
  EXPECT_TRUE(rv::geom::approx_equal(p.end(), {0.0, 0.0}, 1e-12));
}

TEST(PathTest, RejectsDiscontinuousAppend) {
  Path p;
  p.line_to({1.0, 0.0});
  EXPECT_THROW(p.append(LineSeg{{5.0, 5.0}, {6.0, 5.0}}),
               std::invalid_argument);
}

TEST(PathTest, ArcAroundRequiresOffCenterEnd) {
  Path p;
  EXPECT_THROW(p.arc_around({0.0, 0.0}, kPi), std::invalid_argument);
}

TEST(PathTest, WaitKeepsPosition) {
  Path p;
  p.line_to({2.0, 0.0});
  p.wait(5.0);
  EXPECT_DOUBLE_EQ(p.duration(), 7.0);
  EXPECT_TRUE(rv::geom::approx_equal(p.position_at(4.0), {2.0, 0.0}));
}

TEST(PathTest, SegmentStartTimes) {
  Path p;
  p.line_to({1.0, 0.0});
  p.wait(2.0);
  p.line_to({1.0, 3.0});
  EXPECT_DOUBLE_EQ(p.segment_start_time(0), 0.0);
  EXPECT_DOUBLE_EQ(p.segment_start_time(1), 1.0);
  EXPECT_DOUBLE_EQ(p.segment_start_time(2), 3.0);
  EXPECT_THROW((void)p.segment_start_time(3), std::out_of_range);
}

TEST(PathTest, ExtendConcatenates) {
  Path a;
  a.line_to({1.0, 0.0});
  Path b({1.0, 0.0});
  b.line_to({1.0, 1.0});
  a.extend(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(rv::geom::approx_equal(a.end(), {1.0, 1.0}));
  Path wrong({9.0, 9.0});
  wrong.line_to({9.0, 10.0});
  EXPECT_THROW(a.extend(wrong), std::invalid_argument);
}

TEST(PathTest, PositionClampsOutsideDomain) {
  Path p;
  p.line_to({1.0, 0.0});
  EXPECT_EQ(p.position_at(-5.0), (Vec2{0.0, 0.0}));
  EXPECT_EQ(p.position_at(99.0), (Vec2{1.0, 0.0}));
}

TEST(PathTest, BoundingBoxAndMaxRadius) {
  Path p;
  p.line_to({1.0, 0.0});
  p.arc_around({0.0, 0.0}, kTwoPi);
  const Box box = p.bounding_box();
  EXPECT_LE(box.lo.x, -1.0 + 1e-12);
  EXPECT_GE(box.hi.y, 1.0 - 1e-12);
  EXPECT_NEAR(p.max_radius(), 1.0, 1e-12);
}

TEST(PathTest, EmptyPath) {
  const Path p({2.0, 2.0});
  EXPECT_TRUE(p.empty());
  EXPECT_DOUBLE_EQ(p.duration(), 0.0);
  EXPECT_EQ(p.position_at(1.0), (Vec2{2.0, 2.0}));
  EXPECT_TRUE(p.is_continuous());
}

// ---------------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------------

TEST(ProgramTest, StationaryEmitsWaitsAtOrigin) {
  StationaryProgram prog(10.0);
  for (int i = 0; i < 5; ++i) {
    const Segment seg = prog.next();
    const auto* wait = std::get_if<WaitSeg>(&seg);
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(wait->at, (Vec2{0.0, 0.0}));
    EXPECT_DOUBLE_EQ(wait->duration, 10.0);
  }
  EXPECT_THROW(StationaryProgram(-1.0), std::invalid_argument);
}

TEST(ProgramTest, PathProgramReplaysThenWaits) {
  Path p;
  p.line_to({1.0, 1.0});
  PathProgram prog(p, "test");
  const Segment first = prog.next();
  EXPECT_TRUE(std::holds_alternative<LineSeg>(first));
  const Segment tail = prog.next();
  const auto* wait = std::get_if<WaitSeg>(&tail);
  ASSERT_NE(wait, nullptr);
  EXPECT_TRUE(rv::geom::approx_equal(wait->at, {1.0, 1.0}));
  EXPECT_EQ(prog.name(), "test");
}

TEST(ProgramTest, PathProgramRequiresOriginStart) {
  Path p({1.0, 0.0});
  p.line_to({2.0, 0.0});
  EXPECT_THROW(PathProgram(p, "bad"), std::invalid_argument);
}

TEST(ProgramTest, RoundProgramChainsRounds) {
  RoundProgram prog(
      [](int round, Vec2 start) {
        Path p(start);
        p.line_to(start + Vec2{static_cast<double>(round), 0.0});
        return p;
      },
      "rounds");
  // Round 1 moves +1, round 2 moves +2, ... and stays continuous.
  Vec2 cur{0.0, 0.0};
  for (int round = 1; round <= 4; ++round) {
    const Segment seg = prog.next();
    const auto* line = std::get_if<LineSeg>(&seg);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(rv::geom::approx_equal(line->from, cur));
    cur = line->to;
  }
  EXPECT_TRUE(rv::geom::approx_equal(cur, {10.0, 0.0}));
  EXPECT_EQ(prog.rounds_generated(), 4);
}

TEST(ProgramTest, RoundProgramRejectsTeleportingRounds) {
  RoundProgram prog(
      [](int, Vec2) {
        Path p({42.0, 0.0});  // ignores the cursor: discontinuous
        p.line_to({43.0, 0.0});
        return p;
      },
      "bad");
  EXPECT_THROW((void)prog.next(), std::logic_error);
}

TEST(ProgramTest, MarkRecorder) {
  MarkRecorder rec;
  rec.record(1.0, "alpha");
  rec.record(2.0, "beta");
  ASSERT_EQ(rec.marks().size(), 2u);
  EXPECT_EQ(rec.find("beta")->local_time, 2.0);
  EXPECT_EQ(rec.find("missing"), nullptr);
}

TEST(ProgramTest, BufferedTrajectoryEvaluates) {
  Path p;
  p.line_to({2.0, 0.0});
  auto prog = std::make_shared<PathProgram>(p, "buffered");
  BufferedTrajectory buf(prog);
  EXPECT_TRUE(rv::geom::approx_equal(buf.position_at(1.0), {1.0, 0.0}));
  EXPECT_TRUE(rv::geom::approx_equal(buf.position_at(100.0), {2.0, 0.0}));
  EXPECT_GE(buf.buffered_duration(), 100.0);
}

// ---------------------------------------------------------------------------
// Frame mapping (Lemma 4 made executable)
// ---------------------------------------------------------------------------

TEST(FrameTest, TimedSegmentInterpolatesUniformly) {
  TimedSegment ts{LineSeg{{0.0, 0.0}, {2.0, 0.0}}, 10.0, 14.0};
  EXPECT_TRUE(rv::geom::approx_equal(ts.position(10.0), {0.0, 0.0}));
  EXPECT_TRUE(rv::geom::approx_equal(ts.position(12.0), {1.0, 0.0}));
  EXPECT_TRUE(rv::geom::approx_equal(ts.position(14.0), {2.0, 0.0}));
  EXPECT_DOUBLE_EQ(ts.speed(), 0.5);
  // Waits have zero speed even though their "duration" is positive.
  TimedSegment tw{WaitSeg{{1.0, 1.0}, 4.0}, 0.0, 4.0};
  EXPECT_DOUBLE_EQ(tw.speed(), 0.0);
}

TEST(FrameTest, LineMapsThroughFrame) {
  RobotAttributes a;
  a.speed = 2.0;
  a.orientation = kPi / 2.0;
  const Segment local = LineSeg{{0.0, 0.0}, {1.0, 0.0}};
  const Segment global = to_global_geometry(local, a, {5.0, 5.0});
  const auto* line = std::get_if<LineSeg>(&global);
  ASSERT_NE(line, nullptr);
  EXPECT_TRUE(rv::geom::approx_equal(line->from, {5.0, 5.0}));
  // (1,0) rotated 90° and scaled by v·τ = 2 → (0,2).
  EXPECT_TRUE(rv::geom::approx_equal(line->to, {5.0, 7.0}, 1e-12));
}

TEST(FrameTest, ArcMapsWithChiralityFlip) {
  RobotAttributes a;
  a.chirality = -1;
  const Segment local = ArcSeg{{0.0, 0.0}, 1.0, 0.0, kPi / 2.0};
  const Segment global = to_global_geometry(local, a, {0.0, 0.0});
  const auto* arc = std::get_if<ArcSeg>(&global);
  ASSERT_NE(arc, nullptr);
  // χ = −1 flips the sweep direction (CCW → CW).
  EXPECT_NEAR(arc->sweep, -kPi / 2.0, 1e-15);
  // End point is the mirror image of the local end point.
  EXPECT_TRUE(rv::geom::approx_equal(end_point(global), {0.0, -1.0}, 1e-12));
}

TEST(FrameTest, WaitScalesDurationByTau) {
  RobotAttributes a;
  a.time_unit = 3.0;
  const Segment local = WaitSeg{{1.0, 0.0}, 2.0};
  const Segment global = to_global_geometry(local, a, {0.0, 0.0});
  const auto* wait = std::get_if<WaitSeg>(&global);
  ASSERT_NE(wait, nullptr);
  EXPECT_DOUBLE_EQ(wait->duration, 6.0);
}

TEST(FrameTest, StreamGeometryEqualsFreeFunctionOnValidatedAttributes) {
  // The stream maps with frame constants computed once from the
  // *validated* attributes; the free function recomputes them per call.
  // Both must give the same bits.  Orientations outside [0, 2π) are
  // normalised by validation, which changes the bits of the frame
  // matrix and of every arc's start angle — the case that catches a
  // stream built from the raw attributes.
  rv::mathx::Xoshiro256 rng(77);
  Path local;
  local.line_to({2.0, 0.0});
  local.arc_around({0.0, 0.0}, kPi / 2.0);
  local.wait(1.0);
  local.line_to({0.0, 0.0});
  local.line_to({0.0, 0.0});  // zero length: the stream skips it
  local.arc_around({1.0, 0.0}, -3.0);
  local.line_to({-0.5, 0.25});
  std::vector<double> orientations = {-7.0, 13.0, 0.0, kTwoPi, -kTwoPi};
  for (int trial = 0; trial < 20; ++trial) {
    orientations.push_back(rng.uniform(-20.0, 20.0));
  }
  int index = 0;
  for (const double phi : orientations) {
    RobotAttributes attrs;
    attrs.speed = rng.uniform(0.1, 4.0);
    attrs.time_unit = rng.uniform(0.1, 4.0);
    attrs.orientation = phi;
    attrs.chirality = (index++ % 2 == 0) ? -1 : 1;
    const Vec2 origin{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
    const RobotAttributes valid = rv::geom::validated(attrs);
    GlobalSegmentStream stream(std::make_shared<PathProgram>(local, "p"),
                               attrs, origin);
    PathProgram replay(local, "p");
    bool arc_differs_from_raw = false;
    for (std::size_t k = 0; k < local.size(); ++k) {
      const Segment seg = replay.next();
      if (duration(seg) <= 0.0) continue;  // the stream skips these
      const TimedSegment global = stream.next();
      EXPECT_EQ(global.geometry, to_global_geometry(seg, valid, origin))
          << "phi=" << phi << " segment " << k;
      if (std::holds_alternative<ArcSeg>(seg) &&
          !(global.geometry == to_global_geometry(seg, attrs, origin))) {
        arc_differs_from_raw = true;
      }
    }
    if (phi < 0.0 || phi >= kTwoPi) {
      EXPECT_TRUE(arc_differs_from_raw) << "phi=" << phi;
    }
  }
}

class FrameIdentity
    : public ::testing::TestWithParam<std::tuple<double, double, double, int>> {
};

TEST_P(FrameIdentity, GlobalPositionMatchesLemma4Formula) {
  // The global trajectory of R′ must satisfy
  //   p(t) = origin + (v·τ)·R(φ)·C(χ)·S(t/τ)
  // where S is the local program trajectory.
  const auto [v, tau, phi, chi] = GetParam();
  RobotAttributes attrs;
  attrs.speed = v;
  attrs.time_unit = tau;
  attrs.orientation = phi;
  attrs.chirality = chi;
  const Vec2 origin{3.0, -2.0};

  // Local program: line out, quarter arc, wait, line back — exercises
  // all three primitives.
  Path local;
  local.line_to({2.0, 0.0});
  local.arc_around({0.0, 0.0}, kPi / 2.0);
  local.wait(1.0);
  local.line_to({0.0, 0.0});

  GlobalSegmentStream stream(
      std::make_shared<PathProgram>(local, "frame-test"), attrs, origin);

  // Buffer enough global segments to cover the path duration.
  std::vector<TimedSegment> global;
  const double horizon = tau * local.duration();
  while (stream.clock() < horizon) global.push_back(stream.next());

  const rv::geom::Mat2 m = frame_matrix(attrs);
  rv::mathx::Xoshiro256 rng(55);
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(0.0, horizon);
    // Evaluate the global stream at t.
    Vec2 global_pos{};
    for (const TimedSegment& ts : global) {
      if (t <= ts.t1) {
        global_pos = ts.position(t);
        break;
      }
    }
    const Vec2 expected = origin + m * local.position_at(t / tau);
    EXPECT_TRUE(rv::geom::approx_equal(global_pos, expected, 1e-9))
        << "t=" << t << " got " << global_pos.x << ',' << global_pos.y
        << " expected " << expected.x << ',' << expected.y;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FrameIdentity,
    ::testing::Values(std::make_tuple(1.0, 1.0, 0.0, 1),
                      std::make_tuple(2.0, 1.0, kPi / 3.0, 1),
                      std::make_tuple(0.5, 1.0, 1.0, -1),
                      std::make_tuple(1.0, 0.5, 2.0, 1),
                      std::make_tuple(1.5, 2.0, 4.0, -1),
                      std::make_tuple(0.25, 0.25, 5.5, 1)));

TEST(FrameTest, StreamSkipsDegenerateSegments) {
  Path p;
  p.line_to({0.0, 0.0});  // zero-length
  p.line_to({1.0, 0.0});
  GlobalSegmentStream stream(std::make_shared<PathProgram>(p, "degen"),
                                   RobotAttributes{}, {0.0, 0.0});
  const TimedSegment first = stream.next();
  EXPECT_GT(first.t1 - first.t0, 0.0);
  EXPECT_TRUE(std::holds_alternative<LineSeg>(first.geometry));
  const auto* line = std::get_if<LineSeg>(&first.geometry);
  EXPECT_TRUE(rv::geom::approx_equal(line->to, {1.0, 0.0}));
}

TEST(FrameTest, StreamClockAdvancesByTau) {
  Path p;
  p.line_to({1.0, 0.0});
  RobotAttributes slow;
  slow.time_unit = 4.0;
  GlobalSegmentStream stream(std::make_shared<PathProgram>(p, "slow"),
                                   slow, {0.0, 0.0});
  const TimedSegment seg = stream.next();
  // Local duration 1, global duration τ·1 = 4.
  EXPECT_NEAR(seg.t1 - seg.t0, 4.0, 1e-12);
  // Traversal speed is v = 1 (scale v·τ per local unit over τ).
  EXPECT_NEAR(seg.speed(), 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Long-horizon geometry of the shipped programs
// ---------------------------------------------------------------------------

/// True when `value` is within `ulps` units in the last place of
/// `scale` — the VanishesBefore idiom for quantities that should be 0
/// but are computed from operands of magnitude `scale`.
bool vanishes_before(double value, double scale, double ulps) {
  return std::abs(value) <=
         ulps * std::numeric_limits<double>::epsilon() * std::abs(scale);
}

/// One robot of the built-in gather-fleet set: Algorithm 7 under its
/// own attributes, started at its ring origin.
struct FleetRobot {
  RobotAttributes attrs;
  Vec2 origin;
  rv::rendezvous::AlgorithmChoice algorithm;
};

std::vector<FleetRobot> gather_fleet_robots() {
  std::vector<FleetRobot> robots;
  for (const rv::engine::WorkItem& item :
       rv::engine::builtin_set("gather-fleet").set.materialize_work()) {
    for (std::size_t i = 0; i < item.gather.fleet.size(); ++i) {
      robots.push_back({item.gather.fleet[i],
                        rv::engine::gather_origin(item.gather, i),
                        item.gather.algorithm});
    }
  }
  return robots;
}

/// Streams `factory()` under `attrs` from `origin` to `horizon` and
/// checks the long-horizon invariants: the clock equals an independent
/// KahanSum replay bit for bit, segments are gapless in time and
/// continuous in space, and every arc stays on its circle moving along
/// its tangent.  Every tolerance is a few units in the last place of
/// the magnitudes involved, so it holds at any horizon.  Returns the
/// number of arcs seen.
std::size_t check_long_horizon_stream(
    const std::function<std::shared_ptr<Program>()>& factory,
    const RobotAttributes& attrs, const Vec2& origin, double horizon) {
  GlobalSegmentStream stream(factory(), attrs, origin);
  const std::shared_ptr<Program> replay = factory();
  rv::mathx::KahanSum clock;
  std::optional<TimedSegment> previous;
  std::size_t arcs = 0;
  while (stream.clock() < horizon) {
    const TimedSegment seg = stream.next();
    double dur = 0.0;
    while (dur <= 0.0) dur = attrs.time_unit * duration(replay->next());
    clock.add(dur);
    EXPECT_EQ(seg.t1, clock.value());
    EXPECT_GT(seg.t1, seg.t0);
    if (previous) {
      // Monotone and gapless in time; continuous in space.
      EXPECT_EQ(seg.t0, previous->t1);
      const Vec2 end = previous->position(previous->t1);
      const Vec2 start = seg.position(seg.t0);
      EXPECT_TRUE(vanishes_before(norm(start - end),
                                  std::max(1.0, norm(end)), 16))
          << "jump at t = " << seg.t0;
    }
    if (const auto* arc = std::get_if<ArcSeg>(&seg.geometry)) {
      ++arcs;
      const double scale = arc->radius + norm(arc->center);
      for (const double f : {0.0, 0.125, 0.5, 0.875, 1.0}) {
        const double t = seg.t0 + f * (seg.t1 - seg.t0);
        const Vec2 radius = seg.position(t) - arc->center;
        // On the circle of radius R about the arc centre ...
        EXPECT_TRUE(vanishes_before(norm(radius) - arc->radius, scale, 8))
            << "t = " << t;
        // ... moving along the tangent of θ(t) = start + sweep·frac.
        const double frac =
            std::clamp((t - seg.t0) / (seg.t1 - seg.t0), 0.0, 1.0);
        const double theta = arc->start_angle + arc->sweep * frac;
        const Vec2 velocity = seg.speed() * std::copysign(1.0, arc->sweep) *
                              Vec2{-std::sin(theta), std::cos(theta)};
        EXPECT_TRUE(vanishes_before(dot(radius, velocity),
                                    scale * seg.speed(), 16))
            << "t = " << t;
      }
    }
    if (::testing::Test::HasFailure()) break;  // one report, not thousands
    previous = seg;
  }
  return arcs;
}

TEST(LongHorizonGeometry, GatherFleetStreamsKeepArcJoinAndClockInvariants) {
  // The gather-fleet sweeps run to t = 2e5, where one rounding unit of
  // the clock is ~3e-11.
  constexpr double kHorizon = 2e5;
  const std::vector<FleetRobot> robots = gather_fleet_robots();
  ASSERT_EQ(robots.size(), 10u);
  for (const FleetRobot& robot : robots) {
    EXPECT_GT(check_long_horizon_stream(
                  rv::rendezvous::program_factory(robot.algorithm),
                  robot.attrs, robot.origin, kHorizon),
              0u);
    if (HasFailure()) return;
  }
}

TEST(LongHorizonGeometry, SearchRingAlgorithm4StreamsKeepInvariants) {
  // The search-ring set's Algorithm 4 cells: the searcher starts at the
  // origin under the cell's attributes and runs to the cell horizon.
  std::size_t cells = 0;
  for (const rv::engine::WorkItem& item :
       rv::engine::builtin_set("search-ring").set.materialize_work()) {
    if (item.search.program != rv::engine::SearchProgram::kAlgorithm4) {
      continue;
    }
    ++cells;
    EXPECT_GT(check_long_horizon_stream(rv::search::make_search_program,
                                        item.search.attrs, {0.0, 0.0},
                                        item.search.max_time),
              0u);
    if (HasFailure()) return;
  }
  EXPECT_EQ(cells, 4u);
}

TEST(LongHorizonGeometry, SearchRoundEmitterRadiiMatchClosedForm) {
  // Search(k) sub-round j, circle i has radius 2^{−k+j} + 2·i·2^{−3k+2j−1}
  // (ldexp is exact, so the emitter's cached powers give these bits),
  // traversed as line out, full arc, line back; then the round's wait.
  using rv::mathx::pow2;
  for (int k = 1; k <= 8; ++k) {
    rv::search::SearchRoundEmitter emitter(k);
    std::uint64_t emitted = 0;
    for (int j = 0; j <= 2 * k - 1; ++j) {
      const std::uint64_t last = std::uint64_t{1} << (2 * k - j);
      for (std::uint64_t i = 0; i <= last; ++i) {
        const double r = pow2(-k + j) +
                         2.0 * static_cast<double>(i) * pow2(-3 * k + 2 * j - 1);
        const Segment out = emitter.next();
        const Segment arc = emitter.next();
        const Segment back = emitter.next();
        emitted += 3;
        const bool ok =
            out == Segment{LineSeg{{0.0, 0.0}, {r, 0.0}}} &&
            arc == Segment{ArcSeg{{0.0, 0.0}, r, 0.0, kTwoPi}} &&
            back == Segment{LineSeg{{r, 0.0}, {0.0, 0.0}}};
        ASSERT_TRUE(ok) << "k=" << k << " j=" << j << " i=" << i;
      }
    }
    ASSERT_FALSE(emitter.done());
    const Segment wait = emitter.next();
    ++emitted;
    EXPECT_TRUE(std::holds_alternative<WaitSeg>(wait)) << "k=" << k;
    EXPECT_TRUE(emitter.done()) << "k=" << k;
    EXPECT_EQ(emitted, emitter.total_segments()) << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Sampling / flattening
// ---------------------------------------------------------------------------

TEST(SamplerTest, UniformSampling) {
  auto pos = [](double t) { return Vec2{t, 2.0 * t}; };
  const auto samples = sample_uniform(pos, 0.0, 1.0, 5);
  ASSERT_EQ(samples.size(), 5u);
  EXPECT_DOUBLE_EQ(samples.front().t, 0.0);
  EXPECT_DOUBLE_EQ(samples.back().t, 1.0);
  EXPECT_TRUE(rv::geom::approx_equal(samples[2].position, {0.5, 1.0}));
  EXPECT_THROW((void)sample_uniform(pos, 0.0, 1.0, 1), std::invalid_argument);
}

TEST(SamplerTest, FlattenArcRespectsChordError) {
  const Segment seg = ArcSeg{{0.0, 0.0}, 2.0, 0.0, kTwoPi};
  const double max_err = 1e-3;
  const auto pts = flatten_segment(seg, max_err);
  ASSERT_GE(pts.size(), 8u);
  // All polyline vertices lie on the circle; midpoints of chords are
  // within max_err of it.
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    const Vec2 mid = rv::geom::lerp(pts[i], pts[i + 1], 0.5);
    EXPECT_NEAR(rv::geom::norm(pts[i]), 2.0, 1e-12);
    EXPECT_GE(rv::geom::norm(mid), 2.0 - max_err - 1e-12);
  }
}

TEST(SamplerTest, FlattenPathDeduplicatesJunctions) {
  Path p;
  p.line_to({1.0, 0.0});
  p.line_to({1.0, 1.0});
  const auto pts = flatten_path(p, 1e-3);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_TRUE(rv::geom::approx_equal(pts[1], {1.0, 0.0}));
}

TEST(SamplerTest, FlattenRejectsBadTolerance) {
  EXPECT_THROW((void)flatten_segment(Segment{WaitSeg{{0, 0}, 1.0}}, 0.0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Batched SoA position evaluation
// ---------------------------------------------------------------------------

/// A random fleet of timed segments: lines, arcs, waits, degenerate
/// lines (from == to) and zero-span segments (t1 == t0).
std::vector<TimedSegment> random_segment_soup(rv::mathx::Xoshiro256& rng,
                                              int n) {
  std::vector<TimedSegment> segs;
  double t = rng.uniform(-2.0, 2.0);
  for (int i = 0; i < n; ++i) {
    const double t0 = t;
    const double t1 =
        rng.uniform_int(0, 7) == 0 ? t0 : t0 + rng.uniform(1e-6, 3.0);
    t = t1;
    Segment geometry;
    switch (rng.uniform_int(0, 3)) {
      case 0:
        geometry = LineSeg{{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)},
                           {rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)}};
        break;
      case 1:
        geometry = ArcSeg{{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)},
                          rng.uniform(0.1, 3.0),
                          rng.uniform(0.0, kTwoPi),
                          rng.uniform(-2.0, 2.0) * kPi};
        break;
      case 2:
        geometry = WaitSeg{{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)},
                           rng.uniform(0.1, 2.0)};
        break;
      default: {  // degenerate line: from == to
        const Vec2 p{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
        geometry = LineSeg{p, p};
        break;
      }
    }
    segs.push_back({geometry, t0, t1});
  }
  return segs;
}

/// Checks, with `==`, that `batch` holds exactly `segs`: positions at
/// `at` against the scalar path and a fresh assembly, and the stored
/// speeds against TimedSegment::speed.
void expect_batch_holds(const BatchedPositions& batch,
                        const std::vector<TimedSegment>& segs, double at) {
  ASSERT_EQ(batch.size(), segs.size());
  ASSERT_EQ(batch.speeds().size(), segs.size());
  BatchedPositions fresh;
  fresh.assemble(segs);
  std::vector<Vec2> out(segs.size()), ref_out(segs.size());
  batch.positions(at, out.data());
  fresh.positions(at, ref_out.data());
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const Vec2 ref = segs[i].position(at);
    EXPECT_EQ(out[i].x, ref.x) << "i=" << i << " at=" << at;
    EXPECT_EQ(out[i].y, ref.y) << "i=" << i << " at=" << at;
    EXPECT_EQ(out[i].x, ref_out[i].x) << "i=" << i << " at=" << at;
    EXPECT_EQ(out[i].y, ref_out[i].y) << "i=" << i << " at=" << at;
    EXPECT_EQ(batch.speeds()[i], segs[i].speed()) << "i=" << i;
  }
}

TEST(BatchTest, BitwiseMatchesScalarOnRandomSegmentSoups) {
  // The engine's golden bytes depend on BatchedPositions replaying the
  // exact floating-point sequence of TimedSegment::position, so the
  // comparison here is `==`, not EXPECT_NEAR: any reordered operation
  // fails loudly.  Query times deliberately land before t0 and after
  // t1 to exercise the clamp paths too.
  rv::mathx::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<TimedSegment> segs =
        random_segment_soup(rng, 1 + rng.uniform_int(0, 19));
    BatchedPositions batch;
    batch.assemble(segs);
    ASSERT_EQ(batch.size(), segs.size());
    std::vector<Vec2> out(segs.size());
    for (int q = 0; q < 8; ++q) {
      const double at = rng.uniform(segs.front().t0 - 1.0,
                                    segs.back().t1 + 1.0);
      batch.positions(at, out.data());
      for (std::size_t i = 0; i < segs.size(); ++i) {
        const Vec2 ref = segs[i].position(at);
        EXPECT_EQ(out[i].x, ref.x) << "trial=" << trial << " i=" << i
                                   << " at=" << at;
        EXPECT_EQ(out[i].y, ref.y) << "trial=" << trial << " i=" << i
                                   << " at=" << at;
      }
    }
  }
}

TEST(BatchTest, SlotUpdatesMatchFreshAssemblyAndScalarBitwise) {
  // The sweep repacks only the slots whose robot pulled a segment.  A
  // slot update must leave the batch exactly as a fresh assembly of
  // the current fleet would: stale coefficients of a slot's previous
  // kind (a line replaced by a wait, an arc by a zero-span segment)
  // must not leak into positions or speeds.
  rv::mathx::Xoshiro256 rng(4051);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + rng.uniform_int(0, 11);
    std::vector<TimedSegment> current = random_segment_soup(rng, n);
    BatchedPositions batch;
    batch.assemble(current);
    const double lo = current.front().t0 - 1.0;
    const double hi = current.back().t1 + 4.0;
    expect_batch_holds(batch, current, rng.uniform(lo, hi));
    for (int u = 0; u < 3 * n; ++u) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      current[i] = random_segment_soup(rng, 1).front();
      batch.update(i, current[i]);
      expect_batch_holds(batch, current, rng.uniform(lo, hi));
    }
  }
}

TEST(BatchTest, ReassembleReplacesPreviousFleet) {
  BatchedPositions batch;
  batch.assemble({{LineSeg{{0.0, 0.0}, {1.0, 0.0}}, 0.0, 1.0},
                  {WaitSeg{{2.0, 2.0}, 1.0}, 0.0, 1.0}});
  ASSERT_EQ(batch.size(), 2u);
  batch.assemble({{LineSeg{{0.0, 0.0}, {0.0, 2.0}}, 0.0, 2.0}});
  ASSERT_EQ(batch.size(), 1u);
  Vec2 out;
  batch.positions(1.0, &out);
  const TimedSegment ref{LineSeg{{0.0, 0.0}, {0.0, 2.0}}, 0.0, 2.0};
  EXPECT_EQ(out.x, ref.position(1.0).x);
  EXPECT_EQ(out.y, ref.position(1.0).y);
}

}  // namespace
