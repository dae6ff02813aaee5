// Tests for the coverage-accounting module: grid marking, disk
// fractions, the exact swept-region rasteriser against a brute-force
// per-cell distance oracle, the measured sweep of known trajectories,
// and the area budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "analysis/coverage.hpp"
#include "coverage_oracle.hpp"
#include "mathx/binary.hpp"
#include "mathx/constants.hpp"
#include "mathx/rng.hpp"
#include "search/algorithm4.hpp"
#include "search/baselines.hpp"
#include "search/paths.hpp"
#include "search/times.hpp"
#include "traj/frame.hpp"
#include "traj/path.hpp"
#include "traj/program.hpp"

namespace {

using namespace rv::analysis;
using rv::geom::Vec2;
using rv::test::check_against_oracle;
using rv::test::count_marked;
using rv::test::OracleReport;
using rv::test::ref_distance;
using rv::mathx::kPi;
using rv::mathx::kTwoPi;
using rv::traj::ArcSeg;
using rv::traj::LineSeg;
using rv::traj::Segment;
using rv::traj::WaitSeg;

/// Rasterises `seg` on a fresh grid and checks it cell by cell.
void expect_matches_oracle(const Segment& seg, double extent, double cell,
                           double r, const char* what) {
  CoverageGrid grid(extent, cell);
  grid.mark_segment(seg, r);
  const OracleReport report = check_against_oracle(
      grid, [&](Vec2 q) { return ref_distance(q, seg); }, r);
  EXPECT_EQ(report.wrong, 0) << what << ": " << seg;
  EXPECT_LE(report.ambiguous, 2) << what << ": " << seg;
  EXPECT_EQ(grid.marked_cells(), count_marked(grid)) << what;
}

/// A random piece: line, arc or wait, placed so that some cross the
/// grid edge and some lie wholly outside it.
Segment random_piece(rv::mathx::Xoshiro256& rng, double extent) {
  const auto point = [&] {
    return Vec2{rng.uniform(-1.6 * extent, 1.6 * extent),
                rng.uniform(-1.6 * extent, 1.6 * extent)};
  };
  switch (rng.uniform_int(0, 4)) {
    case 0:
    case 1:
      return LineSeg{point(), point()};
    case 2:
    case 3: {
      const double pick = rng.uniform01();
      const double radius = pick < 0.2   ? rng.uniform(0.0, 0.1 * extent)
                            : pick < 0.9 ? rng.uniform(0.0, 1.5 * extent)
                                         : rng.uniform(2.0, 20.0) * extent;
      return ArcSeg{point(), radius, rng.uniform(-10.0, 10.0),
                    rng.uniform(-2.5, 2.5) * kTwoPi};
    }
    default:
      return WaitSeg{point(), 1.0};
  }
}

TEST(CoverageRaster, RandomPiecesMatchTheBruteForceOracle) {
  rv::mathx::Xoshiro256 rng(16061);
  int pieces = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const double extent = rng.uniform(0.5, 3.0);
    const double cell = 2.0 * extent / rng.uniform(8.0, 70.0);
    const double r = rng.uniform(0.3, 6.0) * cell;
    expect_matches_oracle(random_piece(rng, extent), extent, cell, r,
                          "random");
    ++pieces;
  }
  EXPECT_EQ(pieces, 240);
}

TEST(CoverageRaster, EdgeCasePiecesMatchTheBruteForceOracle) {
  // Coordinates off the cell-centre lattice, so no centre sits at
  // distance exactly r (the oracle could not judge it).
  const double extent = 1.0, cell = 0.04, r = 0.1307;
  const Vec2 c{0.1, -0.2};
  const struct {
    const char* what;
    Segment seg;
  } cases[] = {
      {"zero-length line", LineSeg{c, c}},
      {"horizontal line", LineSeg{{-0.7, 0.3011}, {0.6, 0.3011}}},
      {"vertical line", LineSeg{{0.2513, -0.9}, {0.2513, 0.8}}},
      {"diagonal line", LineSeg{{-0.97, -0.97}, {0.97, 0.97}}},
      {"line crossing the edge", LineSeg{{-2.0, 0.1}, {0.4, 0.5}}},
      {"line wholly outside", LineSeg{{1.5, 1.5}, {3.0, 1.2}}},
      {"zero-radius arc", ArcSeg{c, 0.0, 0.3, 2.0}},
      {"arc with rho < r", ArcSeg{c, 0.05, 0.3, 2.0}},
      {"arc with rho = r", ArcSeg{c, r, -1.0, 2.5}},
      {"full turn", ArcSeg{c, 0.5, 0.7, kTwoPi}},
      {"more than a turn", ArcSeg{c, 0.5, 0.7, -3.0 * kPi}},
      {"full turn with rho < r", ArcSeg{c, 0.1, 0.0, kTwoPi}},
      {"zero sweep", ArcSeg{c, 0.5, 0.4, 0.0}},
      {"tiny sweep", ArcSeg{c, 0.5, 0.4, 1e-12}},
      {"quarter exactly", ArcSeg{c, 0.6, 0.0, 0.5 * kPi}},
      {"clockwise arc", ArcSeg{c, 0.6, 2.0, -2.2}},
      {"arc crossing the edge", ArcSeg{{0.9, 0.9}, 0.5, 0.0, 4.0}},
      {"grid inside the hole", ArcSeg{{0.0, 0.0}, 5.0, 0.0, kTwoPi}},
      {"arc wholly outside", ArcSeg{{4.0, 4.0}, 0.5, 0.0, kTwoPi}},
      {"huge arc through the grid", ArcSeg{{0.0, -40.0}, 40.2, 1.4, 0.4}},
      {"wait", WaitSeg{c, 3.0}},
      {"wait outside", WaitSeg{{5.0, 0.0}, 3.0}},
  };
  for (const auto& test : cases) {
    expect_matches_oracle(test.seg, extent, cell, r, test.what);
  }
}

TEST(CoverageRaster, WithoutStartCapOnlyTheStartDiskIsLeftOut) {
  // A piece that continues a path leaves its start disk to the piece
  // before it: marking that disk first gives the full piece's cells.
  const double r = 0.15;
  const Segment pieces[] = {LineSeg{{-0.5, 0.2}, {0.6, -0.3}},
                            ArcSeg{{0.1, 0.0}, 0.4, 2.0, -1.7},
                            WaitSeg{{0.3, 0.3}, 1.0}};
  for (const Segment& seg : pieces) {
    CoverageGrid full(1.0, 0.03);
    full.mark_segment(seg, r);
    CoverageGrid rest(1.0, 0.03);
    rest.mark_disk(rv::traj::start_point(seg), r);
    rest.mark_segment(seg, r, /*start_cap=*/false);
    EXPECT_EQ(rest.marked_cells(), full.marked_cells()) << seg;
    for (int iy = 0; iy < full.side(); ++iy) {
      for (int ix = 0; ix < full.side(); ++ix) {
        ASSERT_EQ(rest.marked(ix, iy), full.marked(ix, iy)) << seg;
      }
    }
  }
}

TEST(CoverageRaster, TrackedFractionIsTheScannedFractionBitForBit) {
  rv::mathx::Xoshiro256 rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const double extent = rng.uniform(0.5, 2.5);
    const double cell = 2.0 * extent / rng.uniform(10.0, 130.0);
    const double target = rng.uniform(0.1, 1.5) * extent;
    CoverageGrid grid(extent, cell);
    // Half the marks before tracking starts, half after.
    for (int i = 0; i < 6; ++i) {
      if (i == 3) grid.track_disk(target);
      grid.mark_segment(random_piece(rng, extent),
                        rng.uniform(0.5, 4.0) * cell);
    }
    EXPECT_EQ(grid.tracked_fraction(), grid.covered_fraction_of_disk(target))
        << "trial " << trial;
  }
  CoverageGrid grid(1.0, 0.1);
  EXPECT_EQ(grid.tracked_fraction(), 0.0);  // nothing tracked yet
  EXPECT_THROW(grid.track_disk(0.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The exact sweep against the sampling it replaced
// ---------------------------------------------------------------------------

/// The rasteriser this module used before: a disk of radius r stamped
/// at the start and then every cell/2 of travel (and at each segment
/// end) until the horizon.  Test-only; kept to check that the exact
/// swept region contains every cell the samples marked.
void stamp_samples(CoverageGrid& grid,
                   std::shared_ptr<rv::traj::Program> program,
                   const CoverageOptions& options) {
  rv::traj::GlobalSegmentStream stream(std::move(program),
                                       rv::geom::reference_attributes(),
                                       {0.0, 0.0});
  double t = 0.0;
  rv::traj::TimedSegment seg = stream.next();
  grid.mark_disk(seg.position(0.0), options.visibility);
  while (t < options.horizon) {
    while (seg.t1 <= t) seg = stream.next();
    const double speed = seg.speed();
    double dt = speed <= 0.0 ? seg.t1 - t : 0.5 * options.cell / speed;
    if (dt <= 0.0) dt = options.cell;
    t = std::min({t + dt, seg.t1, options.horizon});
    grid.mark_disk(seg.position(t), options.visibility);
  }
}

TEST(MeasureCoverage, ExactSweepContainsTheOldSamplesOnShippedPrograms) {
  // The coverage-disk set's cell, on each shipped program: at the
  // horizon the grid `measure_coverage` builds holds every cell the old
  // cell/2 stamping marked.  Containment is checked by stamping the
  // samples onto a copy of the exact grid: no new cell may appear.
  CoverageOptions opts;
  opts.disk_radius = 1.5;
  opts.visibility = 0.1;
  opts.cell = 0.05;
  opts.checkpoints = 1;
  opts.horizon = 2.0 * rv::search::time_first_rounds(
                           rv::search::guaranteed_round(1.5, 0.1));
  const std::function<std::shared_ptr<rv::traj::Program>()> programs[] = {
      rv::search::make_search_program, rv::search::make_concentric_baseline,
      rv::search::make_square_spiral_baseline};
  for (const auto& make : programs) {
    // The exact grid, rebuilt piece by piece as measure_coverage marks
    // it with one checkpoint: whole segments, the last one clipped.
    const double extent = opts.disk_radius + opts.visibility + 1e-9;
    CoverageGrid exact(extent, opts.cell);
    exact.track_disk(opts.disk_radius);
    rv::traj::GlobalSegmentStream stream(
        make(), rv::geom::reference_attributes(), {0.0, 0.0});
    for (bool first = true;; first = false) {
      const rv::traj::TimedSegment seg = stream.next();
      Segment piece = seg.geometry;
      if (seg.t1 > opts.horizon) {
        const double f = (opts.horizon - seg.t0) / (seg.t1 - seg.t0);
        if (const auto* line = std::get_if<LineSeg>(&seg.geometry)) {
          piece = LineSeg{line->from, rv::geom::lerp(line->from, line->to, f)};
        } else if (const auto* arc = std::get_if<ArcSeg>(&seg.geometry)) {
          piece = ArcSeg{arc->center, arc->radius, arc->start_angle,
                         arc->sweep * f};
        }
      }
      exact.mark_segment(piece, opts.visibility, first);
      if (seg.t1 >= opts.horizon) break;
    }
    const auto series = measure_coverage(
        make(), rv::geom::reference_attributes(), opts);
    ASSERT_EQ(series.size(), 1u);
    EXPECT_EQ(series.back().time, opts.horizon);
    EXPECT_EQ(series.back().covered_area, exact.covered_area());
    EXPECT_EQ(series.back().fraction, exact.tracked_fraction());

    CoverageGrid both = exact;
    stamp_samples(both, make(), opts);
    EXPECT_EQ(both.marked_cells(), exact.marked_cells())
        << make()->name() << ": a sampled cell lies outside the exact sweep";
  }
}

TEST(MeasureCoverage, CheckpointsAreExactFractionsOfTheHorizon) {
  CoverageOptions opts;
  opts.visibility = 0.1;
  opts.disk_radius = 1.0;
  opts.cell = 0.05;
  opts.horizon = 37.0;
  opts.checkpoints = 7;
  const auto series = measure_coverage(rv::search::make_search_program(),
                                       rv::geom::reference_attributes(), opts);
  ASSERT_EQ(series.size(), 7u);
  for (int k = 1; k <= 7; ++k) {
    EXPECT_EQ(series[k - 1].time, opts.horizon * (k / 7.0));
  }
  EXPECT_EQ(series.back().time, opts.horizon);
}

TEST(MeasureCoverage, CheckpointCapRunsAndStaysMonotone) {
  // Each checkpoint reads the tracked counters instead of scanning the
  // grid, so the cap's worth of checkpoints on a 65² grid is quick, and
  // the series stays monotone.
  CoverageOptions opts;
  opts.visibility = 0.1;
  opts.disk_radius = 1.5;
  opts.cell = 0.05;
  opts.horizon = 200.0;
  opts.checkpoints = kMaxCoverageCheckpoints;
  const auto series = measure_coverage(rv::search::make_search_program(),
                                       rv::geom::reference_attributes(), opts);
  ASSERT_EQ(series.size(), static_cast<std::size_t>(kMaxCoverageCheckpoints));
  for (std::size_t i = 1; i < series.size(); ++i) {
    ASSERT_GE(series[i].fraction, series[i - 1].fraction);
    ASSERT_GE(series[i].covered_area, series[i - 1].covered_area);
  }
  opts.checkpoints = 16;
  const auto coarse = measure_coverage(rv::search::make_search_program(),
                                       rv::geom::reference_attributes(), opts);
  // Same swept path at the horizon, cut into different pieces.
  EXPECT_NEAR(coarse.back().fraction, series.back().fraction, 1e-3);
}

TEST(CoverageGrid, ValidationAndGeometry) {
  EXPECT_THROW(CoverageGrid(0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(CoverageGrid(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(CoverageGrid(100.0, 0.01), std::invalid_argument);  // too fine
  const CoverageGrid grid(1.0, 0.1);
  EXPECT_EQ(grid.side(), 20);
  EXPECT_EQ(grid.marked_cells(), 0u);
}

TEST(CoverageGrid, MarkDiskCountsApproximateArea) {
  CoverageGrid grid(2.0, 0.02);
  grid.mark_disk({0.0, 0.0}, 1.0);
  // Marked area ≈ π·1² within a few percent at this resolution.
  EXPECT_NEAR(grid.covered_area(), rv::mathx::kPi, 0.05);
  // The unit disk itself is fully covered.
  EXPECT_NEAR(grid.covered_fraction_of_disk(0.99), 1.0, 1e-12);
  // The radius-2 disk is roughly a quarter covered (area ratio 1/4).
  EXPECT_NEAR(grid.covered_fraction_of_disk(2.0), 0.25, 0.02);
}

TEST(CoverageGrid, MarksAreIdempotent) {
  CoverageGrid grid(1.0, 0.05);
  grid.mark_disk({0.2, 0.1}, 0.3);
  const auto first = grid.marked_cells();
  grid.mark_disk({0.2, 0.1}, 0.3);
  EXPECT_EQ(grid.marked_cells(), first);
}

TEST(CoverageGrid, OutOfWindowMarksClip) {
  CoverageGrid grid(1.0, 0.1);
  grid.mark_disk({10.0, 10.0}, 0.5);  // fully outside
  EXPECT_EQ(grid.marked_cells(), 0u);
  grid.mark_disk({1.0, 0.0}, 0.3);  // straddles the boundary
  EXPECT_GT(grid.marked_cells(), 0u);
}

TEST(MeasureCoverage, SingleCirclePassCoversAnnulusBand) {
  // SearchCircle(1) with visibility 0.2 covers the band [0.8, 1.2]
  // plus the spoke along +x.  The fraction of the radius-2 disk is
  // the band area (π(1.2²−0.8²) = 0.8π) plus a thin spoke, over 4π.
  rv::traj::Path circle = rv::search::search_circle_path(1.0);
  CoverageOptions opts;
  opts.visibility = 0.2;
  opts.disk_radius = 2.0;
  opts.cell = 0.02;
  opts.horizon = circle.duration();
  opts.checkpoints = 4;
  const auto series = measure_coverage(
      std::make_shared<rv::traj::PathProgram>(circle, "circle"),
      rv::geom::reference_attributes(), opts);
  ASSERT_EQ(series.size(), 4u);
  // Band fraction 0.2 plus the swept spoke along +x (~0.03).
  EXPECT_GE(series.back().fraction, 0.19);
  EXPECT_LE(series.back().fraction, 0.28);
  // Coverage is monotone in time.
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].fraction, series[i - 1].fraction - 1e-12);
  }
}

TEST(MeasureCoverage, Algorithm4CoversTargetBandByGuaranteedRound) {
  // The guaranteed round covers the *distance band* of the target —
  // round k's innermost circle sits at 2^{−k}, so the deep interior is
  // only reached by later rounds.  Measured: by the end of the
  // guaranteed round for (d, r) the coverage of the radius-d disk is
  // high but not total (interior hole of radius ~2^{−k} − r remains).
  const double d = 1.0, r = 0.125;
  const int k = rv::search::guaranteed_round(d, r);  // k = 1 here
  CoverageOptions opts;
  opts.visibility = r;
  opts.disk_radius = d;
  opts.cell = 0.02;
  opts.horizon = rv::search::time_first_rounds(k);
  opts.checkpoints = 8;
  const auto series =
      measure_coverage(rv::search::make_search_program(),
                       rv::geom::reference_attributes(), opts);
  // Band [2^{−k}, d] covered; interior hole ≈ π(2^{−k} − r)²/πd².
  const double hole = std::pow(rv::mathx::pow2(-k) - r, 2.0) / (d * d);
  EXPECT_GE(series.back().fraction, 1.0 - hole - 0.05);
  EXPECT_LT(series.back().fraction, 1.0);  // the hole is real
}

TEST(MeasureCoverage, Algorithm4FullyCoversDiskOncePowersReachVisibility) {
  // Full-disk coverage needs the round k_full with 2^{−k} ≤ r (the
  // innermost circle passes within r of the origin) *and* band
  // granularity ≤ r out to d.  For d = 1, r = 0.125 that is k = 3.
  const double d = 1.0, r = 0.125;
  const int k_full = 3;
  CoverageOptions opts;
  opts.visibility = r;
  opts.disk_radius = d;
  opts.cell = 0.02;
  opts.horizon = rv::search::time_first_rounds(k_full);
  opts.checkpoints = 6;
  const auto series =
      measure_coverage(rv::search::make_search_program(),
                       rv::geom::reference_attributes(), opts);
  EXPECT_GE(series.back().fraction, 0.999);
}

TEST(MeasureCoverage, RespectsAreaBudget) {
  // No trajectory can cover area faster than 2r per unit time (plus
  // the initial disk πr²).  Check the invariant on Algorithm 4's
  // measured sweep.
  const double r = 0.15;
  CoverageOptions opts;
  opts.visibility = r;
  opts.disk_radius = 1.5;
  opts.cell = 0.02;
  opts.horizon = 300.0;
  opts.checkpoints = 16;
  const auto series =
      measure_coverage(rv::search::make_search_program(),
                       rv::geom::reference_attributes(), opts);
  for (const auto& pt : series) {
    EXPECT_LE(pt.covered_area,
              2.0 * r * pt.time + rv::mathx::kPi * r * r + 0.05)
        << "t=" << pt.time;
  }
}

TEST(AreaBudget, ClosedFormAndGuards) {
  EXPECT_NEAR(area_budget_time(2.0, 0.1), rv::mathx::kPi * 4.0 / 0.2, 1e-12);
  EXPECT_THROW((void)area_budget_time(0.0, 0.1), std::invalid_argument);
  EXPECT_THROW((void)area_budget_time(1.0, 0.0), std::invalid_argument);
}

TEST(MeasureCoverage, OptionValidation) {
  const auto expect_rejected = [](const CoverageOptions& bad) {
    EXPECT_THROW((void)measure_coverage(rv::search::make_search_program(),
                                        rv::geom::reference_attributes(), bad),
                 std::invalid_argument);
  };
  CoverageOptions bad;
  bad.horizon = 0.0;
  expect_rejected(bad);
  bad = CoverageOptions{};
  bad.horizon = std::numeric_limits<double>::infinity();
  expect_rejected(bad);
  bad = CoverageOptions{};
  bad.checkpoints = 0;
  expect_rejected(bad);
  // The checkpoint cap: the series is sized by it, so values above it
  // (as a hostile cell could declare) are refused before any work.
  bad = CoverageOptions{};
  bad.checkpoints = kMaxCoverageCheckpoints + 1;
  expect_rejected(bad);
  bad.checkpoints = 2000000000;
  expect_rejected(bad);
}

}  // namespace
