#pragma once

/// \file coverage_oracle.hpp
/// Brute-force reference for the coverage rasteriser: the distance from
/// a point to a segment's point set, computed independently of
/// `analysis::CoverageGrid` (clamped projection, atan2 angles, hypot),
/// and a cell-by-cell comparison of a grid against "distance ≤ r".

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <variant>

#include "analysis/coverage.hpp"
#include "geom/vec2.hpp"
#include "mathx/constants.hpp"
#include "traj/segment.hpp"

namespace rv::test {

/// The distance from `q` to the point set of `seg`: clamped projection
/// for a line; for an arc, the radial distance inside its angular
/// range and the nearer end outside it; the point for a wait.
inline double ref_distance(const geom::Vec2& q, const traj::Segment& seg) {
  if (const auto* line = std::get_if<traj::LineSeg>(&seg)) {
    const geom::Vec2 d = line->to - line->from;
    const double dd = geom::dot(d, d);
    if (dd == 0.0) return geom::distance(q, line->from);
    const double t = std::clamp(geom::dot(q - line->from, d) / dd, 0.0, 1.0);
    return geom::distance(q, line->from + t * d);
  }
  if (const auto* arc = std::get_if<traj::ArcSeg>(&seg)) {
    const geom::Vec2 v = q - arc->center;
    const double len = geom::norm(v);
    if (std::abs(arc->sweep) >= mathx::kTwoPi) {
      return std::abs(len - arc->radius);
    }
    const double dir = arc->sweep >= 0.0 ? 1.0 : -1.0;
    double off = std::fmod(dir * (std::atan2(v.y, v.x) - arc->start_angle),
                           mathx::kTwoPi);
    if (off < 0.0) off += mathx::kTwoPi;
    if (len > 0.0 && off <= std::abs(arc->sweep)) {
      return std::abs(len - arc->radius);
    }
    return std::min(geom::distance(q, traj::start_point(seg)),
                    geom::distance(q, traj::end_point(seg)));
  }
  return geom::distance(q, std::get<traj::WaitSeg>(seg).at);
}

/// Cells whose reference distance is within this of r are too close to
/// the boundary for two independent float computations to agree on;
/// the oracle counts them instead of judging them.
inline constexpr double kBoundaryBand = 1e-9;

struct OracleReport {
  int wrong = 0;             ///< cells the grid and the oracle disagree on
  int ambiguous = 0;         ///< cells within kBoundaryBand of the boundary
  std::uint64_t inside = 0;  ///< cells the oracle puts within r
  /// Of those, the cells whose centre lies in the origin disk of radius
  /// `target` (when one is given), and how many cells that disk holds.
  std::uint64_t target_inside = 0;
  std::uint64_t target_cells = 0;
};

/// Compares every cell of `grid` with `distance(centre) ≤ r`; with
/// `target` > 0 also counts the target-disk cells (the predicate of
/// `CoverageGrid::covered_fraction_of_disk`).
inline OracleReport check_against_oracle(
    const analysis::CoverageGrid& grid,
    const std::function<double(geom::Vec2)>& distance, double r,
    double target = 0.0) {
  OracleReport report;
  for (int iy = 0; iy < grid.side(); ++iy) {
    for (int ix = 0; ix < grid.side(); ++ix) {
      const geom::Vec2 q{-grid.extent() + (ix + 0.5) * grid.cell(),
                         -grid.extent() + (iy + 0.5) * grid.cell()};
      const bool in_target = q.x * q.x + q.y * q.y <= target * target;
      report.target_cells += in_target;
      const double d = distance(q);
      if (std::abs(d - r) <= kBoundaryBand) {
        ++report.ambiguous;
        continue;
      }
      const bool want = d < r;
      report.inside += want;
      report.target_inside += want && in_target;
      if (grid.marked(ix, iy) != want) ++report.wrong;
    }
  }
  return report;
}

/// Number of marked cells, counted one by one.
inline std::uint64_t count_marked(const analysis::CoverageGrid& grid) {
  std::uint64_t n = 0;
  for (int iy = 0; iy < grid.side(); ++iy) {
    for (int ix = 0; ix < grid.side(); ++ix) n += grid.marked(ix, iy);
  }
  return n;
}

}  // namespace rv::test
