#include "analysis/coverage.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <variant>

#include "mathx/constants.hpp"
#include "traj/frame.hpp"

namespace rv::analysis {

using geom::Vec2;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Closed-form run ends are widened by this many cells (through the
/// radii and the half-plane offsets) before the exact predicate settles
/// them, so rounding in a square root or a division can add a
/// candidate cell but never lose a marked one.
constexpr double kSlackCells = 1e-6;

/// Narrows [lo, hi] to the w with lo_c ≤ coef·w + k ≤ hi_c, given
/// inv = 1/coef; false when that leaves nothing.
bool restrict_linear(double coef, double inv, double k, double lo_c,
                     double hi_c, double& lo, double& hi) {
  if (coef == 0.0) return lo_c <= k && k <= hi_c;
  double a = (lo_c - k) * inv;
  double b = (hi_c - k) * inv;
  if (coef < 0.0) std::swap(a, b);
  lo = std::max(lo, a);
  hi = std::min(hi, b);
  return lo <= hi;
}

/// No angular limit: the annulus of a full turn.
struct FullTurn {
  [[nodiscard]] bool narrow(double /*dy*/, double& /*lo*/,
                            double& /*hi*/) const {
    return true;
  }
  [[nodiscard]] bool contains(double /*vx*/, double /*dy*/) const {
    return true;
  }
};

/// The wedge from angle `start` counter-clockwise by `sweep` ≤ π/2,
/// apex at the arc centre: with v = q − c it is cross(ea, v) ≥ 0 ∧
/// cross(v, eb) ≥ 0, each linear in v.x along a row.
struct Wedge {
  Wedge(double start, double sweep, double slack)
      : ea(geom::unit(start)),
        eb(geom::unit(start + sweep)),
        inv_a(-1.0 / ea.y),
        inv_b(1.0 / eb.y),
        slack(slack) {}

  /// Narrows the v.x range of row `dy` to the wedge (widened by
  /// `slack`); false when the row misses it.
  [[nodiscard]] bool narrow(double dy, double& lo, double& hi) const {
    return restrict_linear(-ea.y, inv_a, ea.x * dy, -slack, kInf, lo, hi) &&
           restrict_linear(eb.y, inv_b, -dy * eb.x, -slack, kInf, lo, hi);
  }
  [[nodiscard]] bool contains(double vx, double dy) const {
    return ea.x * dy - ea.y * vx >= 0.0 && vx * eb.y - dy * eb.x >= 0.0;
  }

  Vec2 ea, eb;
  double inv_a, inv_b;
  double slack;
};

/// The bits of word `w` of a row that lie in the cell run [lo, hi].
std::uint64_t word_mask(int w, int lo, int hi) {
  const int base = w * 64;
  if (hi < base || lo > base + 63) return 0;
  const int a = std::max(lo - base, 0);
  const int b = std::min(hi - base, 63);
  return (~std::uint64_t{0} << a) & (~std::uint64_t{0} >> (63 - b));
}

/// Set bits of `x`, inline (std::popcount is a libgcc call on baseline
/// x86-64, and the fill counts two words per run).
int popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555u;
  x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fu;
  return static_cast<int>((x * 0x0101010101010101u) >> 56);
}

/// True when angle `phi` lies in the counter-clockwise range
/// [start, start + sweep], sweep ∈ [0, 2π).
bool in_ccw_range(double phi, double start, double sweep) {
  double d = std::fmod(phi - start, mathx::kTwoPi);
  if (d < 0.0) d += mathx::kTwoPi;
  return d <= sweep;
}

/// The part of `seg` traversed during [a, b] ⊆ [seg.t0, seg.t1].
traj::Segment piece(const traj::TimedSegment& seg, double a, double b) {
  const double span = seg.t1 - seg.t0;
  const double f0 = a <= seg.t0 ? 0.0 : (a - seg.t0) / span;
  const double f1 = b >= seg.t1 ? 1.0 : (b - seg.t0) / span;
  if (const auto* line = std::get_if<traj::LineSeg>(&seg.geometry)) {
    return traj::LineSeg{
        f0 == 0.0 ? line->from : geom::lerp(line->from, line->to, f0),
        f1 == 1.0 ? line->to : geom::lerp(line->from, line->to, f1)};
  }
  if (const auto* arc = std::get_if<traj::ArcSeg>(&seg.geometry)) {
    return traj::ArcSeg{arc->center, arc->radius,
                        arc->start_angle + arc->sweep * f0,
                        arc->sweep * (f1 - f0)};
  }
  return seg.geometry;
}

}  // namespace

CoverageGrid::CoverageGrid(double extent, double cell)
    : extent_(extent), cell_(cell) {
  if (!(extent > 0.0) || !(cell > 0.0)) {
    throw std::invalid_argument("CoverageGrid: non-positive sizes");
  }
  const double cells = std::ceil(2.0 * extent / cell);
  if (cells > 4096.0) {
    throw std::invalid_argument("CoverageGrid: resolution too fine");
  }
  side_ = static_cast<int>(cells);
  inv_cell_ = 1.0 / cell;
  words_ = (side_ + 63) / 64;
  bits_.assign(static_cast<std::size_t>(words_) * side_, 0);
}

inline CoverageGrid::Run CoverageGrid::span(double lo, double hi) const {
  // Continuous cell coordinates, clamped into [−1, side] before any
  // integer conversion; a NaN end widens the run to the grid edge and
  // the predicate settles it.  `a` is rounded up and `b` down by
  // truncating and correcting: std::ceil/floor are library calls on
  // baseline x86-64, and this runs per row.
  const double last = side_ - 1;
  double a = (lo + extent_) * inv_cell_ - 0.5;
  double b = (hi + extent_) * inv_cell_ - 0.5;
  a = a > -1.0 ? (a < last + 1.0 ? a : last + 1.0) : -1.0;
  b = b < last + 1.0 ? (b > -1.0 ? b : -1.0) : last + 1.0;
  Run run;
  run.lo = static_cast<int>(a);
  if (run.lo < a) ++run.lo;
  run.hi = static_cast<int>(b);
  if (run.hi > b) --run.hi;
  run.lo = std::max(run.lo, 0);
  run.hi = std::min(run.hi, side_ - 1);
  return run;
}

template <typename Inside>
CoverageGrid::Run CoverageGrid::settle(Run run, const Inside& inside) const {
  // `run` holds every cell `inside` accepts, and those cells are
  // contiguous: shrink to the first and last accepted cell, then step
  // outwards while the neighbours are accepted too (a guard against a
  // closed form that came up short).
  while (run.lo <= run.hi && !inside(run.lo)) ++run.lo;
  while (run.hi >= run.lo && !inside(run.hi)) --run.hi;
  if (run.lo > run.hi) return run;
  while (run.lo > 0 && inside(run.lo - 1)) --run.lo;
  while (run.hi < side_ - 1 && inside(run.hi + 1)) ++run.hi;
  return run;
}

template <typename Inside>
void CoverageGrid::mark_run(int iy, double xl, double xh,
                            const Inside& inside) {
  const Run run = settle(span(xl, xh),
                         [&](int ix) { return inside(centre(ix)); });
  if (run.lo <= run.hi) fill(iy, run);
}

inline void CoverageGrid::fill(int iy, Run run) {
  std::uint64_t* row = bits_.data() + static_cast<std::size_t>(iy) * words_;
  const Run target = target_.empty() ? Run{} : target_[iy];
  for (int w = run.lo >> 6; w <= run.hi >> 6; ++w) {
    const std::uint64_t fresh = word_mask(w, run.lo, run.hi) & ~row[w];
    if (fresh == 0) continue;
    row[w] |= fresh;
    marked_ += popcount64(fresh);
    target_marked_ +=
        popcount64(fresh & word_mask(w, target.lo, target.hi));
  }
}

void CoverageGrid::mark_disk(const Vec2& p, double radius) {
  if (!(radius >= 0.0) || !geom::is_finite(p)) return;
  const double r2 = radius * radius;
  const double wide = radius + kSlackCells * cell_;
  const Run rows = span(p.y - wide, p.y + wide);
  for (int iy = rows.lo; iy <= rows.hi; ++iy) {
    const double dy = centre(iy) - p.y;
    const double dy2 = dy * dy;
    const double h2 = wide * wide - dy2;
    if (h2 < 0.0) continue;
    const double h = std::sqrt(h2);
    mark_run(iy, p.x - h, p.x + h, [&](double x) {
      return (x - p.x) * (x - p.x) + dy2 <= r2;
    });
  }
}

void CoverageGrid::mark_band(const Vec2& a, const Vec2& b, double radius) {
  // The cells whose centre projects into the segment and lies within
  // `radius` of its line: with d = b − a and w = x − a.x on a row at
  // height a.y + dy, t = (q−a)·d ∈ [0, |d|²] and n = d × (q−a) ∈
  // [−radius·|d|, radius·|d|], both linear in w.
  const Vec2 d = b - a;
  const double dd = geom::dot(d, d);
  if (!(dd > 0.0)) return;
  const double len = std::sqrt(dd);
  const double rl = radius * len;
  const double slack = kSlackCells * cell_ * len;
  const double wide = radius + kSlackCells * cell_;
  const double inv_t = 1.0 / d.x;
  const double inv_n = -1.0 / d.y;
  const Run rows = span(std::min(a.y, b.y) - wide, std::max(a.y, b.y) + wide);
  for (int iy = rows.lo; iy <= rows.hi; ++iy) {
    const double dy = centre(iy) - a.y;
    const double t0 = dy * d.y;  // t = w·d.x + t0
    const double n0 = dy * d.x;  // n = n0 − w·d.y
    double lo = -kInf, hi = kInf;
    if (!restrict_linear(d.x, inv_t, t0, -slack, dd + slack, lo, hi) ||
        !restrict_linear(-d.y, inv_n, n0, -rl - slack, rl + slack, lo, hi)) {
      continue;
    }
    mark_run(iy, a.x + lo, a.x + hi, [&](double x) {
      const double w = x - a.x;
      const double t = w * d.x + t0;
      const double n = n0 - w * d.y;
      return t >= 0.0 && t <= dd && n >= -rl && n <= rl;
    });
  }
}

template <typename Angular>
void CoverageGrid::mark_annular(const Vec2& c, double rho, double radius,
                                Run rows, const Angular& angular) {
  // The cells whose centre q lies in the annulus ρ−r ≤ |q−c| ≤ ρ+r and
  // in `angular`.  With v = q − c, a row that misses the inner disk is
  // one run; a row that cuts it is split at v.x = 0, and each side is
  // one run.
  const double ro = rho + radius;
  const double ri = rho - radius;
  const double ro2 = ro * ro;
  const double ri2 = ri > 0.0 ? ri * ri : -1.0;
  const double slack = kSlackCells * cell_;
  const double ro_w = ro + slack;
  const double ri_w = ri - slack;
  for (int iy = rows.lo; iy <= rows.hi; ++iy) {
    const double dy = centre(iy) - c.y;
    const double dy2 = dy * dy;
    const double ho2 = ro_w * ro_w - dy2;
    if (ho2 < 0.0) continue;
    const double wo = std::sqrt(ho2);
    double lo = -wo, hi = wo;
    if (!angular.narrow(dy, lo, hi)) continue;
    const auto inside = [&](double vx) {
      const double q2 = vx * vx + dy2;
      return q2 <= ro2 && q2 >= ri2 && angular.contains(vx, dy);
    };
    if (dy2 >= ri2) {  // then q2 ≥ ri2 on the whole row
      mark_run(iy, c.x + lo, c.x + hi,
               [&](double x) { return inside(x - c.x); });
      continue;
    }
    const double hi2 = ri_w > 0.0 ? ri_w * ri_w - dy2 : -1.0;
    const double wi = hi2 > 0.0 ? std::sqrt(hi2) : 0.0;
    if (lo <= std::min(hi, -wi)) {
      mark_run(iy, c.x + lo, c.x + std::min(hi, -wi), [&](double x) {
        const double vx = x - c.x;
        return vx <= 0.0 && inside(vx);
      });
    }
    if (std::max(lo, wi) <= hi) {
      mark_run(iy, c.x + std::max(lo, wi), c.x + hi, [&](double x) {
        const double vx = x - c.x;
        return vx >= 0.0 && inside(vx);
      });
    }
  }
}

void CoverageGrid::mark_arc(const traj::ArcSeg& arc, double radius,
                            bool start_cap) {
  const double slack = kSlackCells * cell_;
  const double reach = arc.radius + radius + slack;
  // Nothing to do when every cell centre lies inside the inner disk or
  // outside the outer one.  The centres span [first, last] on both
  // axes (the last cell may reach past `extent`).
  const double first = centre(0);
  const double last = centre(side_ - 1);
  const auto gap = [&](double v) {
    return std::max({first - v, v - last, 0.0});
  };
  const auto far = [&](double v) {
    return std::max(std::abs(v - first), std::abs(v - last));
  };
  const double gx = gap(arc.center.x), gy = gap(arc.center.y);
  const double fx = far(arc.center.x), fy = far(arc.center.y);
  if (gx * gx + gy * gy > reach * reach) return;
  const double hole = arc.radius - radius - slack;
  if (hole > 0.0 && fx * fx + fy * fy < hole * hole) return;

  const double turn = std::abs(arc.sweep);
  if (turn >= mathx::kTwoPi) {
    // A full turn: the whole annulus.  Its end caps lie inside it.
    mark_annular(arc.center, arc.radius, radius,
                 span(arc.center.y - reach, arc.center.y + reach),
                 FullTurn{});
    return;
  }
  const int pieces = std::max(
      1, static_cast<int>(std::ceil(turn / (0.5 * mathx::kPi))));
  const double step = turn / pieces;
  const double from =
      arc.sweep < 0.0 ? arc.start_angle + arc.sweep : arc.start_angle;
  for (int i = 0; i < pieces; ++i) {
    const double start = from + i * step;
    // Rows: the piece's y-range (its ends, plus the top or bottom of
    // the circle when the piece passes it), widened by the radius.
    const Wedge wedge(start, step, slack);
    double y_lo = std::min(wedge.ea.y, wedge.eb.y);
    double y_hi = std::max(wedge.ea.y, wedge.eb.y);
    if (in_ccw_range(0.5 * mathx::kPi, start, step)) y_hi = 1.0;
    if (in_ccw_range(1.5 * mathx::kPi, start, step)) y_lo = -1.0;
    mark_annular(arc.center, arc.radius, radius,
                 span(arc.center.y + arc.radius * y_lo - radius - slack,
                      arc.center.y + arc.radius * y_hi + radius + slack),
                 wedge);
  }
  const traj::Segment seg = arc;
  if (start_cap) mark_disk(traj::start_point(seg), radius);
  mark_disk(traj::end_point(seg), radius);
}

void CoverageGrid::mark_segment(const traj::Segment& seg, double radius,
                                bool start_cap) {
  if (!(radius >= 0.0)) return;
  if (const auto* line = std::get_if<traj::LineSeg>(&seg)) {
    if (!geom::is_finite(line->from) || !geom::is_finite(line->to)) return;
    mark_band(line->from, line->to, radius);
    if (start_cap) mark_disk(line->from, radius);
    mark_disk(line->to, radius);
    return;
  }
  if (const auto* arc = std::get_if<traj::ArcSeg>(&seg)) {
    if (!geom::is_finite(arc->center) || !std::isfinite(arc->radius) ||
        !std::isfinite(arc->start_angle) || !std::isfinite(arc->sweep)) {
      return;
    }
    mark_arc(*arc, radius, start_cap);
    return;
  }
  if (start_cap) mark_disk(std::get<traj::WaitSeg>(seg).at, radius);
}

bool CoverageGrid::marked(int ix, int iy) const {
  if (ix < 0 || iy < 0 || ix >= side_ || iy >= side_) return false;
  const std::uint64_t word =
      bits_[static_cast<std::size_t>(iy) * words_ + (ix >> 6)];
  return ((word >> (ix & 63)) & 1u) != 0;
}

double CoverageGrid::covered_fraction_of_disk(double disk_radius) const {
  if (!(disk_radius > 0.0)) {
    throw std::invalid_argument("covered_fraction_of_disk: radius <= 0");
  }
  const double r2 = disk_radius * disk_radius;
  std::uint64_t inside = 0, covered = 0;
  for (int iy = 0; iy < side_; ++iy) {
    const double cy = centre(iy);
    for (int ix = 0; ix < side_; ++ix) {
      const double cx = centre(ix);
      if (cx * cx + cy * cy > r2) continue;
      ++inside;
      if (marked(ix, iy)) ++covered;
    }
  }
  if (inside == 0) return 0.0;
  return static_cast<double>(covered) / static_cast<double>(inside);
}

void CoverageGrid::track_disk(double disk_radius) {
  if (!(disk_radius > 0.0)) {
    throw std::invalid_argument("track_disk: radius <= 0");
  }
  const double r2 = disk_radius * disk_radius;
  const double wide = disk_radius + kSlackCells * cell_;
  target_.assign(static_cast<std::size_t>(side_), Run{});
  target_cells_ = 0;
  target_marked_ = 0;
  for (int iy = 0; iy < side_; ++iy) {
    const double cy2 = centre(iy) * centre(iy);
    const double h2 = wide * wide - cy2;
    if (h2 < 0.0) continue;
    const double h = std::sqrt(h2);
    const auto inside = [&](int ix) {
      return centre(ix) * centre(ix) + cy2 <= r2;
    };
    const Run run = settle(span(-h, h), inside);
    if (run.lo > run.hi) continue;
    target_[iy] = run;
    target_cells_ += static_cast<std::uint64_t>(run.hi - run.lo + 1);
    const std::uint64_t* row =
        bits_.data() + static_cast<std::size_t>(iy) * words_;
    for (int w = run.lo >> 6; w <= run.hi >> 6; ++w) {
      target_marked_ += popcount64(row[w] & word_mask(w, run.lo, run.hi));
    }
  }
}

double CoverageGrid::tracked_fraction() const {
  if (target_cells_ == 0) return 0.0;
  return static_cast<double>(target_marked_) /
         static_cast<double>(target_cells_);
}

double CoverageGrid::covered_area() const {
  return static_cast<double>(marked_) * cell_ * cell_;
}

std::vector<CoveragePoint> measure_coverage(
    std::shared_ptr<traj::Program> program,
    const geom::RobotAttributes& attrs, const CoverageOptions& options) {
  if (!(options.horizon > 0.0) || !std::isfinite(options.horizon) ||
      !(options.visibility > 0.0) || options.checkpoints < 1 ||
      options.checkpoints > kMaxCoverageCheckpoints) {
    throw std::invalid_argument("measure_coverage: bad options");
  }
  // Window must include everything the robot can reach plus its
  // visibility halo, clipped to the disk of interest for economy.
  const double extent = options.disk_radius + options.visibility + 1e-9;
  CoverageGrid grid(extent, options.cell);
  grid.track_disk(options.disk_radius);

  traj::GlobalSegmentStream stream(std::move(program), attrs, {0.0, 0.0});
  const int n = options.checkpoints;
  std::vector<CoveragePoint> series;
  series.reserve(static_cast<std::size_t>(n));
  traj::TimedSegment seg = stream.next();
  double from = 0.0;
  for (int k = 1; k <= n; ++k) {
    const double until = options.horizon * (static_cast<double>(k) / n);
    // Mark the path over [from, until], segment by clipped segment; a
    // segment that runs past `until` is carried into the next window.
    // The path is continuous, so only its very first piece marks a
    // start disk: every later one starts where the last one ended.
    while (seg.t0 < until) {
      grid.mark_segment(piece(seg, from, until), options.visibility,
                        /*start_cap=*/from == 0.0 && seg.t0 == 0.0);
      if (seg.t1 > until) break;
      seg = stream.next();
    }
    series.push_back(
        CoveragePoint{until, grid.tracked_fraction(), grid.covered_area()});
    from = until;
  }
  return series;
}

double area_budget_time(double disk_radius, double r) {
  if (!(disk_radius > 0.0) || !(r > 0.0)) {
    throw std::invalid_argument("area_budget_time: need positive sizes");
  }
  return rv::mathx::kPi * disk_radius * disk_radius / (2.0 * r);
}

const CoveragePoint* first_at_fraction(
    const std::vector<CoveragePoint>& series, double fraction) {
  for (const CoveragePoint& pt : series) {
    if (pt.fraction >= fraction) return &pt;
  }
  return nullptr;
}

double time_to_fraction(const std::vector<CoveragePoint>& series,
                        double fraction) {
  const CoveragePoint* pt = first_at_fraction(series, fraction);
  return pt ? pt->time : -1.0;
}

}  // namespace rv::analysis
