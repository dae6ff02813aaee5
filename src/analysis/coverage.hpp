#pragma once

/// \file coverage.hpp
/// Swept-area coverage accounting.
///
/// The Ω(d²/r) search lower bound (Pelc [25], quoted in Section 2)
/// rests on an area argument: a robot with visibility r sweeps at most
/// 2r of new area per unit of travel, and the disk of radius d has area
/// πd² — so πd²/(2r) time is unavoidable.  This module *measures* the
/// sweep: it rasterises the exact r-neighbourhood of a trajectory onto
/// a grid, one segment piece at a time (a capsule per line, an annular
/// sector plus end caps per arc, a disk per wait), and reports what
/// fraction of a target disk has been covered as a function of time.
/// The benches use it to show Algorithm 4 approaches the 2r·t area
/// budget with small constant waste, while mis-tuned variants (A3
/// spacing ablation) either re-cover or leave gaps.

#include <cstdint>
#include <memory>
#include <vector>

#include "geom/attributes.hpp"
#include "geom/vec2.hpp"
#include "traj/program.hpp"
#include "traj/segment.hpp"

namespace rv::analysis {

/// Largest accepted `CoverageOptions::checkpoints` (and `.rvset`
/// `checkpoints`): bounds the series a hostile cell can ask for.
inline constexpr int kMaxCoverageCheckpoints = 65536;

/// A square occupancy grid over [−extent, extent]², one bit per cell.
///
/// A cell is marked when its centre lies within the given radius of a
/// marked shape.  Each shape is filled row by row: the run ends come
/// from closed forms, then each end is settled with the exact per-cell
/// predicate, so the marked set equals a brute-force scan of every
/// cell.
class CoverageGrid {
 public:
  /// `extent` is the half-width of the window; `cell` the cell size.
  /// \throws std::invalid_argument on non-positive sizes or absurd
  /// resolutions (> 4096² cells).
  CoverageGrid(double extent, double cell);

  /// Marks every cell whose centre lies within `radius` of `p`.
  void mark_disk(const geom::Vec2& p, double radius);

  /// Marks every cell whose centre lies within `radius` of the point
  /// set of `seg`: a capsule for a line, a disk for a wait, and for an
  /// arc the annular sector of its sweep (split into pieces of at most
  /// π/2; a sweep of 2π or more is the whole annulus) plus the disks
  /// at its two ends.  With `start_cap` false the disk around the
  /// start point is left out (a wait then marks nothing): for a piece
  /// that continues a path whose previous piece marked its end disk.
  void mark_segment(const traj::Segment& seg, double radius,
                    bool start_cap = true);

  /// True when cell (ix, iy) is marked; ix indexes x, iy indexes y.
  [[nodiscard]] bool marked(int ix, int iy) const;

  /// Fraction of cells inside the disk of radius `disk_radius`
  /// (centred at the origin) that are marked.  Scans the grid.
  [[nodiscard]] double covered_fraction_of_disk(double disk_radius) const;

  /// Makes the origin disk of radius `disk_radius` the tracked target:
  /// from here on every mark counts its new cells inside that disk, so
  /// `tracked_fraction()` is O(1) and equals
  /// `covered_fraction_of_disk(disk_radius)` bit for bit.
  /// \throws std::invalid_argument when `disk_radius` ≤ 0.
  void track_disk(double disk_radius);

  /// Marked fraction of the tracked disk (0 before `track_disk`).
  [[nodiscard]] double tracked_fraction() const;

  /// Total marked area (cells × cell²).
  [[nodiscard]] double covered_area() const;

  /// Number of marked cells.
  [[nodiscard]] std::uint64_t marked_cells() const { return marked_; }

  /// Grid geometry.
  [[nodiscard]] double extent() const { return extent_; }
  [[nodiscard]] double cell() const { return cell_; }
  [[nodiscard]] int side() const { return side_; }

 private:
  /// A closed run [lo, hi] of cell indices (empty when lo > hi).
  struct Run {
    int lo = 0;
    int hi = -1;
  };

  double extent_;
  double cell_;
  double inv_cell_;                  ///< 1 / cell_, for run candidates
  int side_;
  int words_;                        ///< 64-bit words per row
  std::vector<std::uint64_t> bits_;  ///< row-major, `words_` per row
  std::uint64_t marked_ = 0;
  std::vector<Run> target_;          ///< per row: cells in the tracked disk
  std::uint64_t target_cells_ = 0;
  std::uint64_t target_marked_ = 0;

  [[nodiscard]] double centre(int i) const {
    return -extent_ + (i + 0.5) * cell_;
  }
  /// The cells whose centres lie in [lo, hi], clipped to the grid.
  [[nodiscard]] Run span(double lo, double hi) const;
  /// Narrows `run` to the cells (by index) that `inside` accepts.
  template <typename Inside>
  [[nodiscard]] Run settle(Run run, const Inside& inside) const;
  /// Fills the cells of row `iy` in [xl, xh] whose centre x `inside`
  /// accepts; [xl, xh] must hold all of them.
  template <typename Inside>
  void mark_run(int iy, double xl, double xh, const Inside& inside);
  void fill(int iy, Run run);
  void mark_band(const geom::Vec2& a, const geom::Vec2& b, double radius);
  void mark_arc(const traj::ArcSeg& arc, double radius, bool start_cap);
  template <typename Angular>
  void mark_annular(const geom::Vec2& c, double rho, double radius, Run rows,
                    const Angular& angular);
};

/// One point of a coverage-vs-time series.
struct CoveragePoint {
  double time = 0.0;
  double fraction = 0.0;      ///< covered fraction of the target disk
  double covered_area = 0.0;  ///< absolute marked area
};

/// Options for the sweep measurement.
struct CoverageOptions {
  double visibility = 0.1;   ///< r: neighbourhood radius of the robot
  double horizon = 1e4;      ///< how long to run the program
  double disk_radius = 2.0;  ///< the target disk for fractions
  double cell = 0.02;        ///< grid resolution
  int checkpoints = 32;      ///< series points (≤ kMaxCoverageCheckpoints)
};

/// Runs `program` (with `attrs`, from the origin) for `horizon` time,
/// marking the r-neighbourhood along the way, and returns the coverage
/// series.  Checkpoint k (1 ≤ k ≤ checkpoints) is taken at exactly
/// k·horizon/checkpoints: each segment is clipped to the checkpoint
/// windows it crosses and each piece's swept region is marked whole
/// (`CoverageGrid::mark_segment`).
/// \throws std::invalid_argument on a non-positive or infinite horizon,
/// a non-positive visibility, `checkpoints` outside
/// [1, kMaxCoverageCheckpoints], or bad grid geometry.
[[nodiscard]] std::vector<CoveragePoint> measure_coverage(
    std::shared_ptr<traj::Program> program,
    const geom::RobotAttributes& attrs, const CoverageOptions& options);

/// The area-budget lower bound on the time to cover a disk of radius R
/// at visibility r: πR²/(2r) (the [25] accounting, up to constants).
[[nodiscard]] double area_budget_time(double disk_radius, double r);

/// First checkpoint of the series with covered fraction ≥ `fraction`,
/// or nullptr when the series never reaches it.
[[nodiscard]] const CoveragePoint* first_at_fraction(
    const std::vector<CoveragePoint>& series, double fraction);

/// Time of that checkpoint, or −1.0 when the fraction is never reached
/// (the benches' ">horizon" sentinel).
[[nodiscard]] double time_to_fraction(
    const std::vector<CoveragePoint>& series, double fraction);

}  // namespace rv::analysis
