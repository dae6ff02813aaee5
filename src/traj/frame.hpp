#pragma once

/// \file frame.hpp
/// Mapping local trajectory programs into the global frame.
///
/// A robot with attributes (v, τ, φ, χ) placed at `origin` executes a
/// local program S(·).  Its global position at global time t is
///     origin + (v·τ)·R(φ)·diag(1,χ) · S(t/τ).
/// Under this map each local primitive stays a primitive of the same
/// kind: lines map to lines, circular arcs to circular arcs (radius
/// scaled by v·τ, angles reflected for χ = −1), waits to waits.  The
/// traversal *speed* in the global frame is v (scale v·τ over time
/// dilation τ).
///
/// `GlobalSegmentStream` applies this map lazily to a `Program`,
/// producing the timed global segments the simulator sweeps over.  The
/// map's constants — the frame matrix (one sin/cos pair), the scale v·τ
/// and χ — depend only on the robot, so the stream computes them once,
/// from its validated attributes, and every `next()` reuses them.
/// `to_global_geometry` and the stream share one mapping routine
/// (`GlobalSegmentStream::Frame`), so both produce the same bits.

#include <memory>

#include "geom/attributes.hpp"
#include "geom/mat2.hpp"
#include "traj/program.hpp"
#include "traj/segment.hpp"

namespace rv::traj {

/// A segment placed on the global timeline: the robot occupies
/// `position_at(geometry, progress)` where progress advances uniformly
/// from 0 to duration(geometry) as t goes from t0 to t1.
struct TimedSegment {
  Segment geometry;   ///< global-frame geometry
  double t0 = 0.0;    ///< global start time
  double t1 = 0.0;    ///< global end time (t1 ≥ t0)

  /// Global position at global time t ∈ [t0, t1] (clamped).
  [[nodiscard]] geom::Vec2 position(double t) const;

  /// Constant traversal speed on this segment (0 for waits).
  [[nodiscard]] double speed() const;
};

/// Maps one local segment to global geometry for a robot with the given
/// attributes and origin.  Time fields are *not* filled in (the stream
/// assigns them); the returned segment carries only geometry.
[[nodiscard]] Segment to_global_geometry(const Segment& local,
                                         const geom::RobotAttributes& attrs,
                                         const geom::Vec2& origin);

/// Lazily converts a local `Program` into a stream of global
/// `TimedSegment`s for a robot with given attributes and origin.
class GlobalSegmentStream {
 public:
  GlobalSegmentStream(std::shared_ptr<Program> program,
                      geom::RobotAttributes attrs, geom::Vec2 origin);

  /// Produces the next timed global segment.  Degenerate (zero-time)
  /// segments are skipped automatically.
  [[nodiscard]] TimedSegment next();

  /// Global time reached so far.
  [[nodiscard]] double clock() const { return clock_; }

  /// The robot's attributes.
  [[nodiscard]] const geom::RobotAttributes& attributes() const {
    return attrs_;
  }

  /// The robot's starting position in the global frame.
  [[nodiscard]] const geom::Vec2& origin() const { return frame_.origin; }

 private:
  friend Segment to_global_geometry(const Segment& local,
                                    const geom::RobotAttributes& attrs,
                                    const geom::Vec2& origin);

  /// The constants of one robot's frame map, and the map itself.
  struct Frame {
    Frame(const geom::RobotAttributes& attrs, const geom::Vec2& origin);
    [[nodiscard]] Segment map(const Segment& local) const;

    geom::Mat2 m;        ///< (v·τ)·R(φ)·diag(1,χ)
    double scale;        ///< v·τ
    double chi;          ///< χ as a double
    double orientation;  ///< φ
    double time_unit;    ///< τ
    geom::Vec2 origin;
  };

  std::shared_ptr<Program> program_;
  geom::RobotAttributes attrs_;
  Frame frame_;  ///< built from the validated `attrs_`
  double clock_ = 0.0;
  double clock_comp_ = 0.0;  ///< Kahan compensation
};

}  // namespace rv::traj
