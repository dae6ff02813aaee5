#include "traj/frame.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace rv::traj {

using geom::RobotAttributes;
using geom::Vec2;

Vec2 TimedSegment::position(double t) const {
  const double span = t1 - t0;
  const double dur = duration(geometry);
  if (span <= 0.0 || dur == 0.0) return start_point(geometry);
  double frac = (t - t0) / span;
  frac = std::clamp(frac, 0.0, 1.0);
  return position_at(geometry, frac * dur);
}

double TimedSegment::speed() const {
  if (std::holds_alternative<WaitSeg>(geometry)) return 0.0;
  const double span = t1 - t0;
  if (span <= 0.0) return 0.0;
  return duration(geometry) / span;
}

GlobalSegmentStream::Frame::Frame(const RobotAttributes& attrs,
                                  const Vec2& origin)
    : m(frame_matrix(attrs)),
      scale(attrs.speed * attrs.time_unit),
      chi(static_cast<double>(attrs.chirality)),
      orientation(attrs.orientation),
      time_unit(attrs.time_unit),
      origin(origin) {}

Segment GlobalSegmentStream::Frame::map(const Segment& local) const {
  if (const auto* line = std::get_if<LineSeg>(&local)) {
    return LineSeg{origin + m * line->from, origin + m * line->to};
  }
  if (const auto* arc = std::get_if<ArcSeg>(&local)) {
    // Under x ↦ s·R(φ)·diag(1,χ)·x a point at angle θ on the circle
    // maps to a point at angle φ + χ·θ on the scaled circle: the
    // chirality flip conjugates the angle, the rotation shifts it.
    return ArcSeg{origin + m * arc->center, scale * arc->radius,
                  orientation + chi * arc->start_angle, chi * arc->sweep};
  }
  const auto& wait = std::get<WaitSeg>(local);
  return WaitSeg{origin + m * wait.at, time_unit * wait.duration};
}

Segment to_global_geometry(const Segment& local, const RobotAttributes& attrs,
                           const Vec2& origin) {
  return GlobalSegmentStream::Frame(attrs, origin).map(local);
}

GlobalSegmentStream::GlobalSegmentStream(std::shared_ptr<Program> program,
                                         RobotAttributes attrs, Vec2 origin)
    : program_(std::move(program)),
      attrs_(geom::validated(attrs)),
      frame_(attrs_, origin) {
  if (!program_) {
    throw std::invalid_argument("GlobalSegmentStream: null program");
  }
}

TimedSegment GlobalSegmentStream::next() {
  for (;;) {
    const Segment local = program_->next();
    // Failure injection barrier: a buggy program must fail loudly here
    // rather than corrupt the contact sweep with NaN geometry.
    validate(local);
    const double global_dur = attrs_.time_unit * duration(local);
    if (global_dur <= 0.0) continue;  // skip degenerate segments

    Segment global = frame_.map(local);
    const double t0 = clock_ + clock_comp_;
    // Kahan-compensated clock advance.
    const double x = global_dur;
    const double t = clock_ + x;
    if (std::abs(clock_) >= std::abs(x)) {
      clock_comp_ += (clock_ - t) + x;
    } else {
      clock_comp_ += (x - t) + clock_;
    }
    clock_ = t;
    return TimedSegment{std::move(global), t0, clock_ + clock_comp_};
  }
}

}  // namespace rv::traj
