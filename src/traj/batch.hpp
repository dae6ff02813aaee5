#pragma once

/// \file batch.hpp
/// SoA batched position evaluation over a fleet's current segments.
///
/// The certified sweep (engine/contact_sweep.hpp) evaluates every
/// robot's position at every sweep/bisection point.  Doing that through
/// `TimedSegment::position` costs a `std::variant` dispatch, a
/// `duration()` recompute and several branches per robot per
/// evaluation.  `BatchedPositions` packs each robot's current segment
/// into one slot of struct-of-arrays coefficient buffers (a one-byte
/// kind tag plus contiguous doubles) and then advances all n positions
/// for a query time in a single pass — a dense switch over the tag
/// array with no variant or virtual dispatch, the loop the compiler can
/// keep in registers and vectorize across the line-heavy common case.
///
/// Slots are packed one at a time by `update(i, seg)`: a sweep window
/// usually changes one robot's segment, so the sweep repacks only the
/// slots whose robot pulled a new segment.  `assemble` is the same
/// routine run over every slot.  Packing also stores the slot's
/// traversal speed (`TimedSegment::speed()`, bit for bit, from the
/// `duration()` packing computes anyway), so the sweep's Lipschitz
/// bound needs no per-step variant dispatch.
///
/// The evaluator is a *bitwise* drop-in: for every segment kind it
/// replays the exact floating-point operation sequence of
/// `TimedSegment::position` / `traj::position_at` (same divisions, same
/// clamps, same order), so positions — and therefore every downstream
/// metric, event time and golden byte — are identical to the scalar
/// path.  Pinned by tests/test_traj.cpp on randomized segment soups,
/// for whole-fleet assembly and for slot updates in random order.

#include <cstdint>
#include <vector>

#include "geom/vec2.hpp"
#include "traj/frame.hpp"

namespace rv::traj {

/// Batched evaluator of one position per assembled segment.
class BatchedPositions {
 public:
  /// Rebuilds the SoA buffers from the fleet's current timed segments:
  /// resizes to `segments.size()` slots and packs each by `update`.
  void assemble(const std::vector<TimedSegment>& segments);

  /// Repacks slot i (i < size()) from `seg`; the other slots keep
  /// their segments.  Call when robot i's current segment changes.
  void update(std::size_t i, const TimedSegment& seg);

  /// Writes position i of every assembled segment at global time t into
  /// `out[i]`.  `out` must hold at least `size()` elements.  Bitwise
  /// identical to calling `segments[i].position(t)` for each i.
  void positions(double t, geom::Vec2* out) const;

  /// Number of assembled segments.
  [[nodiscard]] std::size_t size() const { return kind_.size(); }

  /// Per-slot traversal speeds: `speeds()[i]` is bitwise
  /// `seg.speed()` of the segment last packed into slot i.
  [[nodiscard]] const std::vector<double>& speeds() const { return speed_; }

 private:
  // One-byte dispatch tag per robot.
  enum class Kind : std::uint8_t {
    kConstant,  ///< waits and degenerate segments: position is fixed
    kLine,      ///< p(t) = a + u(t)·b with b = to − from
    kArc,       ///< p(t) = a + radius·(cos θ(t), sin θ(t))
  };

  std::vector<Kind> kind_;
  std::vector<double> t0_;    ///< segment start time (kLine/kArc)
  std::vector<double> span_;  ///< t1 − t0 (kLine/kArc)
  std::vector<double> dur_;   ///< local duration (kLine/kArc)
  std::vector<double> ax_, ay_;  ///< kConstant: the point; kLine: from;
                                 ///< kArc: center
  std::vector<double> bx_, by_;  ///< kLine: to − from; kArc: start angle,
                                 ///< sweep
  std::vector<double> radius_;   ///< kArc only
  std::vector<double> speed_;    ///< TimedSegment::speed(), every kind
};

}  // namespace rv::traj
