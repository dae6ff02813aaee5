#pragma once

/// \file emitter.hpp
/// O(1)-memory segment generator for Search(k) (Algorithm 3).
///
/// Search(k) contains Θ(4ᵏ) circles; materialising a Path would need
/// gigabytes for the round counts the rendezvous experiments reach.
/// `SearchRoundEmitter` walks the (j, i, phase) state machine instead,
/// emitting one segment at a time:
///   for j = 0..2k−1:  for i = 0..2^{2k−j}:  out, arc, back
/// followed by the round-final wait.  The powers of two in the circle
/// radii depend only on (k, j), so they are computed once per sub-round
/// (`ldexp` is exact: the same bits as recomputing them per segment).
///
/// Emission is the innermost loop of every Algorithm 4/7 run, so
/// `next()` is inline: it builds the segment in place in the return
/// slot and leaves only the once-per-sub-round reload and the round's
/// final wait (with the exhausted-emitter error) out of line.  It also
/// records the *local duration* of the segment it returned
/// (`last_duration()`), equal bit for bit to `traj::duration` of it, so
/// programs that keep a local clock need not re-measure the segment.

#include <cstdint>

#include "mathx/constants.hpp"
#include "traj/segment.hpp"

namespace rv::search {

/// Emits the segments of one Search(k) round, in order, in O(1) space.
class SearchRoundEmitter {
 public:
  /// \throws std::invalid_argument for k < 1 (or k > 30, where the
  /// circle counter would overflow practical limits).
  explicit SearchRoundEmitter(int k);

  /// True when all segments (including the final wait) were emitted.
  [[nodiscard]] bool done() const { return done_; }

  /// Next segment.  \throws std::logic_error when done().
  [[nodiscard]] traj::Segment next() {
    if (j_ >= 2 * k_) [[unlikely]] return final_wait();
    const double radius = inner_ + 2.0 * static_cast<double>(i_) * rho_;
    const int phase = phase_;
    if (++phase_ == 3) {
      phase_ = 0;
      if (++i_ > m_) [[unlikely]] next_sub_round();
    }
    // The duration of each shape is the one `traj::duration` measures:
    // hypot(±r, ±0) == r exactly (C Annex F), and an arc's is r·|2π|.
    switch (phase) {
      case 0:
        last_duration_ = radius;
        return traj::LineSeg{{0.0, 0.0}, {radius, 0.0}};
      case 1:
        last_duration_ = radius * rv::mathx::kTwoPi;
        return traj::ArcSeg{{0.0, 0.0}, radius, 0.0, rv::mathx::kTwoPi};
      default:
        last_duration_ = radius;
        return traj::LineSeg{{radius, 0.0}, {0.0, 0.0}};
    }
  }

  /// Local duration of the segment the last `next()` returned, equal
  /// bit for bit to `traj::duration` of it (0 before the first call).
  [[nodiscard]] double last_duration() const { return last_duration_; }

  /// Round parameter k.
  [[nodiscard]] int k() const { return k_; }

  /// Total number of segments this emitter will produce.
  [[nodiscard]] std::uint64_t total_segments() const;

 private:
  int k_;
  int j_ = 0;               ///< sub-round (annulus) index, 0..2k−1
  std::uint64_t i_ = 0;     ///< circle index within the sub-round
  std::uint64_t m_ = 0;     ///< last circle index of this sub-round
  int phase_ = 0;           ///< 0 = line out, 1 = arc, 2 = line back
  double inner_ = 0.0;      ///< 2^{−k+j}: radius of the sub-round's circle 0
  double rho_ = 0.0;        ///< 2^{−3k+2j−1}: half the radius step
  double last_duration_ = 0.0;
  bool done_ = false;

  /// Steps to sub-round j+1 (the final wait follows the last one).
  void next_sub_round();
  void load_sub_round();
  /// The round-final wait; \throws std::logic_error once it was emitted.
  [[nodiscard]] traj::Segment final_wait();
};

}  // namespace rv::search
