#include "search/emitter.hpp"

#include <stdexcept>

#include "mathx/binary.hpp"
#include "mathx/constants.hpp"
#include "search/times.hpp"

namespace rv::search {

using geom::Vec2;
using rv::mathx::pow2;
using traj::ArcSeg;
using traj::LineSeg;
using traj::Segment;
using traj::WaitSeg;

SearchRoundEmitter::SearchRoundEmitter(int k) : k_(k) {
  if (k < 1 || k > 30) {
    throw std::invalid_argument("SearchRoundEmitter: k must be in [1, 30]");
  }
  load_sub_round();
}

void SearchRoundEmitter::load_sub_round() {
  // m = 2^{2k−j}: index of the last circle in sub-round j.
  m_ = std::uint64_t{1} << (2 * k_ - j_);
  inner_ = pow2(-k_ + j_);
  rho_ = pow2(-3 * k_ + 2 * j_ - 1);
  i_ = 0;
  phase_ = 0;
}

double SearchRoundEmitter::circle_radius() const {
  return inner_ + 2.0 * static_cast<double>(i_) * rho_;
}

std::uint64_t SearchRoundEmitter::total_segments() const {
  // Sub-round j has (2^{2k−j} + 1) circles of 3 segments each; plus the
  // final wait segment.
  std::uint64_t total = 1;
  for (int j = 0; j <= 2 * k_ - 1; ++j) {
    total += 3 * ((std::uint64_t{1} << (2 * k_ - j)) + 1);
  }
  return total;
}

void SearchRoundEmitter::advance_counters() {
  if (++phase_ < 3) return;
  phase_ = 0;
  if (++i_ <= m_) return;
  ++j_;
  if (j_ <= 2 * k_ - 1) {
    load_sub_round();
    return;
  }
  // All annuli done; the final wait is still pending.
}

Segment SearchRoundEmitter::next() {
  if (done_) throw std::logic_error("SearchRoundEmitter: exhausted");
  if (j_ > 2 * k_ - 1) {
    done_ = true;
    wait_pending_ = false;
    return WaitSeg{{0.0, 0.0}, search_round_wait(k_)};
  }
  const double radius = circle_radius();
  Segment seg;
  switch (phase_) {
    case 0:
      seg = LineSeg{{0.0, 0.0}, {radius, 0.0}};
      break;
    case 1:
      seg = ArcSeg{{0.0, 0.0}, radius, 0.0, rv::mathx::kTwoPi};
      break;
    default:
      seg = LineSeg{{radius, 0.0}, {0.0, 0.0}};
      break;
  }
  advance_counters();
  return seg;
}

}  // namespace rv::search
