#include "search/emitter.hpp"

#include <stdexcept>

#include "mathx/binary.hpp"
#include "search/times.hpp"

namespace rv::search {

using rv::mathx::pow2;

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

std::uint64_t SearchRoundEmitter::total_segments() const {
  // Sub-round j has (2^{2k−j} + 1) circles of 3 segments each; plus the
  // final wait segment.
  std::uint64_t total = 1;
  for (int j = 0; j <= 2 * k_ - 1; ++j) {
    total += 3 * ((std::uint64_t{1} << (2 * k_ - j)) + 1);
  }
  return total;
}

void SearchRoundEmitter::next_sub_round() {
  // After the last annulus j_ == 2k: only the final wait is left.
  if (++j_ <= 2 * k_ - 1) load_sub_round();
}

traj::Segment SearchRoundEmitter::final_wait() {
  if (done_) throw std::logic_error("SearchRoundEmitter: exhausted");
  done_ = true;
  last_duration_ = search_round_wait(k_);
  return traj::WaitSeg{{0.0, 0.0}, last_duration_};
}

}  // namespace rv::search
