#pragma once

/// \file variants.hpp
/// Ablation variant of Algorithm 7 (experiment A1).
///
/// The paper's active phase is SearchAll(n) followed by
/// SearchAllRev(n).  The *reverse* pass exists so that the growing
/// overlap with the peer's inactive phase covers both alignment
/// patterns of Figure 3: an overlap at the *start* of the active phase
/// is served by SearchAll (rounds 1..n — small rounds first), while an
/// overlap at the *end* is served by SearchAllRev (rounds n..1 — the
/// small rounds come last, right before the peer wakes).  Replacing the
/// reverse pass with a second forward pass keeps the schedule identical
/// (same durations) but misplaces the small, quick rounds, so a robot
/// whose overlap window sits at the end of the active phase may spend
/// it deep inside Search(n) instead of re-sweeping the whole plane.

#include <memory>
#include <string>

#include "search/emitter.hpp"
#include "traj/program.hpp"

namespace rv::rendezvous {

/// Active-phase composition for the Algorithm 7 ablation.
enum class ActivePhaseOrder {
  kForwardThenReverse,  ///< the paper: SearchAll(n); SearchAllRev(n)
  kForwardTwice,        ///< ablation: SearchAll(n); SearchAll(n)
};

/// Algorithm 7 with a configurable active phase.  With
/// `kForwardThenReverse` the emitted trajectory is identical to
/// `RendezvousProgram`.
class VariantRendezvousProgram final : public traj::Program {
 public:
  explicit VariantRendezvousProgram(ActivePhaseOrder order);
  [[nodiscard]] traj::Segment next() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int current_round() const { return n_; }

 private:
  enum class Stage { kWait, kFirstPass, kSecondPass };

  ActivePhaseOrder order_;
  int n_ = 0;
  Stage stage_ = Stage::kWait;
  int k_ = 1;
  search::SearchRoundEmitter emitter_{1};

  void begin_round();
  [[nodiscard]] int second_pass_first_k() const;
};

/// Factory for the simulator interface.
[[nodiscard]] std::shared_ptr<traj::Program> make_variant_rendezvous_program(
    ActivePhaseOrder order);

}  // namespace rv::rendezvous
