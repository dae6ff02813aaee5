#pragma once

/// \file algorithm7.hpp
/// Algorithm 7 — the universal rendezvous trajectory of Section 4.
///
/// Round n (n = 1, 2, 3, ...):
///   1. wait at the initial position for 2·S(n)   (inactive phase),
///   2. perform SearchAll(n)  = Search(1) ... Search(n),
///   3. perform SearchAllRev(n) = Search(n) ... Search(1)
/// where S(n) is the duration of SearchAll(n).  The growing overlap of
/// the robots' inactive and active phases (Lemmas 9/10) guarantees a
/// meeting whenever Theorem 4 says one is possible.
///
/// Each Search(k) is a `search::SearchRoundEmitter` held by value and
/// re-seated per round, so emission allocates nothing, and the emitter
/// builds each segment in `next()`'s return slot.  With a recorder the
/// local clock that stamps the marks advances by the emitter's
/// `last_duration()` (bit for bit `traj::duration` of the segment).

#include <memory>
#include <string>

#include "search/emitter.hpp"
#include "traj/program.hpp"

namespace rv::rendezvous {

/// The universal rendezvous program of Algorithm 7.
class RendezvousProgram final : public traj::Program {
 public:
  /// An optional recorder receives marks "inactive n" / "searchall n" /
  /// "searchallrev n" with the local time each phase begins.
  explicit RendezvousProgram(traj::MarkRecorder* recorder = nullptr);

  [[nodiscard]] traj::Segment next() override;
  [[nodiscard]] std::string name() const override { return "algorithm7"; }

  /// The Algorithm 7 round currently being emitted.
  [[nodiscard]] int current_round() const { return n_; }

 private:
  enum class Stage { kWait, kSearchAll, kSearchAllRev };

  void begin_round();
  /// The emitter's next segment, advancing the local clock if recorded.
  [[nodiscard]] traj::Segment emit();
  /// Steps the stage machine (waits, round and Search(k) boundaries)
  /// until it yields a segment.
  [[nodiscard]] traj::Segment next_stage();
  void mark(const std::string& label);

  int n_ = 0;
  Stage stage_ = Stage::kWait;
  int k_ = 1;  ///< inner Search(k) index within SearchAll/SearchAllRev
  search::SearchRoundEmitter emitter_{1};
  traj::MarkRecorder* recorder_;
  double local_clock_ = 0.0;
};

/// Factory helper matching the simulator's program-factory interface.
[[nodiscard]] std::shared_ptr<traj::Program> make_rendezvous_program();

}  // namespace rv::rendezvous
