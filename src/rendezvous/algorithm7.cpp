#include "rendezvous/algorithm7.hpp"

#include "rendezvous/schedule.hpp"

namespace rv::rendezvous {

using traj::Segment;
using traj::WaitSeg;

RendezvousProgram::RendezvousProgram(traj::MarkRecorder* recorder)
    : recorder_(recorder) {
  begin_round();
}

void RendezvousProgram::mark(const std::string& label) {
  if (recorder_) recorder_->record(local_clock_, label);
}

void RendezvousProgram::begin_round() {
  ++n_;
  stage_ = Stage::kWait;
  mark("inactive " + std::to_string(n_));
}

Segment RendezvousProgram::emit() {
  // `seg` is the return slot (one named return): the segment is built
  // in place and never copied.  The local clock only stamps marks.
  Segment seg = emitter_.next();
  if (recorder_) local_clock_ += emitter_.last_duration();
  return seg;
}

Segment RendezvousProgram::next() {
  // Hot path: mid-Search(k), one inline emitter step.
  if (stage_ != Stage::kWait && !emitter_.done()) [[likely]] return emit();
  return next_stage();
}

Segment RendezvousProgram::next_stage() {
  for (;;) {
    switch (stage_) {
      case Stage::kWait: {
        const double wait_time = 2.0 * search_all_time(n_);
        stage_ = Stage::kSearchAll;
        k_ = 1;
        emitter_ = search::SearchRoundEmitter(k_);
        local_clock_ += wait_time;
        // The active phase begins when this wait ends.
        mark("searchall " + std::to_string(n_));
        return WaitSeg{{0.0, 0.0}, wait_time};
      }
      case Stage::kSearchAll: {
        if (!emitter_.done()) return emit();
        if (k_ < n_) {
          emitter_ = search::SearchRoundEmitter(++k_);
          continue;
        }
        stage_ = Stage::kSearchAllRev;
        k_ = n_;
        emitter_ = search::SearchRoundEmitter(k_);
        mark("searchallrev " + std::to_string(n_));
        continue;
      }
      case Stage::kSearchAllRev: {
        if (!emitter_.done()) return emit();
        if (k_ > 1) {
          emitter_ = search::SearchRoundEmitter(--k_);
          continue;
        }
        begin_round();
        continue;
      }
    }
  }
}

std::shared_ptr<traj::Program> make_rendezvous_program() {
  return std::make_shared<RendezvousProgram>();
}

}  // namespace rv::rendezvous
