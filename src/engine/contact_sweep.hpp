#pragma once

/// \file contact_sweep.hpp
/// The certified first-contact sweep — the single implementation of the
/// Lipschitz-step/bisection argument shared by every simulator in the
/// repository.
///
/// Between trajectory breakpoints each robot moves along one primitive,
/// so every pairwise separation d_ij(t) is Lipschitz with constant
/// v_i + v_j (the sum of the traversal speeds on the current
/// primitives).  Consequently both sweep metrics
///   * min over pairs of d_ij  (first contact / 2-robot rendezvous) and
///   * max over pairs of d_ij  (all-pairs gathering)
/// are Lipschitz with constant  L = max over pairs of (v_i + v_j), and
/// the sweep may advance by Δt = (metric − r)/L — the largest step that
/// provably cannot skip a crossing — then refine by bisection once the
/// metric dips below r.  This yields *certified* event times up to a
/// tolerance, without trusting any fixed sampling grid.
///
/// Both per-step quantities are computed by near-linear kernels
/// (engine/metric_kernel.hpp): the metric by an adaptive
/// brute-force/grid/calipers kernel, and L as the sum of the two
/// largest current segment speeds — identical values to the historical
/// O(n²) loops, so step schedules and outputs are unchanged while
/// 1000-robot fleets sweep in near-linear time per evaluation.
///
/// How the sweep *advances* between evaluations is itself dispatched
/// (engine/event_solver.hpp, `SweepOptions::solver`): the default
/// bisection path steps and bisects as described above, while the
/// analytic path models each active segment pair's squared distance in
/// closed form per window (quadratics for line/wait pairs, certified
/// derivative-bound brackets refined with mathx::brent for arc pairs)
/// and jumps straight to the first candidate crossing — O(active
/// windows) metric evaluations per sweep instead of
/// O(steps·log(1/tol)).  Positions are evaluated through the SoA
/// batched evaluator (traj/batch.hpp) on every path — one pass over
/// the fleet's current segments, bitwise identical to the per-robot
/// variant dispatch it replaces.
///
/// Per-window work is limited to what changed: when the sweep crosses
/// a segment boundary only the robots whose segment ended pull new
/// ones, and only their batch slots are repacked (with each robot's
/// final pulled segment).  The slots carry the segment speeds, so the
/// Lipschitz constant is recomputed only on windows where a slot
/// changed.  The same floating-point operations run in the same order
/// as a full repack per window, so every output byte and the
/// evaluation schedule are unchanged.
///
/// Tangential touches shallower than L·min_step can be passed over (a
/// Zeno guard forces progress), and `contact_tol` absorbs grazing
/// contacts to within 1e−9 world units.  Not every experiment here is a
/// transversal crossing: E4's orientation-grid cell (φ = 0, v = 0.5,
/// χ = −1, offset (0, 2), r = 0.25) is a tangential graze that the
/// Lipschitz steps crawl through, about 3.27M evaluations and ~330 ms
/// before contact is accepted within `contact_tol`.  ROADMAP's
/// certified-sweep item (a second-order step for grazes) is the fix.
///
/// `sim::TwoRobotSimulator` (2-robot rendezvous) and
/// `gather::MultiRobotSimulator` (n-robot gathering) are thin adapters
/// over this class; neither carries its own stepping logic.

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/event_solver.hpp"
#include "engine/metric_kernel.hpp"
#include "geom/attributes.hpp"
#include "traj/batch.hpp"
#include "traj/frame.hpp"
#include "traj/program.hpp"

namespace rv::engine {

/// One robot: a local program, hidden attributes, and a global origin.
struct RobotSpec {
  std::shared_ptr<traj::Program> program;
  geom::RobotAttributes attributes;
  geom::Vec2 origin;
};

/// The shared sweep controls.  `sim::SimOptions` is an alias of this
/// struct, and `gather::GatherOptions` embeds it, so every simulator in
/// the repository consumes the same tolerance knobs.
struct SweepOptions {
  double visibility = 1.0;      ///< r > 0, finite: event at metric ≤ r
  double max_time = 1e9;        ///< give-up horizon (global time), finite
  double contact_tol = 1e-9;    ///< accept the event when metric ≤ r + contact_tol
  double time_tol = 1e-9;       ///< bisection tolerance on the event time
  double min_step = 1e-9;       ///< Zeno guard: forced progress per step
  std::uint64_t max_evals = 500'000'000;  ///< hard cap on metric evaluations
  /// Which pairwise metric kernel evaluates the sweep (see
  /// engine/metric_kernel.hpp); kAuto cuts over from the brute-force
  /// loop to the near-linear geometric kernels at `kKernelCutover`.
  KernelChoice kernel = KernelChoice::kAuto;
  /// Which event solver advances the sweep between evaluations (see
  /// engine/event_solver.hpp).  The default `kBisection` is the
  /// historical Lipschitz-step + bisection path, byte-identical to
  /// every committed output — and the only solver the batch families
  /// ever use, so cacheable outcomes (`engine::cache_key` does not key
  /// the solver) are never produced by the analytic path.  `kAnalytic`
  /// jumps by per-window pair models (closed-form quadratics, brent on
  /// arcs), agreeing with the oracle to within the sweep tolerances
  /// while performing O(active windows) metric evaluations instead of
  /// O(steps·log(1/tol)).
  SolverChoice solver = SolverChoice::kBisection;
};

/// Which pairwise statistic the sweep watches for the event metric ≤ r.
enum class SweepMetric {
  kMinPairwise,  ///< any pair within r (first contact / rendezvous)
  kMaxPairwise,  ///< every pair within r simultaneously (gathering)
};

/// Outcome of a sweep.
struct SweepResult {
  bool event = false;        ///< true iff the metric reached r before max_time
  double time = 0.0;         ///< certified event time (or the horizon)
  double metric = 0.0;       ///< metric value at `time`
  double best_metric = 0.0;  ///< smallest metric seen at sweep evaluations
  double best_metric_time = 0.0;  ///< when the best metric was seen
  int pair_i = -1;  ///< extremal pair at `time` (consistent with `metric`
  int pair_j = -1;  ///< and `positions`; set on event and at the horizon)
  std::vector<geom::Vec2> positions;  ///< all robot positions at `time`
  std::uint64_t evals = 0;     ///< metric evaluations performed
  std::uint64_t segments = 0;  ///< timed segments consumed (all robots)
  /// Single-pair model evaluations performed by the analytic solver
  /// (closed-form solves and certified arc-search points); 0 on the
  /// bisection path.  Each costs O(1) versus O(n)–O(n²) for a metric
  /// evaluation counted in `evals`.
  std::uint64_t model_evals = 0;
};

/// Sweeps n ≥ 2 robots forward in global time and reports the first
/// time the chosen pairwise metric reaches the visibility radius.
class ContactSweep {
 public:
  /// \throws std::invalid_argument for fewer than 2 robots, null
  /// programs, or bad options.
  ContactSweep(std::vector<RobotSpec> robots, SweepMetric metric,
               SweepOptions options);

  /// Runs until the event or the horizon; single use (the segment
  /// streams are consumed).
  [[nodiscard]] SweepResult run();

  /// Number of robots.
  [[nodiscard]] std::size_t size() const { return streams_.size(); }

 private:
  /// The historical Lipschitz-step + bisection sweep (the bitwise
  /// oracle; `SweepOptions::solver == kBisection`).
  [[nodiscard]] SweepResult run_bisection();
  /// The analytic per-window sweep (`kAnalytic`, and `kAuto` which
  /// falls back to certified stepping on windows containing arcs).
  [[nodiscard]] SweepResult run_analytic(bool auto_mode);

  /// Pulls every robot's first segment and packs the whole fleet.
  void start(SweepResult& res);
  /// Pulls segments forward until every robot's current segment covers
  /// t, repacking only the batch slots of robots that pulled; writes
  /// the window end (earliest current t1, capped at the horizon).
  /// Returns true when any robot pulled.
  bool pull(double t, SweepResult& res, double* window_end);

  std::vector<traj::GlobalSegmentStream> streams_;
  std::vector<traj::TimedSegment> current_;
  traj::BatchedPositions batch_;  ///< SoA evaluator and speeds over `current_`
  std::vector<geom::Vec2> pos_;
  SweepMetric metric_;
  SweepOptions opts_;
};

}  // namespace rv::engine
