#pragma once

/// \file families.hpp
/// Workload families of the batch engine.
///
/// PR 1 made `src/engine/` the single certified sweep + declarative
/// batch runner, but only for 2-robot rendezvous scenarios.  This layer
/// generalises the engine into a *multi-workload* batch system: a
/// `ScenarioSet` may declare cells from five families —
///
///  * **rendezvous** — the original `rendezvous::Scenario` attribute
///    grid (v, τ, φ, χ, offset);
///  * **search** — one searcher against a stationary target at distance
///    `d`, evaluated over a *ring of target angles* with the
///    worst-over-angles reduction performed engine-side (the reducer
///    every search bench used to hand-roll);
///  * **gather** — an n-robot fleet on an origin ring, swept for both
///    first contact (min-pairwise) and all-pairs gathering
///    (max-pairwise);
///  * **linear** — the 1-D (infinite line) setting of the paper's
///    predecessor [11]: doubling-zigzag search to a signed coordinate,
///    or linear rendezvous under 1-D attributes (v, τ, δ);
///  * **coverage** — swept-area accounting: the exact r-neighbourhood of one
///    program's trajectory rasterised onto a grid, reported as a
///    coverage-vs-time series against a target disk (the area argument
///    of the Ω(d²/r) lower bound, [25]).
///
/// In addition every work item may carry a **component-times hook**:
/// a function producing named numeric sub-metrics (e.g. Lemma 2's
/// closed forms next to measured path durations) that the runner
/// evaluates per cell and `ResultSet` emits as extra standard columns.
///
/// All families are executed by the same deterministic `Runner`
/// (results placed by cell index, never completion order) and reported
/// through `ResultSet` with per-family standard columns, so table/CSV/
/// JSON output stays byte-identical at any thread count.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/coverage.hpp"
#include "gather/multi_simulator.hpp"
#include "geom/attributes.hpp"
#include "geom/vec2.hpp"
#include "linear/linear_rendezvous.hpp"
#include "rendezvous/core.hpp"
#include "sim/simulator.hpp"
#include "traj/program.hpp"

namespace rv::engine {

/// Which workload family a cell/record belongs to.
enum class Family {
  kRendezvous,  ///< 2-robot rendezvous scenario
  kSearch,      ///< single searcher vs stationary target, angle ring
  kGather,      ///< n-robot fleet, first-contact + all-pairs sweeps
  kLinear,      ///< 1-D zigzag search / linear rendezvous ([11])
  kCoverage,    ///< rasterised swept-area accounting ([25])
};

/// Display name ("rendezvous", "search", "gather", "linear",
/// "coverage").
[[nodiscard]] const char* family_name(Family family);

// ---------------------------------------------------------------------------
// Component times (named sub-metric columns)
// ---------------------------------------------------------------------------

/// One named numeric sub-metric of a cell — e.g. a Lemma 2 closed form
/// next to the measured duration of the generated trajectory.
struct Component {
  std::string name;
  double value = 0.0;
};

/// The component times of one cell, in declaration order (the order
/// becomes the column order in `ResultSet` emission).
using Components = std::vector<Component>;

/// The value of the named component.  \throws std::out_of_range when
/// the name is absent.
[[nodiscard]] double component_value(const Components& components,
                                     const std::string& name);

struct RunRecord;  // defined below, after the cells and outcomes

/// The component-times hook of a work item: evaluated by the runner
/// after the cell's payload run (the record carries both the cell and
/// its outcome), inside the worker, so hooks parallelise with the
/// sweep.  Must be a pure function of the record.  `ScenarioSet`
/// installs per-family typed hooks and per-cell overrides; see
/// engine/scenario_set.hpp.
using ComponentsFn = std::function<Components(const RunRecord&)>;

// ---------------------------------------------------------------------------
// Search family
// ---------------------------------------------------------------------------

/// Which universal search program the cell runs.
enum class SearchProgram {
  kAlgorithm4,    ///< the paper's Algorithm 4
  kConcentric,    ///< doubling concentric-circle baseline (E9)
  kSquareSpiral,  ///< doubling square-spiral baseline (E9)
};

/// One search cell: target distance `d`, a ring of target angles,
/// visibility `r`, and a program choice.  The runner simulates every
/// angle of the ring and reduces worst-over-angles — the aggregation
/// the search benches (E1, E9, A3) previously hand-rolled.
struct SearchCell {
  double distance = 1.0;      ///< d: target distance from the searcher
  double visibility = 0.05;   ///< r: discovery radius
  int angles = 1;             ///< ring size (targets at 2πa/angles + offset)
  double angle_offset = 0.0;  ///< phase of the ring (avoid axis artefacts)
  /// Explicit target positions overriding the angle ring: when
  /// non-empty, exactly these targets are simulated (in order) and
  /// `distance`/`angles`/`angle_offset` are ignored by the reducer
  /// (keep them set for display if you like).  The reported worst/miss
  /// angles are atan2(y, x) of the targets.
  std::vector<geom::Vec2> targets;
  SearchProgram program = SearchProgram::kAlgorithm4;
  /// Optional custom program factory overriding `program` (ablations,
  /// e.g. A3's spacing variants).  Must return a fresh Program per
  /// call: one per angle, plus once more per cell to resolve the
  /// reported name when `program_name` is left empty.
  std::function<std::shared_ptr<traj::Program>()> program_factory;
  std::string program_name;   ///< reported name when `program_factory` set
  geom::RobotAttributes attrs = geom::reference_attributes();  ///< searcher
  double max_time = 1e9;      ///< per-angle horizon
};

/// Worst-over-angles reduction of one search cell.
struct SearchOutcome {
  int found = 0;               ///< angles where the target was discovered
  int missed = 0;              ///< angles where the horizon hit first
  bool complete = false;       ///< found == angles
  double worst_time = 0.0;     ///< max discovery time over found angles
  double mean_time = 0.0;      ///< mean discovery time over found angles
  double worst_angle = 0.0;    ///< angle attaining `worst_time`
  double first_miss_angle = 0.0;  ///< first missed angle (when missed > 0)
  std::string program_name;    ///< resolved program name
  std::uint64_t evals = 0;     ///< total metric evaluations over the ring
  std::uint64_t segments = 0;  ///< total segments consumed over the ring
};

/// Runs one search cell: simulates every angle of the ring and reduces
/// worst/mean-over-angles.  Deterministic (angles in ring order).
[[nodiscard]] SearchOutcome run_search_cell(const SearchCell& cell);

// ---------------------------------------------------------------------------
// Gather family
// ---------------------------------------------------------------------------

/// One gathering cell: a fleet of n robots placed on an origin ring,
/// all running the same algorithm.  The runner performs two certified
/// sweeps per cell: first contact (min-pairwise) and all-pairs
/// gathering (max-pairwise), each with its own horizon.
struct GatherCell {
  std::vector<geom::RobotAttributes> fleet;  ///< per-robot attributes (n ≥ 2)
  double ring_radius = 1.0;  ///< robots start at polar(radius, 2πi/n + phase)
  double ring_phase = 0.0;   ///< rotation of the origin ring
  std::vector<geom::Vec2> jitter;  ///< optional per-robot origin offsets
  double visibility = 0.2;   ///< r for both sweeps
  rendezvous::AlgorithmChoice algorithm =
      rendezvous::AlgorithmChoice::kAlgorithm7;
  double contact_max_time = 1e5;  ///< horizon of the first-contact sweep
  double gather_max_time = 2e5;   ///< horizon of the all-pairs sweep
};

/// Origin of robot `i` of the cell's fleet (ring position + jitter).
[[nodiscard]] geom::Vec2 gather_origin(const GatherCell& cell, std::size_t i);

/// Both sweeps of one gathering cell.
struct GatherOutcome {
  gather::GatherResult contact;   ///< min-pairwise (first contact) sweep
  gather::GatherResult gathered;  ///< max-pairwise (all-pairs) sweep
};

/// Runs one gathering cell: builds the fleet on its origin ring and
/// performs the first-contact and all-pairs sweeps.
[[nodiscard]] GatherOutcome run_gather_cell(const GatherCell& cell);

// ---------------------------------------------------------------------------
// Linear family (the 1-D setting of [11])
// ---------------------------------------------------------------------------

/// What a linear cell runs.
enum class LinearMode {
  kZigZagSearch,  ///< doubling zigzag to the target at coordinate x
  kRendezvous,    ///< universal linear rendezvous under (v, τ, δ)
};

/// Display name ("zigzag-search", "linear-rendezvous").
[[nodiscard]] const char* linear_mode_name(LinearMode mode);

/// One 1-D cell.  All motion is on the x axis of the shared planar
/// substrate: the search mode runs the doubling zigzag
/// (`linear::ZigZagProgram`) from the origin against a stationary
/// target at `(target, 0)`; the rendezvous mode runs the phase-scheduled
/// linear rendezvous program on both robots, with R′ carrying the 1-D
/// attributes `attrs` (lifted through `linear::to_planar`) and starting
/// at `(target, 0)`.
struct LinearCell {
  LinearMode mode = LinearMode::kRendezvous;
  linear::LinearAttributes attrs;  ///< R′'s hidden (v, τ, δ); search: searcher
  double target = 1.0;  ///< signed target coordinate / initial offset d
  double visibility = 0.05;  ///< r (on the line: the catch half-width)
  double max_time = 1e6;     ///< simulation horizon
};

/// Outcome of one linear cell.
struct LinearOutcome {
  /// Rendezvous mode: the [11] feasibility predicate
  /// (`linear::linear_rendezvous_feasible`); search mode: always true
  /// (the zigzag crosses every point of the line).
  bool feasible = false;
  sim::SimResult sim;  ///< the certified sweep result
};

/// Runs one linear cell.  \throws std::invalid_argument when the
/// rendezvous offset is 0 (robots must start apart) or the attributes
/// are invalid.
[[nodiscard]] LinearOutcome run_linear_cell(const LinearCell& cell);

// ---------------------------------------------------------------------------
// Coverage family (the [25] area accounting)
// ---------------------------------------------------------------------------

/// One swept-area cell: a program (built-in `SearchProgram` choice or a
/// custom factory, as in the search family) run from the origin for
/// `horizon` time, its r-neighbourhood rasterised at resolution `cell`
/// and reported against the disk of radius `disk_radius`.
struct CoverageCell {
  SearchProgram program = SearchProgram::kAlgorithm4;
  /// Optional custom program factory overriding `program` (same
  /// contract as `SearchCell::program_factory`).
  std::function<std::shared_ptr<traj::Program>()> program_factory;
  std::string program_name;  ///< reported name when `program_factory` set
  geom::RobotAttributes attrs = geom::reference_attributes();  ///< the robot
  double disk_radius = 2.0;  ///< R: target disk for coverage fractions
  double visibility = 0.1;   ///< r: swept neighbourhood radius
  double cell = 0.02;        ///< rasterisation grid resolution
  int checkpoints = 32;      ///< series points over the horizon
  double horizon = 1e4;      ///< how long to run the program
};

/// Outcome of one coverage cell: the full coverage-vs-time series plus
/// the standard summary figures.
struct CoverageOutcome {
  std::vector<analysis::CoveragePoint> series;  ///< checkpoint series
  std::string program_name;  ///< resolved program name
  double t50 = -1.0;  ///< first checkpoint time with fraction ≥ 0.50 (−1: never)
  double t99 = -1.0;  ///< first checkpoint time with fraction ≥ 0.99 (−1: never)
  double final_fraction = 0.0;  ///< covered fraction at the last checkpoint
  double covered_area = 0.0;    ///< absolute marked area at the last checkpoint
};

/// Runs one coverage cell.  \throws std::invalid_argument on bad
/// geometry/options (propagated from `analysis::measure_coverage`).
[[nodiscard]] CoverageOutcome run_coverage_cell(const CoverageCell& cell);

// ---------------------------------------------------------------------------
// Work items
// ---------------------------------------------------------------------------

/// One materialised unit of work of any family, plus its display label.
/// Only the payload matching `family` is meaningful.
struct WorkItem {
  Family family = Family::kRendezvous;
  std::string label;
  rendezvous::Scenario scenario;  ///< kRendezvous payload
  SearchCell search;              ///< kSearch payload
  GatherCell gather;              ///< kGather payload
  LinearCell linear;              ///< kLinear payload
  CoverageCell coverage;          ///< kCoverage payload
  /// Component-times hook; evaluated by the runner after the payload
  /// run (or immediately, for `components_only` items) and emitted by
  /// `ResultSet` as extra standard columns.
  ComponentsFn components;
  /// When true the payload run is skipped entirely: the outcome stays
  /// default-constructed and only `components` is evaluated.  Used for
  /// pure-algebra sweeps (e.g. Lemma 2 closed forms) that want the
  /// declarative grid + deterministic parallel runner without a
  /// simulation.  Components-only items have no content key (nothing
  /// is memoized), so they count as uncacheable under a cache.
  bool components_only = false;
};

// ---------------------------------------------------------------------------
// Run records
// ---------------------------------------------------------------------------

/// One executed work item: what ran and what happened.  Only the
/// payload pair matching `family` is meaningful.  (Defined here rather
/// than in runner.hpp so component-times hooks can see both the cell
/// and its outcome.)
struct RunRecord {
  Family family = Family::kRendezvous;
  std::string label;
  // kRendezvous payload
  rendezvous::Scenario scenario;
  rendezvous::Outcome outcome;
  // kSearch payload
  SearchCell search;
  SearchOutcome search_outcome;
  // kGather payload
  GatherCell gather;
  GatherOutcome gather_outcome;
  // kLinear payload
  LinearCell linear;
  LinearOutcome linear_outcome;
  // kCoverage payload
  CoverageCell coverage;
  CoverageOutcome coverage_outcome;
  /// Evaluated component times (empty when the item had no hook).
  Components components;
};

// ---------------------------------------------------------------------------
// Scenario content keys (result cache)
// ---------------------------------------------------------------------------

/// The canonical content key of a work item: a byte string encoding the
/// family, every cell attribute that influences the outcome (attributes,
/// offsets, radii, horizons, grids — raw IEEE-754 bytes with −0.0
/// normalised onto +0.0), and the program identity (the algorithm enum,
/// or `program_name` for a custom factory).  Two items with equal keys
/// produce identical outcomes, so `Runner` may memoize results by key
/// (see `ScenarioCache` in engine/runner.hpp).  Display labels are NOT
/// part of the key — they do not affect the outcome.
///
/// Returns nullopt — the item is *uncacheable* — when a custom program
/// factory is set with an empty `program_name`: an anonymous factory
/// has no stable identity, so memoizing it could silently alias two
/// different programs.  Give the cell a unique `program_name` to make
/// it cacheable (the name must identify the program, and the factory
/// must be deterministic).  Components-only items are also uncacheable:
/// they produce no payload outcome to memoize (component hooks are
/// always re-evaluated, never cached).
[[nodiscard]] std::optional<std::string> cache_key(const WorkItem& item);

}  // namespace rv::engine
