#pragma once

/// \file scenario_set.hpp
/// Declarative description of a batch of engine work, spanning the
/// five workload families (see engine/families.hpp).
///
/// Every experiment in the paper is a parameter sweep: a grid over
/// rendezvous attributes (v, τ, φ, χ) and offsets, a (d, r, program)
/// grid of search instances evaluated over a target-angle ring, a list
/// of gathering fleets on origin rings, a (d, r) grid of 1-D cells, or
/// a (program, R, r) grid of swept-area cells.  `ScenarioSet` captures
/// all of them as *data*: axes, base cells, and per-cell hooks
/// (horizon rules, filters, labellers, component times) per family.
///
/// Materialisation order is fixed and documented so the output of every
/// downstream table/CSV is deterministic:
///   1. explicitly `add`ed rendezvous scenarios, then the rendezvous
///      grid (speeds ⊃ time_units ⊃ orientations ⊃ chiralities ⊃
///      offsets, speeds outermost);
///   2. explicitly `add_search`ed cells, then the search grid
///      (search_distances ⊃ search_radii ⊃ search_programs);
///   3. explicitly `add_gather`ed cells, then the gather size grid;
///   4. explicitly `add_linear`ed cells, then the linear grid
///      (linear_distances ⊃ linear_radii);
///   5. explicitly `add_coverage`d cells, then the coverage grid
///      (coverage_programs ⊃ coverage_disk_radii ⊃ coverage_radii).
///
/// Run a set with `engine::run_scenarios` (runner.hpp), which fans the
/// work items out across a thread pool and aggregates the outcomes.

#include <functional>
#include <string>
#include <vector>

#include "engine/families.hpp"
#include "geom/vec2.hpp"
#include "rendezvous/core.hpp"

namespace rv::engine {

/// Typed component-times hooks, one per family: given the cell and its
/// outcome, return the named sub-metric values (see `Components` in
/// engine/families.hpp).  For components-only sets the outcome is
/// default-constructed — hooks that only need the cell just ignore it.
using RendezvousComponentsFn = std::function<Components(
    const rendezvous::Scenario&, const rendezvous::Outcome&)>;
using SearchComponentsFn =
    std::function<Components(const SearchCell&, const SearchOutcome&)>;
using GatherComponentsFn =
    std::function<Components(const GatherCell&, const GatherOutcome&)>;
using LinearComponentsFn =
    std::function<Components(const LinearCell&, const LinearOutcome&)>;
using CoverageComponentsFn =
    std::function<Components(const CoverageCell&, const CoverageOutcome&)>;

/// A declarative multi-family grid/list of engine work.  All setters
/// return *this for fluent declaration-style use.
class ScenarioSet {
 public:
  ScenarioSet() = default;

  /// Appends one explicit rendezvous scenario (kept before the grid
  /// cells, in insertion order).  The horizon/filter/label hooks apply
  /// to these too.  A non-null `components` overrides the set-level
  /// `components()` hook for this cell.
  ScenarioSet& add(rendezvous::Scenario scenario, std::string label = "",
                   RendezvousComponentsFn components = nullptr);

  // --- rendezvous grid axes (an unset axis contributes the base value) --
  ScenarioSet& speeds(std::vector<double> values);
  ScenarioSet& time_units(std::vector<double> values);
  ScenarioSet& orientations(std::vector<double> values);
  ScenarioSet& chiralities(std::vector<int> values);
  ScenarioSet& offsets(std::vector<geom::Vec2> values);
  /// Sugar: offsets {d, 0} for each distance.
  ScenarioSet& distances(std::vector<double> values);

  // --- rendezvous base knobs applied to every grid cell -----------------
  ScenarioSet& base(rendezvous::Scenario base_scenario);
  ScenarioSet& visibility(double r);
  ScenarioSet& algorithm(rendezvous::AlgorithmChoice choice);
  ScenarioSet& max_time(double horizon);

  // --- rendezvous per-scenario hooks ------------------------------------
  /// Horizon override evaluated per materialised scenario (e.g. a
  /// theorem bound plus slack).
  ScenarioSet& horizon(
      std::function<double(const rendezvous::Scenario&)> horizon_fn);
  /// Keep-predicate; cells where it returns false are dropped (e.g. the
  /// infeasible corner of an attribute grid).
  ScenarioSet& filter(
      std::function<bool(const rendezvous::Scenario&)> keep_fn);
  /// Label generator applied when no explicit label was given.
  ScenarioSet& label(
      std::function<std::string(const rendezvous::Scenario&)> label_fn);
  /// Component-times hook for rendezvous cells without their own.
  ScenarioSet& components(RendezvousComponentsFn fn);

  // --- search family ----------------------------------------------------
  /// Appends one explicit search cell (kept before the search grid, in
  /// insertion order).  The search hooks apply to these too.  A
  /// non-null `components` overrides the set-level hook for this cell.
  ScenarioSet& add_search(SearchCell cell, std::string label = "",
                          SearchComponentsFn components = nullptr);
  /// Base cell for the search grid (angle ring, program, attrs, ...).
  ScenarioSet& search_base(SearchCell base_cell);
  /// Grid axes: target distances ⊃ visibility radii ⊃ programs
  /// (distances outermost).  An unset axis contributes the base value.
  ScenarioSet& search_distances(std::vector<double> values);
  ScenarioSet& search_radii(std::vector<double> values);
  ScenarioSet& search_programs(std::vector<SearchProgram> values);
  /// Per-cell horizon rule (e.g. "Theorem 1 bound + slack").
  ScenarioSet& search_horizon(std::function<double(const SearchCell&)> fn);
  /// Keep-predicate over search cells (e.g. "bound applicable").
  ScenarioSet& search_filter(std::function<bool(const SearchCell&)> fn);
  /// Component-times hook for search cells without their own.
  ScenarioSet& search_components(SearchComponentsFn fn);

  // --- gather family ----------------------------------------------------
  /// Appends one explicit gathering cell (kept before the gather size
  /// grid, in insertion order).  A non-null `components` is this
  /// cell's component-times hook.
  ScenarioSet& add_gather(GatherCell cell, std::string label = "",
                          GatherComponentsFn components = nullptr);
  /// Base cell for the gather size grid (ring, visibility, horizons).
  ScenarioSet& gather_base(GatherCell base_cell);
  /// Grid axis over fleet sizes; each size is expanded through the
  /// fleet builder (`gather_fleet`), or — when no builder is set — a
  /// fleet of n reference robots.
  ScenarioSet& gather_sizes(std::vector<int> values);
  /// Fleet builder for the size grid: n ↦ attributes of the n robots.
  ScenarioSet& gather_fleet(
      std::function<std::vector<geom::RobotAttributes>(int)> fleet_fn);
  /// Label generator for gather cells without an explicit label.
  ScenarioSet& gather_label(std::function<std::string(const GatherCell&)> fn);

  // --- linear family (1-D, [11]) ----------------------------------------
  /// Appends one explicit linear cell (kept before the linear grid, in
  /// insertion order).  The linear hooks apply to these too.  A
  /// non-null `components` overrides the set-level hook for this cell.
  ScenarioSet& add_linear(LinearCell cell, std::string label = "",
                          LinearComponentsFn components = nullptr);
  /// Base cell for the linear grid (mode, attributes, horizon, ...).
  ScenarioSet& linear_base(LinearCell base_cell);
  /// Grid axes: target coordinates / offsets ⊃ visibility radii
  /// (distances outermost).  An unset axis contributes the base value.
  ScenarioSet& linear_distances(std::vector<double> values);
  ScenarioSet& linear_radii(std::vector<double> values);
  /// Per-cell horizon rule (e.g. the zigzag reach bound + slack).
  ScenarioSet& linear_horizon(std::function<double(const LinearCell&)> fn);
  /// Keep-predicate over linear cells.
  ScenarioSet& linear_filter(std::function<bool(const LinearCell&)> fn);
  /// Label generator for linear cells without an explicit label.
  ScenarioSet& linear_label(std::function<std::string(const LinearCell&)> fn);
  /// Component-times hook for linear cells without their own.
  ScenarioSet& linear_components(LinearComponentsFn fn);

  // --- coverage family ([25] area accounting) ---------------------------
  /// Appends one explicit coverage cell (kept before the coverage grid,
  /// in insertion order).  The coverage hooks apply to these too.  A
  /// non-null `components` is this cell's component-times hook.
  ScenarioSet& add_coverage(CoverageCell cell, std::string label = "",
                            CoverageComponentsFn components = nullptr);
  /// Base cell for the coverage grid (grid resolution, checkpoints,
  /// attributes, ...).
  ScenarioSet& coverage_base(CoverageCell base_cell);
  /// Grid axes: programs ⊃ disk radii R ⊃ visibility radii r (programs
  /// outermost).  An unset axis contributes the base value.
  ScenarioSet& coverage_programs(std::vector<SearchProgram> values);
  ScenarioSet& coverage_disk_radii(std::vector<double> values);
  ScenarioSet& coverage_radii(std::vector<double> values);
  /// Per-cell horizon rule (e.g. a multiple of the Theorem 1 time).
  ScenarioSet& coverage_horizon(std::function<double(const CoverageCell&)> fn);
  /// Label generator for coverage cells without an explicit label.
  ScenarioSet& coverage_label(
      std::function<std::string(const CoverageCell&)> fn);

  // --- set-wide knobs ---------------------------------------------------
  /// Marks every materialised cell components-only: the runner skips
  /// the payload run (outcomes stay default-constructed) and evaluates
  /// only the component-times hooks.  For pure-algebra sweeps (Lemma 2
  /// closed forms, schedule overlap algebra) that want the declarative
  /// grid + deterministic parallel runner without a simulation.
  ScenarioSet& components_only(bool on = true);

  /// Expands the declaration into the concrete multi-family work list
  /// (the fixed materialisation order documented in the file comment).
  [[nodiscard]] std::vector<WorkItem> materialize_work() const;

 private:
  // rendezvous (explicit adds are stored as work items so per-cell
  // component hooks ride along)
  std::vector<WorkItem> explicit_;
  std::vector<double> speeds_;
  std::vector<double> time_units_;
  std::vector<double> orientations_;
  std::vector<int> chiralities_;
  std::vector<geom::Vec2> offsets_;
  rendezvous::Scenario base_;
  bool has_grid_ = false;
  std::function<double(const rendezvous::Scenario&)> horizon_fn_;
  std::function<bool(const rendezvous::Scenario&)> keep_fn_;
  std::function<std::string(const rendezvous::Scenario&)> label_fn_;
  RendezvousComponentsFn components_fn_;
  // search
  std::vector<WorkItem> explicit_search_;
  SearchCell search_base_;
  std::vector<double> search_distances_;
  std::vector<double> search_radii_;
  std::vector<SearchProgram> search_programs_;
  bool has_search_grid_ = false;
  std::function<double(const SearchCell&)> search_horizon_fn_;
  std::function<bool(const SearchCell&)> search_keep_fn_;
  SearchComponentsFn search_components_fn_;
  // gather
  std::vector<WorkItem> explicit_gather_;
  GatherCell gather_base_;
  std::vector<int> gather_sizes_;
  std::function<std::vector<geom::RobotAttributes>(int)> gather_fleet_fn_;
  std::function<std::string(const GatherCell&)> gather_label_fn_;
  // linear
  std::vector<WorkItem> explicit_linear_;
  LinearCell linear_base_;
  std::vector<double> linear_distances_;
  std::vector<double> linear_radii_;
  bool has_linear_grid_ = false;
  std::function<double(const LinearCell&)> linear_horizon_fn_;
  std::function<bool(const LinearCell&)> linear_keep_fn_;
  std::function<std::string(const LinearCell&)> linear_label_fn_;
  LinearComponentsFn linear_components_fn_;
  // coverage
  std::vector<WorkItem> explicit_coverage_;
  CoverageCell coverage_base_;
  std::vector<SearchProgram> coverage_programs_;
  std::vector<double> coverage_disk_radii_;
  std::vector<double> coverage_radii_;
  bool has_coverage_grid_ = false;
  std::function<double(const CoverageCell&)> coverage_horizon_fn_;
  std::function<std::string(const CoverageCell&)> coverage_label_fn_;
  // set-wide
  bool components_only_ = false;
};

}  // namespace rv::engine
