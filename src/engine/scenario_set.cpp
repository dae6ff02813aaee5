#include "engine/scenario_set.hpp"

#include <stdexcept>
#include <utility>

namespace rv::engine {

namespace {

/// Lifts a typed per-family component hook onto the generic
/// record-level hook the work items carry.
ComponentsFn wrap(RendezvousComponentsFn fn) {
  if (!fn) return nullptr;
  return [fn = std::move(fn)](const RunRecord& rec) {
    return fn(rec.scenario, rec.outcome);
  };
}

ComponentsFn wrap(SearchComponentsFn fn) {
  if (!fn) return nullptr;
  return [fn = std::move(fn)](const RunRecord& rec) {
    return fn(rec.search, rec.search_outcome);
  };
}

ComponentsFn wrap(GatherComponentsFn fn) {
  if (!fn) return nullptr;
  return [fn = std::move(fn)](const RunRecord& rec) {
    return fn(rec.gather, rec.gather_outcome);
  };
}

ComponentsFn wrap(LinearComponentsFn fn) {
  if (!fn) return nullptr;
  return [fn = std::move(fn)](const RunRecord& rec) {
    return fn(rec.linear, rec.linear_outcome);
  };
}

ComponentsFn wrap(CoverageComponentsFn fn) {
  if (!fn) return nullptr;
  return [fn = std::move(fn)](const RunRecord& rec) {
    return fn(rec.coverage, rec.coverage_outcome);
  };
}

}  // namespace

ScenarioSet& ScenarioSet::add(rendezvous::Scenario scenario, std::string label,
                              RendezvousComponentsFn components) {
  WorkItem item;
  item.family = Family::kRendezvous;
  item.label = std::move(label);
  item.scenario = std::move(scenario);
  item.components = wrap(std::move(components));
  explicit_.push_back(std::move(item));
  return *this;
}

ScenarioSet& ScenarioSet::speeds(std::vector<double> values) {
  speeds_ = std::move(values);
  has_grid_ = true;
  return *this;
}

ScenarioSet& ScenarioSet::time_units(std::vector<double> values) {
  time_units_ = std::move(values);
  has_grid_ = true;
  return *this;
}

ScenarioSet& ScenarioSet::orientations(std::vector<double> values) {
  orientations_ = std::move(values);
  has_grid_ = true;
  return *this;
}

ScenarioSet& ScenarioSet::chiralities(std::vector<int> values) {
  chiralities_ = std::move(values);
  has_grid_ = true;
  return *this;
}

ScenarioSet& ScenarioSet::offsets(std::vector<geom::Vec2> values) {
  offsets_ = std::move(values);
  has_grid_ = true;
  return *this;
}

ScenarioSet& ScenarioSet::distances(std::vector<double> values) {
  std::vector<geom::Vec2> offs;
  offs.reserve(values.size());
  for (const double d : values) offs.push_back({d, 0.0});
  return offsets(std::move(offs));
}

ScenarioSet& ScenarioSet::base(rendezvous::Scenario base_scenario) {
  base_ = std::move(base_scenario);
  return *this;
}

ScenarioSet& ScenarioSet::visibility(double r) {
  base_.visibility = r;
  return *this;
}

ScenarioSet& ScenarioSet::algorithm(rendezvous::AlgorithmChoice choice) {
  base_.algorithm = choice;
  return *this;
}

ScenarioSet& ScenarioSet::max_time(double horizon) {
  base_.max_time = horizon;
  return *this;
}

ScenarioSet& ScenarioSet::horizon(
    std::function<double(const rendezvous::Scenario&)> horizon_fn) {
  horizon_fn_ = std::move(horizon_fn);
  return *this;
}

ScenarioSet& ScenarioSet::filter(
    std::function<bool(const rendezvous::Scenario&)> keep_fn) {
  keep_fn_ = std::move(keep_fn);
  return *this;
}

ScenarioSet& ScenarioSet::label(
    std::function<std::string(const rendezvous::Scenario&)> label_fn) {
  label_fn_ = std::move(label_fn);
  return *this;
}

ScenarioSet& ScenarioSet::components(RendezvousComponentsFn fn) {
  components_fn_ = std::move(fn);
  return *this;
}

ScenarioSet& ScenarioSet::add_search(SearchCell cell, std::string label,
                                     SearchComponentsFn components) {
  WorkItem item;
  item.family = Family::kSearch;
  item.label = std::move(label);
  item.search = std::move(cell);
  item.components = wrap(std::move(components));
  explicit_search_.push_back(std::move(item));
  return *this;
}

ScenarioSet& ScenarioSet::search_base(SearchCell base_cell) {
  search_base_ = std::move(base_cell);
  return *this;
}

ScenarioSet& ScenarioSet::search_distances(std::vector<double> values) {
  search_distances_ = std::move(values);
  has_search_grid_ = true;
  return *this;
}

ScenarioSet& ScenarioSet::search_radii(std::vector<double> values) {
  search_radii_ = std::move(values);
  has_search_grid_ = true;
  return *this;
}

ScenarioSet& ScenarioSet::search_programs(std::vector<SearchProgram> values) {
  search_programs_ = std::move(values);
  has_search_grid_ = true;
  return *this;
}

ScenarioSet& ScenarioSet::search_horizon(
    std::function<double(const SearchCell&)> fn) {
  search_horizon_fn_ = std::move(fn);
  return *this;
}

ScenarioSet& ScenarioSet::search_filter(
    std::function<bool(const SearchCell&)> fn) {
  search_keep_fn_ = std::move(fn);
  return *this;
}

ScenarioSet& ScenarioSet::search_components(SearchComponentsFn fn) {
  search_components_fn_ = std::move(fn);
  return *this;
}

ScenarioSet& ScenarioSet::add_gather(GatherCell cell, std::string label,
                                     GatherComponentsFn components) {
  WorkItem item;
  item.family = Family::kGather;
  item.label = std::move(label);
  item.gather = std::move(cell);
  item.components = wrap(std::move(components));
  explicit_gather_.push_back(std::move(item));
  return *this;
}

ScenarioSet& ScenarioSet::gather_base(GatherCell base_cell) {
  gather_base_ = std::move(base_cell);
  return *this;
}

ScenarioSet& ScenarioSet::gather_sizes(std::vector<int> values) {
  gather_sizes_ = std::move(values);
  return *this;
}

ScenarioSet& ScenarioSet::gather_fleet(
    std::function<std::vector<geom::RobotAttributes>(int)> fleet_fn) {
  gather_fleet_fn_ = std::move(fleet_fn);
  return *this;
}

ScenarioSet& ScenarioSet::gather_label(
    std::function<std::string(const GatherCell&)> fn) {
  gather_label_fn_ = std::move(fn);
  return *this;
}

ScenarioSet& ScenarioSet::add_linear(LinearCell cell, std::string label,
                                     LinearComponentsFn components) {
  WorkItem item;
  item.family = Family::kLinear;
  item.label = std::move(label);
  item.linear = std::move(cell);
  item.components = wrap(std::move(components));
  explicit_linear_.push_back(std::move(item));
  return *this;
}

ScenarioSet& ScenarioSet::linear_base(LinearCell base_cell) {
  linear_base_ = std::move(base_cell);
  return *this;
}

ScenarioSet& ScenarioSet::linear_distances(std::vector<double> values) {
  linear_distances_ = std::move(values);
  has_linear_grid_ = true;
  return *this;
}

ScenarioSet& ScenarioSet::linear_radii(std::vector<double> values) {
  linear_radii_ = std::move(values);
  has_linear_grid_ = true;
  return *this;
}

ScenarioSet& ScenarioSet::linear_horizon(
    std::function<double(const LinearCell&)> fn) {
  linear_horizon_fn_ = std::move(fn);
  return *this;
}

ScenarioSet& ScenarioSet::linear_filter(
    std::function<bool(const LinearCell&)> fn) {
  linear_keep_fn_ = std::move(fn);
  return *this;
}

ScenarioSet& ScenarioSet::linear_label(
    std::function<std::string(const LinearCell&)> fn) {
  linear_label_fn_ = std::move(fn);
  return *this;
}

ScenarioSet& ScenarioSet::linear_components(LinearComponentsFn fn) {
  linear_components_fn_ = std::move(fn);
  return *this;
}

ScenarioSet& ScenarioSet::add_coverage(CoverageCell cell, std::string label,
                                       CoverageComponentsFn components) {
  WorkItem item;
  item.family = Family::kCoverage;
  item.label = std::move(label);
  item.coverage = std::move(cell);
  item.components = wrap(std::move(components));
  explicit_coverage_.push_back(std::move(item));
  return *this;
}

ScenarioSet& ScenarioSet::coverage_base(CoverageCell base_cell) {
  coverage_base_ = std::move(base_cell);
  return *this;
}

ScenarioSet& ScenarioSet::coverage_programs(
    std::vector<SearchProgram> values) {
  coverage_programs_ = std::move(values);
  has_coverage_grid_ = true;
  return *this;
}

ScenarioSet& ScenarioSet::coverage_disk_radii(std::vector<double> values) {
  coverage_disk_radii_ = std::move(values);
  has_coverage_grid_ = true;
  return *this;
}

ScenarioSet& ScenarioSet::coverage_radii(std::vector<double> values) {
  coverage_radii_ = std::move(values);
  has_coverage_grid_ = true;
  return *this;
}

ScenarioSet& ScenarioSet::coverage_horizon(
    std::function<double(const CoverageCell&)> fn) {
  coverage_horizon_fn_ = std::move(fn);
  return *this;
}

ScenarioSet& ScenarioSet::coverage_label(
    std::function<std::string(const CoverageCell&)> fn) {
  coverage_label_fn_ = std::move(fn);
  return *this;
}

ScenarioSet& ScenarioSet::components_only(bool on) {
  components_only_ = on;
  return *this;
}

std::vector<WorkItem> ScenarioSet::materialize_work() const {
  std::vector<WorkItem> out;

  // Set-level typed hooks, lifted once; per-cell hooks win.
  const ComponentsFn set_components = wrap(components_fn_);
  const ComponentsFn set_search_components = wrap(search_components_fn_);
  const ComponentsFn set_linear_components = wrap(linear_components_fn_);

  // ---- 1. rendezvous: explicit adds, then the attribute grid ----------
  auto emit = [&](rendezvous::Scenario s, std::string label,
                  const ComponentsFn& components) {
    // Filter first: horizon rules (e.g. theorem bounds) need not be
    // well defined on dropped cells such as infeasible corners.
    if (keep_fn_ && !keep_fn_(s)) return;
    if (horizon_fn_) s.max_time = horizon_fn_(s);
    if (label.empty() && label_fn_) label = label_fn_(s);
    WorkItem item;
    item.family = Family::kRendezvous;
    item.label = std::move(label);
    item.scenario = std::move(s);
    item.components = components ? components : set_components;
    item.components_only = components_only_;
    out.push_back(std::move(item));
  };

  for (const WorkItem& it : explicit_) {
    emit(it.scenario, it.label, it.components);
  }

  if (has_grid_) {
    // Unset axes contribute the base value, so the nesting below always
    // covers the full cross product.
    const std::vector<double> vs =
        speeds_.empty() ? std::vector<double>{base_.attrs.speed} : speeds_;
    const std::vector<double> taus =
        time_units_.empty() ? std::vector<double>{base_.attrs.time_unit}
                            : time_units_;
    const std::vector<double> phis =
        orientations_.empty() ? std::vector<double>{base_.attrs.orientation}
                              : orientations_;
    const std::vector<int> chis =
        chiralities_.empty() ? std::vector<int>{base_.attrs.chirality}
                             : chiralities_;
    const std::vector<geom::Vec2> offs =
        offsets_.empty() ? std::vector<geom::Vec2>{base_.offset} : offsets_;

    for (const double v : vs) {
      for (const double tau : taus) {
        for (const double phi : phis) {
          for (const int chi : chis) {
            for (const geom::Vec2& off : offs) {
              rendezvous::Scenario s = base_;
              s.attrs.speed = v;
              s.attrs.time_unit = tau;
              s.attrs.orientation = phi;
              s.attrs.chirality = chi;
              s.offset = off;
              emit(std::move(s), "", nullptr);
            }
          }
        }
      }
    }
  }

  // ---- 2. search: explicit adds, then distances ⊃ radii ⊃ programs ----
  auto emit_search = [&](SearchCell cell, std::string label,
                         const ComponentsFn& components) {
    if (search_keep_fn_ && !search_keep_fn_(cell)) return;
    if (search_horizon_fn_) cell.max_time = search_horizon_fn_(cell);
    WorkItem item;
    item.family = Family::kSearch;
    item.label = std::move(label);
    item.search = std::move(cell);
    item.components = components ? components : set_search_components;
    item.components_only = components_only_;
    out.push_back(std::move(item));
  };

  for (const WorkItem& item : explicit_search_) {
    emit_search(item.search, item.label, item.components);
  }

  if (has_search_grid_) {
    const std::vector<double> ds =
        search_distances_.empty() ? std::vector<double>{search_base_.distance}
                                  : search_distances_;
    const std::vector<double> rs =
        search_radii_.empty() ? std::vector<double>{search_base_.visibility}
                              : search_radii_;
    const std::vector<SearchProgram> progs =
        search_programs_.empty()
            ? std::vector<SearchProgram>{search_base_.program}
            : search_programs_;
    for (const double d : ds) {
      for (const double r : rs) {
        for (const SearchProgram prog : progs) {
          SearchCell cell = search_base_;
          cell.distance = d;
          cell.visibility = r;
          cell.program = prog;
          emit_search(std::move(cell), "", nullptr);
        }
      }
    }
  }

  // ---- 3. gather: explicit adds, then the fleet-size grid -------------
  auto emit_gather = [&](GatherCell cell, std::string label,
                         const ComponentsFn& components) {
    if (label.empty() && gather_label_fn_) label = gather_label_fn_(cell);
    WorkItem item;
    item.family = Family::kGather;
    item.label = std::move(label);
    item.gather = std::move(cell);
    item.components = components;
    item.components_only = components_only_;
    out.push_back(std::move(item));
  };

  for (const WorkItem& item : explicit_gather_) {
    emit_gather(item.gather, item.label, item.components);
  }

  for (const int n : gather_sizes_) {
    if (n < 2) {
      throw std::invalid_argument("ScenarioSet: gather size must be >= 2");
    }
    GatherCell cell = gather_base_;
    cell.fleet = gather_fleet_fn_
                     ? gather_fleet_fn_(n)
                     : std::vector<geom::RobotAttributes>(
                           static_cast<std::size_t>(n),
                           geom::reference_attributes());
    emit_gather(std::move(cell), "", nullptr);
  }

  // ---- 4. linear: explicit adds, then distances ⊃ radii ---------------
  auto emit_linear = [&](LinearCell cell, std::string label,
                         const ComponentsFn& components) {
    if (linear_keep_fn_ && !linear_keep_fn_(cell)) return;
    if (linear_horizon_fn_) cell.max_time = linear_horizon_fn_(cell);
    if (label.empty() && linear_label_fn_) label = linear_label_fn_(cell);
    WorkItem item;
    item.family = Family::kLinear;
    item.label = std::move(label);
    item.linear = std::move(cell);
    item.components = components ? components : set_linear_components;
    item.components_only = components_only_;
    out.push_back(std::move(item));
  };

  for (const WorkItem& item : explicit_linear_) {
    emit_linear(item.linear, item.label, item.components);
  }

  if (has_linear_grid_) {
    const std::vector<double> ds =
        linear_distances_.empty() ? std::vector<double>{linear_base_.target}
                                  : linear_distances_;
    const std::vector<double> rs =
        linear_radii_.empty() ? std::vector<double>{linear_base_.visibility}
                              : linear_radii_;
    for (const double d : ds) {
      for (const double r : rs) {
        LinearCell cell = linear_base_;
        cell.target = d;
        cell.visibility = r;
        emit_linear(std::move(cell), "", nullptr);
      }
    }
  }

  // ---- 5. coverage: explicit adds, then programs ⊃ R ⊃ r --------------
  auto emit_coverage = [&](CoverageCell cell, std::string label,
                           const ComponentsFn& components) {
    if (coverage_horizon_fn_) cell.horizon = coverage_horizon_fn_(cell);
    if (label.empty() && coverage_label_fn_) label = coverage_label_fn_(cell);
    WorkItem item;
    item.family = Family::kCoverage;
    item.label = std::move(label);
    item.coverage = std::move(cell);
    item.components = components;
    item.components_only = components_only_;
    out.push_back(std::move(item));
  };

  for (const WorkItem& item : explicit_coverage_) {
    emit_coverage(item.coverage, item.label, item.components);
  }

  if (has_coverage_grid_) {
    const std::vector<SearchProgram> progs =
        coverage_programs_.empty()
            ? std::vector<SearchProgram>{coverage_base_.program}
            : coverage_programs_;
    const std::vector<double> radii =
        coverage_disk_radii_.empty()
            ? std::vector<double>{coverage_base_.disk_radius}
            : coverage_disk_radii_;
    const std::vector<double> rs =
        coverage_radii_.empty()
            ? std::vector<double>{coverage_base_.visibility}
            : coverage_radii_;
    for (const SearchProgram prog : progs) {
      for (const double radius : radii) {
        for (const double r : rs) {
          CoverageCell cell = coverage_base_;
          cell.program = prog;
          cell.disk_radius = radius;
          cell.visibility = r;
          emit_coverage(std::move(cell), "", nullptr);
        }
      }
    }
  }

  return out;
}

}  // namespace rv::engine
