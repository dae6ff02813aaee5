#include "engine/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "engine/failpoint.hpp"
#include "io/json.hpp"
#include "rendezvous/feasibility.hpp"

namespace rv::engine {

namespace {

// ---------------------------------------------------------------------------
// Field lists.  `visit_fields` names every standard column of a family
// once, with its kind; the sinks below turn the same list into CSV
// header names, CSV cells, JSON members and table cells.  To add a
// column, add one line to its family's list.
// ---------------------------------------------------------------------------

/// A real column's table precision when it follows the caller's
/// `precision` argument instead of a fixed digit count.
constexpr int kCallerPrecision = -1;

/// The table words of a flag column (CSV prints 1/0, JSON true/false).
struct FlagWords {
  const char* set;
  const char* clear;
};
constexpr FlagWords kFeasibleWords{"feasible", "INFEASIBLE"};
constexpr FlagWords kYesNo{"yes", "no"};

// The column kinds.
struct Real {
  double value;
  int digits;  ///< table precision, or kCallerPrecision
};
struct Integer {
  template <class T>
  explicit Integer(T value) : text(std::to_string(value)) {}
  std::string text;  ///< printed the same in every sink
};
struct Text {
  std::string_view value;
};
struct Flag {
  bool value;
  FlagWords words;
};
/// A time that the table prints as ">horizon" when negative (never
/// reached before the horizon).
struct TimeOrNever {
  double value;
};
/// A caller-supplied derived column, evaluated only by the sinks that
/// print values (printed like Text).
struct Extra {
  const Column& column;
  const RunRecord& rec;
};

const char* gather_algorithm_name(const GatherCell& cell) {
  return cell.algorithm == rendezvous::AlgorithmChoice::kAlgorithm4
             ? "algorithm4"
             : "algorithm7";
}

/// The standard columns of `rec`'s family, in emission order.
template <class Sink>
void visit_fields(const RunRecord& rec, Sink& sink) {
  switch (rec.family) {
    case Family::kRendezvous: {
      const rendezvous::Scenario& s = rec.scenario;
      const sim::SimResult& sim = rec.outcome.sim;
      sink("v", Real{s.attrs.speed, 2});
      sink("tau", Real{s.attrs.time_unit, 3});
      sink("phi", Real{s.attrs.orientation, 3});
      sink("chi", Integer{s.attrs.chirality});
      sink("d", Real{rec.outcome.initial_distance, 2});
      sink("r", Real{s.visibility, 3});
      sink("algorithm", Text{rec.outcome.algorithm_name});
      sink("feasible", Flag{rendezvous::is_feasible(rec.outcome.feasibility),
                            kFeasibleWords});
      sink("met", Flag{sim.met, kYesNo});
      sink("time", Real{sim.time, kCallerPrecision});
      sink("distance", Real{sim.distance, kCallerPrecision});
      sink("min_distance", Real{sim.min_distance, kCallerPrecision});
      sink("evals", Integer{sim.evals});
      sink("segments", Integer{sim.segments});
      return;
    }
    case Family::kSearch: {
      const SearchCell& c = rec.search;
      const SearchOutcome& o = rec.search_outcome;
      sink("d", Real{c.distance, 2});
      sink("r", Real{c.visibility, 4});
      sink("angles", Integer{c.angles});
      sink("program", Text{o.program_name});
      sink("found", Integer{o.found});
      sink("missed", Integer{o.missed});
      sink("worst_time", Real{o.worst_time, kCallerPrecision});
      sink("mean_time", Real{o.mean_time, kCallerPrecision});
      sink("worst_angle", Real{o.worst_angle, 3});
      sink("evals", Integer{o.evals});
      sink("segments", Integer{o.segments});
      return;
    }
    case Family::kGather: {
      const GatherCell& c = rec.gather;
      const GatherOutcome& o = rec.gather_outcome;
      sink("n", Integer{c.fleet.size()});
      sink("ring_radius", Real{c.ring_radius, 2});
      sink("r", Real{c.visibility, 3});
      sink("algorithm", Text{gather_algorithm_name(c)});
      sink("contact", Flag{o.contact.achieved, kYesNo});
      sink("contact_time", Real{o.contact.time, kCallerPrecision});
      sink("pair_i", Integer{o.contact.pair_i});
      sink("pair_j", Integer{o.contact.pair_j});
      sink("gathered", Flag{o.gathered.achieved, kYesNo});
      sink("gathered_time", Real{o.gathered.time, kCallerPrecision});
      sink("min_max_pairwise",
           Real{o.gathered.min_max_pairwise, kCallerPrecision});
      // The contact and gathering sweeps' work, summed.
      sink("evals", Integer{o.contact.evals + o.gathered.evals});
      sink("segments", Integer{o.contact.segments + o.gathered.segments});
      return;
    }
    case Family::kLinear: {
      const LinearCell& c = rec.linear;
      const LinearOutcome& o = rec.linear_outcome;
      sink("mode", Text{linear_mode_name(c.mode)});
      sink("v", Real{c.attrs.speed, 2});
      sink("tau", Real{c.attrs.time_unit, 3});
      sink("dir", Integer{c.attrs.direction});
      sink("d", Real{c.target, 2});
      sink("r", Real{c.visibility, 3});
      sink("feasible", Flag{o.feasible, kFeasibleWords});
      sink("met", Flag{o.sim.met, kYesNo});
      sink("time", Real{o.sim.time, kCallerPrecision});
      sink("distance", Real{o.sim.distance, kCallerPrecision});
      sink("min_distance", Real{o.sim.min_distance, kCallerPrecision});
      sink("evals", Integer{o.sim.evals});
      sink("segments", Integer{o.sim.segments});
      return;
    }
    case Family::kCoverage: {
      const CoverageCell& c = rec.coverage;
      const CoverageOutcome& o = rec.coverage_outcome;
      sink("program", Text{o.program_name});
      sink("R", Real{c.disk_radius, 2});
      sink("r", Real{c.visibility, 3});
      sink("cell", Real{c.cell, 3});
      sink("checkpoints", Integer{c.checkpoints});
      sink("horizon", Real{c.horizon, 0});
      sink("t50", TimeOrNever{o.t50});
      sink("t99", TimeOrNever{o.t99});
      sink("final_fraction", Real{o.final_fraction, 4});
      sink("covered_area", Real{o.covered_area, kCallerPrecision});
      return;
    }
  }
}

/// One emitted row: the label (when the set has labels), the family's
/// fields, one real per component time, then the extras.
template <class Sink>
void visit_row(const RunRecord& rec, bool with_label,
               const std::vector<Column>& extras, Sink& sink) {
  if (with_label) sink("label", Text{rec.label});
  visit_fields(rec, sink);
  for (const Component& c : rec.components) {
    sink(c.name, Real{c.value, kCallerPrecision});
  }
  for (const Column& col : extras) sink(col.name, Extra{col, rec});
}

/// Header names.
struct NameSink {
  std::vector<std::string> cells;
  template <class Kind>
  void operator()(std::string_view name, const Kind&) {
    cells.emplace_back(name);
  }
};

/// The cells that CSV and the table print alike: integers, text and
/// extras as their text.
struct CellSink {
  std::vector<std::string> cells;
  void operator()(std::string_view, Integer f) {
    cells.push_back(std::move(f.text));
  }
  void operator()(std::string_view, const Text& f) {
    cells.emplace_back(f.value);
  }
  void operator()(std::string_view, const Extra& f) {
    cells.push_back(f.column.value(f.rec));
  }
};

/// CSV cells: reals at 12 significant digits, flags as 1/0.
struct CsvSink : CellSink {
  using CellSink::operator();
  void operator()(std::string_view, const Real& f) {
    cells.push_back(io::format_double(f.value));
  }
  void operator()(std::string_view, const Flag& f) {
    cells.emplace_back(f.value ? "1" : "0");
  }
  void operator()(std::string_view, const TimeOrNever& f) {
    cells.push_back(io::format_double(f.value));
  }
};

/// JSON members appended to `out`: reals as numbers (non-finite as
/// null), flags as booleans, text and extras quoted and escaped.
struct JsonSink {
  std::string& out;
  bool first = true;

  void key(std::string_view name) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += io::json_escape(name);
    out += "\": ";
  }
  void quoted(std::string_view value) {
    out += '"';
    out += io::json_escape(value);
    out += '"';
  }
  void operator()(std::string_view name, const Real& f) {
    key(name);
    out += io::json_number(f.value);
  }
  void operator()(std::string_view name, const Integer& f) {
    key(name);
    out += f.text;
  }
  void operator()(std::string_view name, const Text& f) {
    key(name);
    quoted(f.value);
  }
  void operator()(std::string_view name, const Flag& f) {
    key(name);
    out += f.value ? "true" : "false";
  }
  void operator()(std::string_view name, const TimeOrNever& f) {
    key(name);
    out += io::json_number(f.value);
  }
  void operator()(std::string_view name, const Extra& f) {
    key(name);
    quoted(f.column.value(f.rec));
  }
};

/// Table cells: reals fixed-point at their column's precision, flags as
/// their words, unreached times as ">horizon".
struct TableSink : CellSink {
  using CellSink::operator();
  explicit TableSink(int precision) : precision(precision) {}
  int precision;

  void operator()(std::string_view, const Real& f) {
    cells.push_back(io::format_fixed(
        f.value, f.digits == kCallerPrecision ? precision : f.digits));
  }
  void operator()(std::string_view, const Flag& f) {
    cells.emplace_back(f.value ? f.words.set : f.words.clear);
  }
  void operator()(std::string_view, const TimeOrNever& f) {
    cells.push_back(f.value >= 0.0 ? io::format_fixed(f.value, precision)
                                   : ">horizon");
  }
};

}  // namespace

ResultSet::ResultSet(std::vector<RunRecord> records)
    : records_(std::move(records)) {
  for (const RunRecord& rec : records_) {
    if (!rec.label.empty()) {
      any_label_ = true;
      break;
    }
  }
}

bool ResultSet::all_met() const {
  for (const RunRecord& rec : records_) {
    switch (rec.family) {
      case Family::kRendezvous:
        if (!rec.outcome.sim.met) return false;
        break;
      case Family::kSearch:
        if (!rec.search_outcome.complete) return false;
        break;
      case Family::kGather:
        if (!rec.gather_outcome.gathered.achieved) return false;
        break;
      case Family::kLinear:
        if (!rec.linear_outcome.sim.met) return false;
        break;
      case Family::kCoverage:
        if (rec.coverage_outcome.t99 < 0.0) return false;
        break;
    }
  }
  return true;
}

ResultSet ResultSet::filtered(Family family) const {
  std::vector<RunRecord> subset;
  for (const RunRecord& rec : records_) {
    if (rec.family == family) subset.push_back(rec);
  }
  ResultSet out(std::move(subset));
  out.set_cache_stats(cache_stats_);
  return out;
}

bool ScenarioCache::lookup(const std::string& key, Entry* out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) return false;
  *out = it->second;
  return true;
}

bool ScenarioCache::contains(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return map_.find(key) != map_.end();
}

bool ScenarioCache::store(const std::string& key, Entry entry) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return map_.emplace(key, std::move(entry)).second;
}

std::vector<std::pair<std::string, ScenarioCache::Entry>>
ScenarioCache::snapshot() const {
  std::vector<std::pair<std::string, Entry>> entries;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries.reserve(map_.size());
    // rv-lint: allow(unordered-iteration) — gathered unsorted, sorted below
    for (const auto& [key, entry] : map_) entries.emplace_back(key, entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

std::size_t ScenarioCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

void ScenarioCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
}

void ResultSet::check_schema() const {
  if (records_.empty()) return;
  const RunRecord& first = records_.front();
  for (const RunRecord& rec : records_) {
    if (rec.family != first.family) {
      throw std::logic_error(
          "ResultSet: emission needs a homogeneous family; split mixed runs "
          "with filtered()");
    }
    bool same = rec.components.size() == first.components.size();
    for (std::size_t i = 0; same && i < first.components.size(); ++i) {
      same = rec.components[i].name == first.components[i].name;
    }
    if (!same) {
      throw std::logic_error(
          "ResultSet: emission needs one component-column schema; records "
          "disagree on component names");
    }
  }
}

io::CsvRow ResultSet::csv_header(const std::vector<Column>& extras) const {
  check_schema();
  // The first record names the columns; an empty set names those of a
  // default record, i.e. the rendezvous header.
  static const RunRecord kDefault{};
  NameSink names;
  visit_row(records_.empty() ? kDefault : records_.front(), any_label_,
            extras, names);
  return std::move(names.cells);
}

std::vector<io::CsvRow> ResultSet::csv_rows(
    const std::vector<Column>& extras) const {
  check_schema();
  std::vector<io::CsvRow> rows;
  rows.reserve(records_.size());
  for (const RunRecord& rec : records_) {
    CsvSink row;
    visit_row(rec, any_label_, extras, row);
    rows.push_back(std::move(row.cells));
  }
  return rows;
}

std::string ResultSet::to_csv(const std::vector<Column>& extras) const {
  std::ostringstream os;
  io::CsvWriter writer(os);
  writer.header(csv_header(extras));
  for (const io::CsvRow& row : csv_rows(extras)) writer.row(row);
  return os.str();
}

std::string ResultSet::to_json(const std::vector<Column>& extras) const {
  check_schema();
  std::string out = "[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    out += i == 0 ? "\n  {" : ",\n  {";
    JsonSink members{out};
    visit_row(records_[i], any_label_, extras, members);
    out += '}';
  }
  out += "\n]\n";
  return out;
}

io::Table ResultSet::to_table(const std::vector<Column>& extras,
                              int precision) const {
  io::Table table(csv_header(extras));
  if (any_label_) table.set_align(0, io::Align::kLeft);
  for (const RunRecord& rec : records_) {
    TableSink row(precision);
    visit_row(rec, any_label_, extras, row);
    table.add_row(std::move(row.cells));
  }
  return table;
}

std::string ResultSet::render(const std::string& format) const {
  if (format == "csv") return to_csv();
  if (format == "json") return to_json();
  if (format == "table") {
    std::ostringstream os;
    to_table().print(os);
    return os.str();
  }
  throw std::invalid_argument("format must be csv, json or table, got '" +
                              format + "'");
}

ResultSet run_scenarios(const std::vector<WorkItem>& work,
                        RunnerOptions options) {
  const std::size_t n = work.size();
  std::vector<RunRecord> records(n);
  std::vector<std::exception_ptr> errors(n);

  unsigned threads =
      options.threads ? options.threads : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (threads > n) threads = static_cast<unsigned>(n);

  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> hits{0}, misses{0}, uncacheable{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const WorkItem& item = work[i];
      try {
        // Chaos site: an `error` action lands in this catch and
        // surfaces through ResultSet like any scenario failure.
        RV_FAILPOINT_AT("runner.work.item", i);
        // Value-initialised: components-only records never run their
        // scenario, yet emit outcome fields such as `feasible`.
        RunRecord rec{};
        rec.family = item.family;
        rec.label = item.label;
        switch (item.family) {
          case Family::kRendezvous:
            rec.scenario = item.scenario;
            break;
          case Family::kSearch:
            rec.search = item.search;
            break;
          case Family::kGather:
            rec.gather = item.gather;
            break;
          case Family::kLinear:
            rec.linear = item.linear;
            break;
          case Family::kCoverage:
            rec.coverage = item.coverage;
            break;
        }

        // Memoization: replay an identical cell's outcome instead of
        // recomputing it.  Outcomes are pure functions of the content
        // key, so the replayed record is byte-identical to a computed
        // one in every emitter.
        std::optional<std::string> key;
        ScenarioCache::Entry entry;
        bool hit = false;
        if (options.cache) {
          key = cache_key(item);
          if (!key) {
            uncacheable.fetch_add(1, std::memory_order_relaxed);
          } else if (options.cache->lookup(*key, &entry)) {
            hit = true;
            hits.fetch_add(1, std::memory_order_relaxed);
          } else {
            misses.fetch_add(1, std::memory_order_relaxed);
          }
        }

        if (hit) {
          rec.outcome = std::move(entry.outcome);
          rec.search_outcome = std::move(entry.search_outcome);
          rec.gather_outcome = std::move(entry.gather_outcome);
          rec.linear_outcome = std::move(entry.linear_outcome);
          rec.coverage_outcome = std::move(entry.coverage_outcome);
        } else if (!item.components_only) {
          switch (item.family) {
            case Family::kRendezvous:
              rec.outcome = rendezvous::run_scenario(item.scenario);
              break;
            case Family::kSearch:
              rec.search_outcome = run_search_cell(item.search);
              break;
            case Family::kGather:
              rec.gather_outcome = run_gather_cell(item.gather);
              break;
            case Family::kLinear:
              rec.linear_outcome = run_linear_cell(item.linear);
              break;
            case Family::kCoverage:
              rec.coverage_outcome = run_coverage_cell(item.coverage);
              break;
          }
          if (key) {
            entry.outcome = rec.outcome;
            entry.search_outcome = rec.search_outcome;
            entry.gather_outcome = rec.gather_outcome;
            entry.linear_outcome = rec.linear_outcome;
            entry.coverage_outcome = rec.coverage_outcome;
            options.cache->store(*key, std::move(entry));
          }
        }
        // Component times are evaluated on every run — computed and
        // replayed cells alike — so caching stays oblivious to the
        // (identity-less) hook functions.
        if (item.components) rec.components = item.components(rec);
        records[i] = std::move(rec);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }

  for (const std::exception_ptr& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  ResultSet result(std::move(records));
  result.set_cache_stats(
      {hits.load(), misses.load(), uncacheable.load()});
  return result;
}

ResultSet run_scenarios(const ScenarioSet& set, RunnerOptions options) {
  return run_scenarios(set.materialize_work(), options);
}

}  // namespace rv::engine
