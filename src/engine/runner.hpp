#pragma once

/// \file runner.hpp
/// Deterministic parallel execution of a `ScenarioSet` and structured
/// aggregation of the outcomes, for every workload family.
///
/// `run_scenarios` materialises the set, fans the work items out across
/// a pool of worker threads (work-stealing by atomic index), and stores
/// each outcome at its item's index.  Because results are placed by
/// index — never by completion order — and every emitter formats
/// through the deterministic `io` helpers, the rendered table, CSV and
/// JSON are **byte-identical regardless of thread count**.  Work items
/// are independent (the library keeps no global mutable state), so the
/// sweep parallelises embarrassingly; the search family's
/// worst-over-angles reduction runs inside its item, in ring order.
///
/// `ResultSet` is the io::Table-backed aggregate.  Its columns are the
/// family's standard columns, named once in that family's field list
/// (`visit_fields` in runner.cpp), then one column per component time
/// (when the cells carry a component-times hook; names must agree
/// across records), then caller-supplied derived columns (bounds,
/// ratios, certificates) computed from each record.  Emission requires
/// a homogeneous family; mixed runs are split per family with
/// `filtered()`.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/families.hpp"
#include "engine/scenario_set.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "rendezvous/core.hpp"

namespace rv::engine {

/// Thread-safe memoization of work-item outcomes, keyed by the
/// scenario content key (`engine::cache_key`).  A cache outlives
/// individual `run_scenarios` calls, so repeated cells — across grid
/// cells of one run or across repeated runs — are computed once and
/// replayed from memory with identical outcomes (the cached outcome
/// *is* the computed outcome, including eval/segment counters, so all
/// emitted tables/CSV/JSON are byte-identical with the cache on or
/// off).
///
/// Safe whenever outcomes are pure functions of the keyed content:
/// always true for the built-in algorithm programs; custom program
/// factories must be deterministic and carry a unique `program_name`
/// (anonymous factories are uncacheable and always recomputed — see
/// `cache_key`).  Disable caching by leaving `RunnerOptions::cache`
/// null (the default).
class ScenarioCache {
 public:
  /// One memoized outcome; only the payload matching the key's family
  /// (its leading byte) is meaningful — cross-family collisions are
  /// impossible, so the entry carries no family tag of its own.
  /// Component times are never stored: hooks are re-evaluated on every
  /// run (they are pure functions of the record, and an arbitrary
  /// function has no content identity to key).
  struct Entry {
    rendezvous::Outcome outcome;      ///< kRendezvous payload
    SearchOutcome search_outcome;     ///< kSearch payload
    GatherOutcome gather_outcome;     ///< kGather payload
    LinearOutcome linear_outcome;     ///< kLinear payload
    CoverageOutcome coverage_outcome; ///< kCoverage payload
  };

  /// Copies the entry stored under `key` into `*out`; false if absent.
  [[nodiscard]] bool lookup(const std::string& key, Entry* out) const;
  /// True iff an entry is stored under `key` (no copy — the membership
  /// probe used by the serve layer to classify hits before dispatch).
  [[nodiscard]] bool contains(const std::string& key) const;
  /// Stores the entry under `key` (first writer wins on a race — both
  /// writers computed identical outcomes).  Returns true when the key
  /// was new, false when an entry was already present (left alone).
  bool store(const std::string& key, Entry entry);

  /// Every (key, entry) pair, sorted by key bytes.  The deterministic
  /// export used by `engine::save_cache_file`: two caches holding the
  /// same entries snapshot identically regardless of insertion order.
  [[nodiscard]] std::vector<std::pair<std::string, Entry>> snapshot() const;

  /// Number of memoized outcomes.
  [[nodiscard]] std::size_t size() const;
  /// Drops every memoized outcome.
  void clear();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> map_;
};

/// Hit/miss counters of one `run_scenarios` call (all zero when the
/// run had no cache attached).
struct CacheStats {
  std::uint64_t hits = 0;         ///< items replayed from the cache
  std::uint64_t misses = 0;       ///< cacheable items computed (and stored)
  std::uint64_t uncacheable = 0;  ///< items with no content key
};

/// Parallelism + memoization controls.
struct RunnerOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned threads = 0;
  /// Scenario result cache; null (default) disables memoization.  The
  /// caller owns the cache and may share one instance across runs.
  ScenarioCache* cache = nullptr;
};

// RunRecord — one executed work item — lives in engine/families.hpp
// (next to the cells and outcomes it aggregates, where component-times
// hooks can see it).

/// A derived column: name plus a per-record formatter.
struct Column {
  std::string name;
  std::function<std::string(const RunRecord&)> value;
};

/// Ordered, structured results of a sweep with table/CSV/JSON emission.
class ResultSet {
 public:
  ResultSet() = default;
  explicit ResultSet(std::vector<RunRecord> records);

  [[nodiscard]] const std::vector<RunRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  [[nodiscard]] auto begin() const { return records_.begin(); }
  [[nodiscard]] auto end() const { return records_.end(); }
  [[nodiscard]] const RunRecord& operator[](std::size_t i) const {
    return records_[i];
  }

  /// True iff every record succeeded: rendezvous met, search ring
  /// complete, fleet gathered, linear cell met, coverage cell reached
  /// 99% (per the record's family).
  [[nodiscard]] bool all_met() const;

  /// Cache hit/miss counters of the run that produced this set (all
  /// zero without a cache; copied through by `filtered`).
  [[nodiscard]] const CacheStats& cache_stats() const {
    return cache_stats_;
  }
  /// Attaches the producing run's counters (called by the runner).
  void set_cache_stats(const CacheStats& stats) { cache_stats_ = stats; }

  /// The subset of records belonging to `family` (for emitting mixed
  /// runs one family at a time).
  [[nodiscard]] ResultSet filtered(Family family) const;

  /// The standard column names of the records' family (label only when
  /// any record has one), followed by the extras.  \throws
  /// std::logic_error when records of different families are mixed.
  [[nodiscard]] io::CsvRow csv_header(
      const std::vector<Column>& extras = {}) const;
  /// One CSV row per record, same order as `records()`.
  [[nodiscard]] std::vector<io::CsvRow> csv_rows(
      const std::vector<Column>& extras = {}) const;
  /// Full CSV document (header + rows).
  [[nodiscard]] std::string to_csv(
      const std::vector<Column>& extras = {}) const;
  /// JSON array of row objects keyed by column name.  Strict RFC 8259:
  /// numeric fields are emitted as JSON numbers (non-finite values as
  /// null), met/feasible/contact/gathered as booleans, labels with
  /// control characters escaped.
  [[nodiscard]] std::string to_json(
      const std::vector<Column>& extras = {}) const;
  /// io::Table with the standard + extra columns (for console reports).
  [[nodiscard]] io::Table to_table(const std::vector<Column>& extras = {},
                                   int precision = 4) const;
  /// The document in `format`: "csv", "json" or "table" (the printed
  /// `to_table`).  \throws std::invalid_argument on any other format.
  [[nodiscard]] std::string render(const std::string& format) const;

 private:
  /// \throws std::logic_error unless every record has the same family
  /// and the same component names (emission needs one schema).
  void check_schema() const;

  std::vector<RunRecord> records_;
  bool any_label_ = false;
  CacheStats cache_stats_;
};

/// Runs every work item in the set (all families) and aggregates the
/// outcomes in materialisation order.  Worker exceptions are re-thrown
/// (first by index) after the pool joins.
[[nodiscard]] ResultSet run_scenarios(const ScenarioSet& set,
                                      RunnerOptions options = {});

/// Same, for an already-materialised multi-family work list.
[[nodiscard]] ResultSet run_scenarios(const std::vector<WorkItem>& work,
                                      RunnerOptions options = {});

}  // namespace rv::engine
