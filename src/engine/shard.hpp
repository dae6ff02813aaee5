#pragma once

/// \file shard.hpp
/// Deterministic partitioning of a `ScenarioSet`'s work across
/// processes.
///
/// A `ScenarioSet` materialises into a fixed, documented work-item
/// order (engine/scenario_set.hpp), and `ResultSet` emission is a pure
/// function of the records in that order.  Sharding exploits exactly
/// that: `shard_plan(total, s, N)` assigns every *global item index*
/// `i` with `i % N == s` to shard `s` — a stable, input-independent
/// rule — so any partition of the grid can be executed anywhere (other
/// threads, other processes, other machines) and reassembled by global
/// index into the **byte-identical** single-process table/CSV/JSON.
///
/// Two reassembly paths exist:
///
///  * in-process — `merge_shards` places each shard's records back at
///    their global indices (`run_sharded` is the one-call version used
///    by the tests to pin shard-count invariance);
///  * cross-process — each shard process (`rv_batch run --shard s/N`,
///    or a child of `run_forked_shards`) persists its computed
///    outcomes to a cache file (engine/cache_store.hpp); the merge
///    process loads every shard file into one `ScenarioCache` and runs
///    the *full* set warm, replaying every outcome (all hits, no
///    recomputation) into the single-process emission.  Cached
///    outcomes replay bit-for-bit, so both paths produce the same
///    bytes.

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/families.hpp"
#include "engine/runner.hpp"
#include "engine/scenario_set.hpp"
#include "engine/supervisor.hpp"

namespace rv::engine {

/// The work-item indices one shard owns.
struct ShardPlan {
  std::size_t shard = 0;       ///< this shard's id in [0, num_shards)
  std::size_t num_shards = 1;  ///< total shards of the partition
  std::size_t total = 0;       ///< work items in the full set
  /// Global indices owned by this shard, ascending (i % num_shards ==
  /// shard).  The strided rule interleaves neighbouring grid cells —
  /// which tend to cost alike — across shards, so shards balance
  /// without a cost model.
  std::vector<std::size_t> indices;
};

/// Builds the plan of shard `shard` of `num_shards` over `total` items.
/// \throws std::invalid_argument when num_shards == 0 or shard >=
/// num_shards.  (num_shards > total is fine: trailing shards are
/// empty.)
[[nodiscard]] ShardPlan shard_plan(std::size_t total, std::size_t shard,
                                   std::size_t num_shards);

/// The sub-list of `work` owned by `plan`, in plan (ascending global
/// index) order.  \throws std::invalid_argument when the plan's total
/// does not match `work.size()`.
[[nodiscard]] std::vector<WorkItem> shard_work(
    const std::vector<WorkItem>& work, const ShardPlan& plan);

/// `work` without the items at the ascending global indices `dropped`,
/// in order: what a partial merge replays.
[[nodiscard]] std::vector<WorkItem> without_items(
    const std::vector<WorkItem>& work, const std::vector<std::size_t>& dropped);

/// Runs only the plan's items (records come back in plan order — pass
/// them to `merge_shards` to restore global order).
[[nodiscard]] ResultSet run_shard(const std::vector<WorkItem>& work,
                                  const ShardPlan& plan,
                                  RunnerOptions options = {});

/// One shard's executed slice, ready to merge.
struct ShardResult {
  ShardPlan plan;
  ResultSet results;  ///< records in plan order (as returned by run_shard)
};

/// The canonical cache file name of one shard of a set:
/// `<set>-shard-<I>-of-<N>.rvcache` (a "<set>" placeholder stands in
/// when `set_name` is empty).  This is the file `rv_batch run --shard
/// I/N --cache-dir` writes and the one merge diagnostics point
/// operators at.
[[nodiscard]] std::string shard_file_name(const std::string& set_name,
                                          std::size_t shard,
                                          std::size_t num_shards);

/// Saves the outcomes `cache` holds for the items `plan` owns to
/// `path`, together with every entry the file already holds (first
/// writer wins), published by atomic rename.  Merging the old entries
/// means two declarations that share a file name never drop each
/// other's persisted work.  Returns the number of entries written.
std::size_t save_owned_outcomes(const std::filesystem::path& path,
                                const std::vector<WorkItem>& work,
                                const ShardPlan& plan,
                                const ScenarioCache& cache);

/// A forked, supervised run of every shard of one work list.
struct ForkedShards {
  std::string set_name;             ///< shard file prefix (shard_file_name)
  std::filesystem::path cache_dir;  ///< where each child saves its file
  std::size_t procs = 2;            ///< shards, one child each
  unsigned threads = 1;             ///< runner threads per child
  /// Failpoint site each child fires first (index = shard id).
  const char* child_site = "shard.worker.start";
  SupervisorOptions supervisor;
};

/// Forks one supervised child per shard p of `options.procs`.  Child p
/// runs `run_shard` over plan p against its copy-on-write image of
/// `*cache`, then saves the outcomes its plan owns to `cache_dir /
/// shard_file_name(set_name, p, procs)`, unless it computed nothing and
/// the file exists.  Callers load the shard files back.
[[nodiscard]] SupervisorReport run_forked_shards(
    const std::vector<WorkItem>& work, ScenarioCache* cache,
    const ForkedShards& options);

/// Reassembles per-shard results into the single-process `ResultSet`:
/// every record is placed at its global index and the shards' cache
/// counters are summed.  \throws std::invalid_argument when the plans
/// disagree on total/num_shards, a slice's size does not match its
/// plan, or the union does not cover every index exactly once — the
/// incomplete/duplicate messages name the affected global indices and
/// the shard cache file (via `set_name`) to re-drive.
[[nodiscard]] ResultSet merge_shards(const std::vector<ShardResult>& shards,
                                     const std::string& set_name = "");

/// Convenience: materialises `set`, runs all `num_shards` shards as
/// separate `run_scenarios` calls (sequentially, sharing `options` —
/// including its cache, as cross-process merges do), and merges.  The
/// result is byte-identical to `run_scenarios(set, options)` for any
/// shard count — the invariance the golden tests pin.
[[nodiscard]] ResultSet run_sharded(const ScenarioSet& set,
                                    std::size_t num_shards,
                                    RunnerOptions options = {});

}  // namespace rv::engine
