#include "engine/shard.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/cache_store.hpp"
#include "engine/failpoint.hpp"

namespace rv::engine {

ShardPlan shard_plan(std::size_t total, std::size_t shard,
                     std::size_t num_shards) {
  if (num_shards == 0) {
    throw std::invalid_argument("shard_plan: num_shards must be >= 1");
  }
  if (shard >= num_shards) {
    throw std::invalid_argument("shard_plan: shard " + std::to_string(shard) +
                                " out of range for " +
                                std::to_string(num_shards) + " shards");
  }
  ShardPlan plan;
  plan.shard = shard;
  plan.num_shards = num_shards;
  plan.total = total;
  for (std::size_t i = shard; i < total; i += num_shards) {
    plan.indices.push_back(i);
  }
  return plan;
}

std::vector<WorkItem> shard_work(const std::vector<WorkItem>& work,
                                 const ShardPlan& plan) {
  if (work.size() != plan.total) {
    throw std::invalid_argument(
        "shard_work: plan covers " + std::to_string(plan.total) +
        " items but the work list has " + std::to_string(work.size()));
  }
  std::vector<WorkItem> subset;
  subset.reserve(plan.indices.size());
  for (const std::size_t i : plan.indices) subset.push_back(work[i]);
  return subset;
}

std::vector<WorkItem> without_items(const std::vector<WorkItem>& work,
                                    const std::vector<std::size_t>& dropped) {
  std::vector<WorkItem> kept;
  kept.reserve(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (!std::binary_search(dropped.begin(), dropped.end(), i)) {
      kept.push_back(work[i]);
    }
  }
  return kept;
}

ResultSet run_shard(const std::vector<WorkItem>& work, const ShardPlan& plan,
                    RunnerOptions options) {
  // Chaos site: lets the supervisor tests kill/delay a specific shard
  // after planning but before any scenario executes.
  RV_FAILPOINT_AT("shard.worker.mid_run", plan.shard);
  return run_scenarios(shard_work(work, plan), options);
}

std::string shard_file_name(const std::string& set_name, std::size_t shard,
                            std::size_t num_shards) {
  return (set_name.empty() ? std::string("<set>") : set_name) + "-shard-" +
         std::to_string(shard) + "-of-" + std::to_string(num_shards) +
         kCacheFileExtension;
}

std::size_t save_owned_outcomes(const std::filesystem::path& path,
                                const std::vector<WorkItem>& work,
                                const ShardPlan& plan,
                                const ScenarioCache& cache) {
  ScenarioCache own;
  (void)load_cache_file(path, &own);  // absent or unreadable: start empty
  ScenarioCache::Entry entry;
  for (const std::size_t i : plan.indices) {
    const std::optional<std::string> key = cache_key(work[i]);
    if (key && cache.lookup(*key, &entry)) own.store(*key, std::move(entry));
  }
  save_cache_file(path, own);
  return own.size();
}

SupervisorReport run_forked_shards(const std::vector<WorkItem>& work,
                                   ScenarioCache* cache,
                                   const ForkedShards& options) {
  const auto child_main = [&](std::size_t p) -> int {
    // Chaos site: crash/delay/error a worker at its very first
    // instruction — the supervisor must detect and retry it.
    RV_FAILPOINT_AT(options.child_site, p);
    const ShardPlan plan = shard_plan(work.size(), p, options.procs);
    RunnerOptions run_options;
    run_options.threads = options.threads;
    run_options.cache = cache;
    const ResultSet results = run_shard(work, plan, run_options);
    const std::filesystem::path file =
        options.cache_dir /
        shard_file_name(options.set_name, p, options.procs);
    // A pure replay whose file exists would rewrite the same entries.
    if (results.cache_stats().misses > 0 || !std::filesystem::exists(file)) {
      (void)save_owned_outcomes(file, work, plan, *cache);
    }
    return 0;
  };
  return supervise_shards(options.procs, child_main, options.supervisor);
}

ResultSet merge_shards(const std::vector<ShardResult>& shards,
                       const std::string& set_name) {
  if (shards.empty()) return ResultSet{};
  const std::size_t total = shards[0].plan.total;
  const std::size_t num_shards = shards[0].plan.num_shards;
  std::vector<RunRecord> records(total);
  std::vector<bool> placed(total, false);
  CacheStats stats;
  for (const ShardResult& shard : shards) {
    if (shard.plan.total != total || shard.plan.num_shards != num_shards) {
      throw std::invalid_argument(
          "merge_shards: shard plans disagree on the partition "
          "(total/num_shards)");
    }
    if (shard.results.size() != shard.plan.indices.size()) {
      throw std::invalid_argument(
          "merge_shards: shard " + std::to_string(shard.plan.shard) +
          " has " + std::to_string(shard.results.size()) + " records for " +
          std::to_string(shard.plan.indices.size()) + " planned items");
    }
    for (std::size_t k = 0; k < shard.plan.indices.size(); ++k) {
      const std::size_t i = shard.plan.indices[k];
      if (i >= total) {
        throw std::invalid_argument(
            "merge_shards: shard " + std::to_string(shard.plan.shard) +
            " claims global item index " + std::to_string(i) +
            " but the set has only " + std::to_string(total) + " items");
      }
      if (placed[i]) {
        throw std::invalid_argument(
            "merge_shards: global item index " + std::to_string(i) +
            " covered twice — shard " + std::to_string(i % num_shards) +
            " (" + shard_file_name(set_name, i % num_shards, num_shards) +
            ") appears more than once in the merge input");
      }
      records[i] = shard.results[k];
      placed[i] = true;
    }
    stats.hits += shard.results.cache_stats().hits;
    stats.misses += shard.results.cache_stats().misses;
    stats.uncacheable += shard.results.cache_stats().uncacheable;
  }
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < total; ++i) {
    if (!placed[i]) missing.push_back(i);
  }
  if (!missing.empty()) {
    // Name the shards that own the holes and the cache files an
    // operator must re-drive; the strided rule makes ownership a pure
    // function of the index.
    std::set<std::size_t> missing_shards;
    for (const std::size_t i : missing) missing_shards.insert(i % num_shards);
    std::string files;
    for (const std::size_t s : missing_shards) {
      if (!files.empty()) files += ", ";
      files += shard_file_name(set_name, s, num_shards);
    }
    throw std::invalid_argument(
        "merge_shards: incomplete merge — global item indices {" +
        join_indices(missing, 16) +
        "} covered by no shard; re-drive shard file" +
        (missing_shards.size() == 1 ? "" : "s") + " " + files);
  }
  ResultSet merged(std::move(records));
  merged.set_cache_stats(stats);
  return merged;
}

ResultSet run_sharded(const ScenarioSet& set, std::size_t num_shards,
                      RunnerOptions options) {
  if (num_shards == 0) {
    // Without this, zero shards would "merge" into an empty ResultSet
    // that masquerades as an empty set; fail like shard_plan does.
    throw std::invalid_argument("run_sharded: num_shards must be >= 1");
  }
  const std::vector<WorkItem> work = set.materialize_work();
  std::vector<ShardResult> shards;
  shards.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    ShardPlan plan = shard_plan(work.size(), s, num_shards);
    ResultSet results = run_shard(work, plan, options);
    shards.push_back({std::move(plan), std::move(results)});
  }
  return merge_shards(shards);
}

}  // namespace rv::engine
