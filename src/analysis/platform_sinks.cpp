#include "analysis/platform_sinks.h"

#include <algorithm>
#include <vector>

#include "bgp/route_cache.h"
#include "util/thread_pool.h"

namespace ct::analysis {

std::unique_ptr<PlatformSinks> run_platform(Scenario& scenario, unsigned num_shards) {
  return run_platform(scenario, num_shards, 0, scenario.platform().config().num_days);
}

std::unique_ptr<PlatformSinks> run_platform(Scenario& scenario, unsigned num_shards,
                                            util::Day day_begin, util::Day day_end) {
  const iclab::Platform& platform = scenario.platform();
  const auto num_vantages = static_cast<std::int32_t>(platform.vantages().size());
  const unsigned shards =
      num_shards == 0 ? util::ThreadPool::hardware_threads() : num_shards;
  if (shards <= 1) {
    auto sinks = std::make_unique<PlatformSinks>(scenario);
    iclab::ShardRange range;
    range.day_begin = day_begin;
    range.day_end = day_end;
    range.vantage_begin = 0;
    range.vantage_end = num_vantages;
    platform.run_shard(sinks->fanout, range);
    return sinks;
  }

  // Plan the rectangle as if it started at day 0, then shift the day
  // ranges to its offset.  The route cache shares each epoch's tables
  // across vantage-split shards and the boundary-priming views across
  // day-split ones.
  std::vector<iclab::ShardRange> ranges = iclab::plan_shards(
      day_end - day_begin, num_vantages, static_cast<std::int32_t>(shards));
  for (iclab::ShardRange& range : ranges) {
    range.day_begin += day_begin;
    range.day_end += day_begin;
  }
  bgp::EpochRouteCache route_cache;
  iclab::expect_shard_epochs(route_cache, ranges, platform.config().epochs_per_day);
  std::vector<std::unique_ptr<PlatformSinks>> sinks;
  std::vector<iclab::MeasurementSink*> targets;
  sinks.reserve(ranges.size());
  targets.reserve(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    sinks.push_back(std::make_unique<PlatformSinks>(scenario));
    targets.push_back(&sinks.back()->fanout);
  }
  platform.run_shards(ranges, targets, std::min(shards, util::ThreadPool::hardware_threads()),
                      &route_cache);

  // Fold shards in plan order, then restore canonical clause order —
  // after this the contents are indistinguishable from a serial run's.
  for (std::size_t i = 1; i < sinks.size(); ++i) {
    sinks[0]->merge(std::move(*sinks[i]));
    sinks[i].reset();  // cap peak memory at ~2x the serial run
  }
  sinks[0]->clause_builder.canonicalize();
  return std::move(sinks[0]);
}

}  // namespace ct::analysis
