// Batch-vs-streaming equivalence suite (README "Streaming ingest").
//
// run_experiment with ExperimentOptions::streaming runs on the resident
// monitor: segment-by-segment ingest, windows analyzed the day they
// close, memory bounded by one segment.  The contract is that the
// streaming report is *byte-identical* to the batch one
// (serialize_report is the oracle) and that its engine_stats count the
// main SAT pass alone, exactly as the batch path does.  These tests
// hold it across three scenario seeds, serial and sharded ingest,
// vantage-split shards, and every Figure-1 granularity on its own.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "analysis/checkpoint.h"
#include "analysis/experiment.h"
#include "analysis/scenario.h"
#include "shard_env.h"
#include "tomo/engine.h"

namespace ct::analysis {
namespace {

using test::shard_scenario;

ExperimentResult run(const ScenarioConfig& config, ExperimentOptions options, bool streaming,
                     unsigned shards) {
  options.streaming = streaming;
  options.num_platform_shards = shards;
  options.num_threads = 2;
  Scenario scenario(config);
  return run_experiment(scenario, options);
}

/// Clause volume the solver saw (fresh + reused + added), which is
/// conserved across every mix of fresh and delta loads.
std::uint64_t clauses_accounted(const tomo::EngineStats& stats) {
  return stats.fresh_clauses + stats.clauses_reused + stats.clauses_added;
}

TEST(StreamingEquivalence, RunExperimentStreamingBitIdentical) {
  // Streaming retains no clause, CNF or verdict stream: every product
  // comes from the incremental folds and the day-by-day Figure-4
  // ablation, so byte-identity here covers the whole memory-bounded
  // configuration.
  for (const std::uint64_t seed : {20170623ULL, 20170624ULL, 20170625ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ScenarioConfig config = shard_scenario(seed);
    const std::string batch = serialize_report(run(config, {}, false, 1));
    for (const unsigned shards : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      EXPECT_EQ(serialize_report(run(config, {}, true, shards)), batch);
    }
  }
}

TEST(StreamingEquivalence, PipelineMatchesBatchAcrossSeedsAndShardCounts) {
  // engine_stats covers the main pass only in both modes: one load per
  // main-pass CNF (fresh or delta), and the same conserved clause
  // volume, whatever the shard count.
  for (const std::uint64_t seed : {20170623ULL, 20170624ULL, 20170625ULL}) {
    const ScenarioConfig config = shard_scenario(seed);
    const ExperimentResult batch = run(config, {}, false, 1);
    const std::uint64_t batch_loads =
        batch.engine_stats.cnf_loads + batch.engine_stats.delta_loads;
    ASSERT_EQ(batch_loads, static_cast<std::uint64_t>(batch.total_cnfs));

    for (const unsigned shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " shards=" + std::to_string(shards));
      const ExperimentResult streamed = run(config, {}, true, shards);
      EXPECT_EQ(streamed.total_cnfs, batch.total_cnfs);
      EXPECT_EQ(streamed.engine_stats.cnf_loads + streamed.engine_stats.delta_loads,
                batch_loads);
      EXPECT_EQ(clauses_accounted(streamed.engine_stats),
                clauses_accounted(batch.engine_stats));
      EXPECT_EQ(streamed.engine_stats.snapshots_published, 0u);
    }
  }
}

TEST(StreamingEquivalence, EveryGranularitySubsetMatches) {
  // Single-granularity Figure-1/4 configurations exercise the ablation
  // grouper's window closure at each cadence in isolation (year
  // windows only close at the end-of-run flush).
  const ScenarioConfig config = shard_scenario(20170623);
  for (const util::Granularity g : util::kAllGranularities) {
    SCOPED_TRACE(std::string("granularity=") + std::string(util::to_string(g)));
    ExperimentOptions options;
    options.fig1_granularities = {g};
    EXPECT_EQ(serialize_report(run(config, options, true, 2)),
              serialize_report(run(config, options, false, 1)));
  }
}

TEST(StreamingEquivalence, VantageSplitShardsShareDays) {
  // shards > segment days forces plan_shards to split the vantage
  // dimension, so several shards cover the *same* days and the segment
  // merge must interleave their clauses back into the serial order
  // before the day-by-day drain.
  ScenarioConfig config = small_scenario();
  config.platform.num_days = 3;
  config.seed = 20170623;
  EXPECT_EQ(serialize_report(run(config, {}, true, 5)),
            serialize_report(run(config, {}, false, 1)));
}

}  // namespace
}  // namespace ct::analysis
