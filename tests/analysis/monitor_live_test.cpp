// Streaming mode on the resident monitor (README "Any-time results &
// memory model").
//
// A day-stepped MonitorEngine publishes a LiveReport at every watermark,
// and every one must be *valid at its watermark*: the verdict counts
// cover exactly the CNFs of windows sealed by the watermark and the
// churn stats cover exactly the ingested measurement days, i.e. every
// snapshot equals the batch computation over its sealed prefix, for
// serial and sharded ingest alike.  The memory test holds the streaming
// memory bound: the retained-clause peak is one ingest segment, so
// tripling the run does not raise it.
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/churn_stats.h"
#include "analysis/experiment.h"
#include "analysis/live_report.h"
#include "analysis/monitor.h"
#include "analysis/platform_sinks.h"
#include "analysis/scenario.h"
#include "expect_churn.h"
#include "shard_env.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"

namespace ct::analysis {
namespace {

using test::expect_churn_equal;
using test::shard_scenario;

util::Day window_end(const tomo::CnfKey& key) {
  return util::window_start(key.window, key.granularity) + util::window_length(key.granularity);
}

/// Records every on_path observation as (day, pair, signature) so churn
/// prefixes can be replayed through a fresh ChurnFold.
class PathRecorder : public iclab::MeasurementSink {
 public:
  struct Obs {
    util::Day day;
    std::size_t pair;
    std::uint64_t sig;
  };

  explicit PathRecorder(const iclab::Platform& platform) {
    const auto& vantages = platform.vantages();
    const auto& dests = platform.dest_ases();
    for (std::size_t i = 0; i < vantages.size(); ++i) vantage_index_[vantages[i]] = i;
    for (std::size_t i = 0; i < dests.size(); ++i) dest_index_[dests[i]] = i;
    num_dests_ = dests.size();
  }

  void on_measurement(const iclab::Measurement&) override {}
  void on_path(util::Day day, std::int32_t /*epoch*/, topo::AsId vantage, topo::AsId dest,
               const std::vector<topo::AsId>& path) override {
    const auto vi = vantage_index_.find(vantage);
    const auto di = dest_index_.find(dest);
    if (vi == vantage_index_.end() || di == dest_index_.end()) return;
    const std::uint64_t sig = path_signature(path);
    if (sig == 0) return;
    observations_.push_back(Obs{day, vi->second * num_dests_ + di->second, sig});
  }

  /// Unsealed batch fold of every observation with day < `before`.
  ChurnStats prefix_churn(Scenario& scenario, util::Day before) const {
    const auto& platform = scenario.platform();
    ChurnFold fold(scenario.graph(), platform.vantages(), platform.dest_ases(),
                   platform.config().num_days, platform.config().epochs_per_day);
    for (const Obs& obs : observations_) {
      if (obs.day < before) fold.observe(obs.pair, obs.day, obs.sig);
    }
    return fold.snapshot();
  }

 private:
  std::map<topo::AsId, std::size_t> vantage_index_;
  std::map<topo::AsId, std::size_t> dest_index_;
  std::size_t num_dests_ = 0;
  std::vector<Obs> observations_;
};

/// Batch verdict counts over the CNFs whose windows end at or before
/// `watermark` — the reference a LiveReport must equal.
LiveReport prefix_counts(const std::vector<tomo::TomoCnf>& cnfs,
                         const std::vector<tomo::CnfVerdict>& verdicts,
                         util::Day watermark) {
  LiveReport expected;
  expected.watermark = watermark;
  for (std::size_t i = 0; i < cnfs.size(); ++i) {
    if (window_end(cnfs[i].key) > watermark) continue;
    const tomo::CnfVerdict& v = verdicts[i];
    ++expected.cnfs_analyzed;
    const auto cls = static_cast<std::size_t>(v.solution_class);
    ++expected.overall.count[cls];
    ++expected.by_url[v.key.url_id].count[cls];
    if (v.solution_class == 1) {
      for (const topo::AsId as : v.censors) ++expected.exact_censor_cnfs[as];
    } else if (v.solution_class == 2) {
      for (const topo::AsId as : v.potential_censors) ++expected.potential_censor_cnfs[as];
    }
  }
  return expected;
}

void expect_counts_equal(const LiveReport& actual, const LiveReport& expected) {
  EXPECT_EQ(actual.cnfs_analyzed, expected.cnfs_analyzed);
  EXPECT_EQ(actual.overall, expected.overall);
  EXPECT_EQ(actual.by_url, expected.by_url);
  EXPECT_EQ(actual.exact_censor_cnfs, expected.exact_censor_cnfs);
  EXPECT_EQ(actual.potential_censor_cnfs, expected.potential_censor_cnfs);
}

struct BatchReference {
  std::unique_ptr<PlatformSinks> sinks;
  std::vector<tomo::TomoCnf> cnfs;
  std::vector<tomo::CnfVerdict> verdicts;
};

BatchReference batch_reference(Scenario& scenario) {
  tomo::AnalysisOptions analysis;
  analysis.resolve_counts = false;
  BatchReference ref;
  ref.sinks = run_platform(scenario, 1);
  ref.cnfs = tomo::build_cnfs(ref.sinks->clause_builder.pool(),
                              ref.sinks->clause_builder.clauses());
  ref.verdicts = tomo::analyze_cnfs(ref.cnfs, analysis);
  return ref;
}

TEST(StreamingLive, EveryReportEqualsBatchOfSealedPrefix) {
  const std::uint64_t seed = 20170623;
  Scenario ref_scenario(shard_scenario(seed));
  const BatchReference ref = batch_reference(ref_scenario);

  // Churn reference: the same platform stream, recorded day by day.
  Scenario record_scenario(shard_scenario(seed));
  PathRecorder recorder(record_scenario.platform());
  record_scenario.platform().run(recorder);

  for (const unsigned shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Scenario scenario(shard_scenario(seed));
    MonitorOptions options;
    options.experiment.num_platform_shards = shards;
    options.experiment.num_threads = 2;
    MonitorEngine monitor(scenario, options);

    // One day per step: each step ingests a one-day segment, so the
    // churn fold holds exactly the days below the watermark.
    const util::Day num_days = monitor.num_days();
    for (util::Day day = 1; day <= num_days; ++day) {
      SCOPED_TRACE("watermark " + std::to_string(day));
      monitor.run_until(day);
      const std::shared_ptr<const LiveReport> report = monitor.reports().snapshot();
      ASSERT_NE(report, nullptr);
      EXPECT_EQ(report->watermark, day);
      expect_counts_equal(*report, prefix_counts(ref.cnfs, ref.verdicts, day));
      expect_churn_equal(report->churn, recorder.prefix_churn(record_scenario, day));
    }
    EXPECT_EQ(monitor.reports().published(), static_cast<std::uint64_t>(num_days));

    // The final report is the whole run: full verdict counts, including
    // the windows still open at the horizon, and the batch Figure-3
    // stats.
    monitor.finalize();
    const std::shared_ptr<const LiveReport> final_report = monitor.reports().snapshot();
    EXPECT_EQ(final_report->watermark, num_days);
    expect_counts_equal(*final_report,
                        prefix_counts(ref.cnfs, ref.verdicts, num_days + util::kDaysPerYear));
    expect_churn_equal(final_report->churn, ref.sinks->churn_tracker.compute());
  }
}

struct MemoryRun {
  std::int64_t peak_retained_clauses = 0;
  std::int64_t total_clauses = 0;
};

MemoryRun run_with_days(util::Day num_days, unsigned shards) {
  ScenarioConfig cfg = shard_scenario(20170623);
  cfg.platform.num_days = num_days;
  Scenario scenario(cfg);
  MonitorOptions options;
  options.experiment.num_platform_shards = shards;
  options.experiment.num_threads = 2;
  options.segment_days = util::kDaysPerWeek;
  MonitorEngine monitor(scenario, options);
  const ExperimentResult result = monitor.finalize();
  const MonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.retained_clauses_now, 0);
  EXPECT_EQ(stats.gauge_underflows, 0);
  return MemoryRun{stats.retained_clauses_peak, result.table1.clause_stats.clauses};
}

TEST(MonitorMemory, PeakIsBoundedBySegmentNotRunLength) {
  for (const unsigned shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const MemoryRun short_run = run_with_days(2 * util::kDaysPerWeek, shards);
    const MemoryRun long_run = run_with_days(6 * util::kDaysPerWeek, shards);

    // The run tripled; the clause stream tracks it...
    ASSERT_GT(short_run.total_clauses, 0);
    EXPECT_GE(long_run.total_clauses, 2 * short_run.total_clauses);
    // ... but the retained peak is one week-long segment's clauses, so
    // it stays flat, far below the stream itself.
    EXPECT_LE(long_run.peak_retained_clauses, 2 * short_run.peak_retained_clauses);
    EXPECT_LT(long_run.peak_retained_clauses, long_run.total_clauses / 4);
  }
}

}  // namespace
}  // namespace ct::analysis
