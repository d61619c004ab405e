// Any-time results property suite (README "Any-time results & memory
// model").
//
// The streaming pipeline promises that every LiveReport is *valid at
// its watermark*: the verdict counts cover exactly the CNFs of windows
// sealed by the watermark and the churn stats cover exactly the sealed
// measurement days — i.e. every snapshot equals the batch computation
// over its sealed prefix, for serial and min-merged sharded ingest
// alike.  The ChurnFold fuzz drives the same prefix-snapshot property
// through random observation streams and random retire/watermark
// interleavings (failing seeds print a CT_FUZZ_SEED replay line).  The
// drop-mode equivalence tests hold the O(open windows) configuration
// (retain_clauses = retain_results = false) to the byte-identical
// contract via the on_verdict stream.
#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../support/fuzz_seed.h"
#include "analysis/churn_stats.h"
#include "analysis/experiment.h"
#include "analysis/live_report.h"
#include "analysis/platform_sinks.h"
#include "analysis/scenario.h"
#include "analysis/streaming_pipeline.h"
#include "expect_churn.h"
#include "sat/dimacs.h"
#include "shard_env.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"
#include "topo/generator.h"
#include "util/rng.h"
#include "util/serde.h"

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
    StreamingOptions options;
    options.num_platform_shards = shards;
    options.analysis.resolve_counts = false;
    options.analysis.num_threads = 2;
    options.retain_clauses = false;
    options.retain_results = false;
    std::vector<LiveReport> reports;
    options.on_report = [&reports](const LiveReport& r) { reports.push_back(r); };
    const StreamingResult streamed = run_streaming_pipeline(scenario, options);

    ASSERT_FALSE(reports.empty());
    util::Day last_watermark = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      SCOPED_TRACE("report " + std::to_string(i) + " watermark " +
                   std::to_string(reports[i].watermark));
      EXPECT_GT(reports[i].watermark, last_watermark);  // strictly advancing
      last_watermark = reports[i].watermark;
      expect_counts_equal(reports[i],
                          prefix_counts(ref.cnfs, ref.verdicts, reports[i].watermark));
      expect_churn_equal(reports[i].churn,
                         recorder.prefix_churn(record_scenario, reports[i].watermark));
    }
    // A serial run advances the watermark once per completed day.
    if (shards == 1) {
      EXPECT_EQ(reports.size(),
                static_cast<std::size_t>(scenario.platform().config().num_days));
    }

    // The final report is the whole run: full verdict counts and the
    // batch Figure-3 stats.
    const util::Day num_days = scenario.platform().config().num_days;
    EXPECT_EQ(streamed.final_report.watermark, num_days);
    expect_counts_equal(streamed.final_report,
                        prefix_counts(ref.cnfs, ref.verdicts, num_days + util::kDaysPerYear));
    expect_churn_equal(streamed.final_report.churn, ref.sinks->churn_tracker.compute());
  }
}

TEST(StreamingLive, DropModeVerdictStreamIsByteIdenticalToBatch) {
  // O(open windows) configuration: nothing retained, every product
  // flows through the on_verdict stream — and still matches the batch
  // bytes, for serial and sharded ingest.
  const std::uint64_t seed = 20170624;
  Scenario ref_scenario(shard_scenario(seed));
  const BatchReference ref = batch_reference(ref_scenario);

  for (const unsigned shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Scenario scenario(shard_scenario(seed));
    StreamingOptions options;
    options.num_platform_shards = shards;
    options.analysis.resolve_counts = false;
    options.analysis.num_threads = 2;
    options.queue_capacity = 8;  // exercise back-pressure
    options.retain_clauses = false;
    options.retain_results = false;
    const util::Day num_days = shard_scenario(seed).platform.num_days;
    std::vector<std::pair<tomo::TomoCnf, tomo::CnfVerdict>> streamed_pairs;
    util::Day last_end = 0;
    bool flush_seen = false;
    options.on_verdict = [&, shards](const tomo::TomoCnf& cnf, const tomo::CnfVerdict& v) {
      // Emission order: watermark-closed windows (end <= num_days) come
      // out in non-decreasing end order on a serial run (each day batch
      // ends exactly at its watermark; a sharded watermark can jump
      // several days, interleaving one key-sorted batch), and the final
      // flush — every window still open at end of run, i.e. ending
      // beyond the run — strictly follows all of them.
      if (window_end(cnf.key) > num_days) {
        flush_seen = true;
      } else {
        EXPECT_FALSE(flush_seen);
        if (shards == 1) {
          EXPECT_GE(window_end(cnf.key), last_end);
          last_end = window_end(cnf.key);
        }
      }
      streamed_pairs.emplace_back(cnf, v);
    };
    const StreamingResult streamed = run_streaming_pipeline(scenario, options);

    // Nothing retained...
    EXPECT_TRUE(streamed.cnfs.empty());
    EXPECT_TRUE(streamed.verdicts.empty());
    EXPECT_TRUE(streamed.sinks->clause_builder.clauses().empty());
    EXPECT_GT(streamed.sinks->clause_builder.retired_clauses(), 0u);
    // ... but the stats, engine accounting, and churn still match.
    EXPECT_EQ(streamed.sinks->clause_builder.stats(), ref.sinks->clause_builder.stats());
    EXPECT_EQ(streamed.engine_stats.cnf_loads + streamed.engine_stats.delta_loads,
              streamed_pairs.size());
    expect_churn_equal(streamed.sinks->churn_tracker.compute(),
                       ref.sinks->churn_tracker.compute());
    for (const auto vp : scenario.platform().vantages()) {
      for (const auto dest : scenario.platform().dest_ases()) {
        EXPECT_EQ(streamed.sinks->churn_tracker.distinct_paths_of_pair(vp, dest),
                  ref.sinks->churn_tracker.distinct_paths_of_pair(vp, dest));
      }
    }

    // The verdict stream, key-sorted, is the batch output to the byte.
    std::sort(streamed_pairs.begin(), streamed_pairs.end(),
              [](const auto& a, const auto& b) { return a.first.key < b.first.key; });
    ASSERT_EQ(streamed_pairs.size(), ref.cnfs.size());
    for (std::size_t i = 0; i < streamed_pairs.size(); ++i) {
      SCOPED_TRACE("cnf " + std::to_string(i));
      EXPECT_EQ(streamed_pairs[i].first.key, ref.cnfs[i].key);
      EXPECT_EQ(streamed_pairs[i].first.vars, ref.cnfs[i].vars);
      EXPECT_EQ(streamed_pairs[i].first.positive_paths, ref.cnfs[i].positive_paths);
      EXPECT_EQ(sat::to_dimacs_string(streamed_pairs[i].first.cnf),
                sat::to_dimacs_string(ref.cnfs[i].cnf));
      EXPECT_EQ(streamed_pairs[i].second, ref.verdicts[i]);
    }
  }
}

TEST(StreamingLive, StreamedAblationMatchesBatchFigure4Pass) {
  const std::uint64_t seed = 20170625;
  Scenario ref_scenario(shard_scenario(seed));
  const BatchReference ref = batch_reference(ref_scenario);

  // Batch Figure-4 pass, exactly as run_experiment's batch path.
  const std::vector<util::Granularity> grans{util::Granularity::kDay, util::Granularity::kWeek,
                                             util::Granularity::kMonth};
  const std::vector<tomo::PathClause> stripped = tomo::strip_path_churn(
      ref.sinks->clause_builder.pool(), ref.sinks->clause_builder.clauses());
  tomo::CnfBuildOptions ab_build;
  ab_build.granularities = grans;
  const std::vector<tomo::TomoCnf> ab_cnfs =
      tomo::build_cnfs(ref.sinks->clause_builder.pool(), stripped, ab_build);
  tomo::AnalysisOptions ab_analysis;
  ab_analysis.resolve_counts = true;
  const std::vector<tomo::CnfVerdict> ab_verdicts = tomo::analyze_cnfs(ab_cnfs, ab_analysis);

  for (const unsigned shards : {1u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Scenario scenario(shard_scenario(seed));
    StreamingOptions options;
    options.num_platform_shards = shards;
    options.analysis.resolve_counts = false;
    options.analysis.num_threads = 2;
    options.retain_clauses = false;
    options.retain_results = false;
    StreamingOptions::Ablation ablation;
    ablation.build = ab_build;
    ablation.analysis = ab_analysis;
    ablation.analysis.num_threads = 2;
    ablation.retain_results = true;
    options.ablation = std::move(ablation);
    const StreamingResult streamed = run_streaming_pipeline(scenario, options);

    ASSERT_EQ(streamed.ablation_cnfs.size(), ab_cnfs.size());
    for (std::size_t i = 0; i < ab_cnfs.size(); ++i) {
      SCOPED_TRACE("ablation cnf " + std::to_string(i));
      EXPECT_EQ(streamed.ablation_cnfs[i].key, ab_cnfs[i].key);
      EXPECT_EQ(sat::to_dimacs_string(streamed.ablation_cnfs[i].cnf),
                sat::to_dimacs_string(ab_cnfs[i].cnf));
      EXPECT_EQ(streamed.ablation_verdicts[i], ab_verdicts[i]);
    }
  }
}

// --- ChurnFold prefix-snapshot fuzz ---------------------------------------

topo::AsGraph tiny_graph() {
  topo::TopologyConfig cfg;
  cfg.num_ases = 30;
  cfg.num_tier1 = 2;
  cfg.num_transit = 6;
  cfg.num_countries = 4;
  return topo::generate_topology(cfg, 2);
}

TEST(ChurnFoldFuzz, SnapshotsMatchUnsealedFoldUnderRandomRetireInterleavings) {
  const std::uint64_t seed = ct::test::fuzz_seed(20260731);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  const topo::AsGraph graph = tiny_graph();
  const std::vector<topo::AsId> vantages{3, 10};
  const std::vector<topo::AsId> dests{20, 21, 25};
  constexpr util::Day kDays = 5 * util::kDaysPerWeek;

  for (int round = 0; round < 25; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    ChurnFold fold(graph, vantages, dests, kDays, 3);
    std::vector<std::tuple<std::size_t, util::Day, std::uint64_t>> observed;
    util::Day retired = 0;

    auto check_snapshot = [&] {
      ChurnFold reference(graph, vantages, dests, kDays, 3);
      for (const auto& [pair, day, sig] : observed) reference.observe(pair, day, sig);
      expect_churn_equal(fold.snapshot(), reference.snapshot());
      for (std::size_t p = 0; p < fold.num_pairs(); ++p) {
        EXPECT_EQ(fold.distinct_of_pair(p), reference.distinct_of_pair(p));
      }
    };

    // A day-ascending observation stream with random density, random
    // signature reuse, and random retire points — every snapshot along
    // the way must equal the unsealed batch fold of the same prefix.
    for (util::Day day = 0; day < kDays; ++day) {
      const std::int64_t obs_today = rng.uniform_int(0, 6);
      for (std::int64_t k = 0; k < obs_today; ++k) {
        const auto pair = static_cast<std::size_t>(
            rng.index(vantages.size() * dests.size()));
        // Small signature alphabet: windows frequently see repeats (the
        // distinct-set dedup path) and occasionally 5+ distinct values
        // (the histogram overflow bucket).
        const auto sig = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
        fold.observe(pair, day, sig);
        observed.emplace_back(pair, day, sig);
      }
      if (rng.bernoulli(0.4)) {
        // Any watermark at or below the current day is legal, including
        // replays of old ones (monotone no-op).
        const auto target = static_cast<util::Day>(rng.uniform_int(0, day));
        fold.retire_before(target);
        retired = std::max(retired, target);
        EXPECT_EQ(fold.retired_before(), retired);
      }
      if (rng.bernoulli(0.25)) check_snapshot();
    }
    fold.retire_before(kDays);
    check_snapshot();
    // Month/year windows extend past the run, so they are still open at
    // the end-of-run watermark; sealing past the year boundary drains
    // every unsealed window without changing the snapshot.
    EXPECT_GT(fold.open_window_entries(), 0u);
    fold.retire_before(util::kDaysPerYear);
    check_snapshot();
    EXPECT_EQ(fold.open_window_entries(), 0u);
  }
}

TEST(ChurnFoldFuzz, ShardedMergeMatchesSerialFoldOnRandomStreams) {
  const std::uint64_t seed = ct::test::fuzz_seed(20260732);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  const topo::AsGraph graph = tiny_graph();
  const std::vector<topo::AsId> vantages{3, 10};
  const std::vector<topo::AsId> dests{20, 25};
  constexpr util::Day kDays = 3 * util::kDaysPerWeek;

  for (int round = 0; round < 25; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    // A random day split: windows straddle the boundary, so the merge
    // must union partial windows, not just concatenate.
    const auto split = static_cast<util::Day>(rng.uniform_int(1, kDays - 1));
    ChurnFold serial(graph, vantages, dests, kDays, 3);
    ChurnFold left(graph, vantages, dests, kDays, 3);
    ChurnFold right(graph, vantages, dests, kDays, 3);
    for (util::Day day = 0; day < kDays; ++day) {
      const std::int64_t obs_today = rng.uniform_int(0, 4);
      for (std::int64_t k = 0; k < obs_today; ++k) {
        const auto pair =
            static_cast<std::size_t>(rng.index(vantages.size() * dests.size()));
        const auto sig = static_cast<std::uint64_t>(rng.uniform_int(1, 6));
        serial.observe(pair, day, sig);
        (day < split ? left : right).observe(pair, day, sig);
      }
    }
    ChurnFold merged(left);
    merged.merge(std::move(right));
    expect_churn_equal(merged.snapshot(), serial.snapshot());

    // Sealed folds refuse to merge: the same window may be open on the
    // other side.
    left.retire_before(split);
    ChurnFold other(graph, vantages, dests, kDays, 3);
    EXPECT_THROW(left.merge(std::move(other)), std::logic_error);
  }
}

/// The node-based fold ChurnFold's flat layout replaced, kept as the
/// oracle: one std::map<(window, pair), std::set<signature>> per
/// granularity, std::set per-pair run sets, the same sealed
/// accumulators, and the util::save_map/save_set checkpoint encoding.
class ReferenceChurnFold {
 public:
  ReferenceChurnFold(const topo::AsGraph& graph, std::vector<topo::AsId> vantages,
                     std::vector<topo::AsId> dests, util::Day num_days,
                     std::int32_t epochs_per_day)
      : graph_(graph),
        vantages_(std::move(vantages)),
        dests_(std::move(dests)),
        num_days_(num_days),
        epochs_per_day_(epochs_per_day),
        run_distinct_(vantages_.size() * dests_.size()) {}

  void observe(std::size_t pair, util::Day day, std::uint64_t sig) {
    ASSERT_GE(day, retired_before_);
    for (std::size_t gi = 0; gi < util::kAllGranularities.size(); ++gi) {
      const std::int32_t window = util::window_of(day, util::kAllGranularities[gi]);
      grans_[gi].open[{window, static_cast<std::uint32_t>(pair)}].insert(sig);
    }
    run_distinct_[pair].insert(sig);
  }

  void retire_before(util::Day complete_before) {
    if (complete_before <= retired_before_) return;
    retired_before_ = complete_before;
    for (std::size_t gi = 0; gi < util::kAllGranularities.size(); ++gi) {
      const util::Granularity g = util::kAllGranularities[gi];
      Gran& gran = grans_[gi];
      auto it = gran.open.begin();
      while (it != gran.open.end() &&
             util::window_start(it->first.first, g) + util::window_length(g) <= complete_before) {
        const auto distinct = static_cast<std::int64_t>(it->second.size());
        gran.counts.add(distinct);
        ++gran.samples;
        gran.changed += distinct >= 2 ? 1 : 0;
        it = gran.open.erase(it);
      }
    }
  }

  /// merge() and absorb_unsealed() both reduce to set unions once their
  /// preconditions hold.
  void union_with(const ReferenceChurnFold& other) {
    for (std::size_t gi = 0; gi < grans_.size(); ++gi) {
      for (const auto& [key, sigs] : other.grans_[gi].open) {
        grans_[gi].open[key].insert(sigs.begin(), sigs.end());
      }
    }
    for (std::size_t p = 0; p < run_distinct_.size(); ++p) {
      run_distinct_[p].insert(other.run_distinct_[p].begin(), other.run_distinct_[p].end());
    }
  }

  ChurnStats snapshot() const {
    ChurnStats stats;
    for (std::size_t gi = 0; gi < grans_.size(); ++gi) {
      const util::Granularity g = util::kAllGranularities[gi];
      util::BucketedCounts counts = grans_[gi].counts;
      std::int64_t samples = grans_[gi].samples;
      std::int64_t changed = grans_[gi].changed;
      for (const auto& [key, sigs] : grans_[gi].open) {
        const auto distinct = static_cast<std::int64_t>(sigs.size());
        counts.add(distinct);
        ++samples;
        changed += distinct >= 2 ? 1 : 0;
      }
      stats.changed_fraction[g] =
          samples == 0 ? 0.0 : static_cast<double>(changed) / static_cast<double>(samples);
      stats.distinct_paths.emplace(g, std::move(counts));
    }
    std::map<topo::AsClass, std::pair<std::int64_t, std::int64_t>> by_class;
    for (std::size_t vi = 0; vi < vantages_.size(); ++vi) {
      for (std::size_t di = 0; di < dests_.size(); ++di) {
        const auto& distinct = run_distinct_[vi * dests_.size() + di];
        if (distinct.empty()) continue;
        auto& [chg, tot] = by_class[graph_.as_info(dests_[di]).cls];
        ++tot;
        chg += distinct.size() >= 2 ? 1 : 0;
      }
    }
    for (const auto& [cls, counts] : by_class) {
      stats.changed_by_dest_class[cls] =
          static_cast<double>(counts.first) / static_cast<double>(counts.second);
    }
    return stats;
  }

  std::int64_t distinct_of_pair(std::size_t pair) const {
    return static_cast<std::int64_t>(run_distinct_[pair].size());
  }

  std::size_t open_window_entries() const {
    std::size_t n = 0;
    for (const Gran& gran : grans_) n += gran.open.size();
    return n;
  }

  /// The checkpoint bytes the node-based fold wrote.
  std::string save_bytes() const {
    util::ByteWriter w;
    const auto save_as = [](util::ByteWriter& w, topo::AsId as) { w.i32(as); };
    const auto save_sigs = [](util::ByteWriter& w, const std::set<std::uint64_t>& sigs) {
      util::save_set(w, sigs, [](util::ByteWriter& w, std::uint64_t s) { w.u64(s); });
    };
    util::save_vec(w, vantages_, save_as);
    util::save_vec(w, dests_, save_as);
    w.i32(num_days_);
    w.i32(epochs_per_day_);
    for (const Gran& gran : grans_) {
      gran.counts.save(w);
      w.i64(gran.samples);
      w.i64(gran.changed);
      util::save_map(
          w, gran.open,
          [](util::ByteWriter& w, const std::pair<std::int32_t, std::uint32_t>& key) {
            w.i32(key.first);
            w.u32(key.second);
          },
          save_sigs);
    }
    util::save_vec(w, run_distinct_, save_sigs);
    w.i32(retired_before_);
    return w.take();
  }

 private:
  struct Gran {
    util::BucketedCounts counts{4};
    std::int64_t samples = 0;
    std::int64_t changed = 0;
    std::map<std::pair<std::int32_t, std::uint32_t>, std::set<std::uint64_t>> open;
  };

  const topo::AsGraph& graph_;
  std::vector<topo::AsId> vantages_;
  std::vector<topo::AsId> dests_;
  util::Day num_days_;
  std::int32_t epochs_per_day_;
  std::array<Gran, util::kAllGranularities.size()> grans_;
  std::vector<std::set<std::uint64_t>> run_distinct_;
  util::Day retired_before_ = 0;
};

std::string fold_bytes(const ChurnFold& fold) {
  util::ByteWriter w;
  fold.save(w);
  return w.take();
}

TEST(ChurnFoldFuzz, FlatFoldMatchesSetReference) {
  const std::uint64_t seed = ct::test::fuzz_seed(20261019);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  const topo::AsGraph graph = tiny_graph();
  const std::vector<topo::AsId> vantages{3, 10, 12};
  const std::vector<topo::AsId> dests{20, 21, 25, 28};
  constexpr std::size_t kPairs = 12;
  constexpr std::int32_t kEpochs = 3;

  for (int round = 0; round < 30; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const auto days = static_cast<util::Day>(rng.uniform_int(1, 2 * util::kDaysPerYear));
    ChurnFold fold(graph, vantages, dests, days, kEpochs);
    ReferenceChurnFold reference(graph, vantages, dests, days, kEpochs);
    util::Day retired = 0;

    // A signature alphabet small enough for repeats and 5+ buckets, with
    // the odd full-width value.
    const auto random_sig = [&] {
      return rng.bernoulli(0.05) ? rng() | 1 : static_cast<std::uint64_t>(rng.uniform_int(1, 7));
    };
    // Observations on days >= `from`, jittered so windows open out of
    // order.
    const auto fill = [&](ChurnFold& f, ReferenceChurnFold& ref, util::Day from, int n) {
      for (int k = 0; k < n; ++k) {
        const std::size_t pair = rng.index(kPairs);
        const util::Day day = from + static_cast<util::Day>(rng.uniform_int(0, 40));
        const std::uint64_t sig = random_sig();
        f.observe(pair, day, sig);
        ref.observe(pair, day, sig);
      }
    };
    const auto check = [&] {
      ASSERT_EQ(fold_bytes(fold), reference.save_bytes());
      expect_churn_equal(fold.snapshot(), reference.snapshot());
      EXPECT_EQ(fold.open_window_entries(), reference.open_window_entries());
      for (std::size_t p = 0; p < kPairs; ++p) {
        EXPECT_EQ(fold.distinct_of_pair(p), reference.distinct_of_pair(p));
      }
    };

    for (int step = 0; step < 120; ++step) {
      const double op = rng.uniform();
      if (op < 0.55) {
        fill(fold, reference, retired, 1);
      } else if (op < 0.7) {
        const util::Day target = retired + static_cast<util::Day>(rng.uniform_int(-2, 30));
        fold.retire_before(target);
        reference.retire_before(target);
        retired = std::max(retired, target);
      } else if (op < 0.8) {
        // Resident-monitor segment absorption: an unsealed fold of days
        // at or after the seal point.
        ChurnFold segment(graph, vantages, dests, days, kEpochs);
        ReferenceChurnFold segment_ref(graph, vantages, dests, days, kEpochs);
        fill(segment, segment_ref, retired, static_cast<int>(rng.uniform_int(0, 20)));
        fold.absorb_unsealed(std::move(segment));
        reference.union_with(segment_ref);
      } else if (op < 0.87) {
        // Shard merge: only unsealed folds merge.
        ChurnFold shard(graph, vantages, dests, days, kEpochs);
        ReferenceChurnFold shard_ref(graph, vantages, dests, days, kEpochs);
        fill(shard, shard_ref, 0, static_cast<int>(rng.uniform_int(0, 20)));
        if (retired == 0) {
          fold.merge(std::move(shard));
          reference.union_with(shard_ref);
        } else {
          EXPECT_THROW(fold.merge(std::move(shard)), std::logic_error);
        }
      } else if (op < 0.9 && retired > 0) {
        // A segment reaching into a sealed window is refused, and the
        // refusal leaves the fold untouched.
        ChurnFold late(graph, vantages, dests, days, kEpochs);
        late.observe(rng.index(kPairs), retired + 1, random_sig());
        late.observe(rng.index(kPairs), retired - 1, random_sig());
        const std::string before = fold_bytes(fold);
        EXPECT_THROW(fold.absorb_unsealed(std::move(late)), std::logic_error);
        EXPECT_EQ(fold_bytes(fold), before);
      } else if (op < 0.95) {
        // Checkpoint round trip, then carry on with the restored fold.
        const std::string bytes = fold_bytes(fold);
        ChurnFold restored(graph, vantages, dests, days, kEpochs);
        util::ByteReader r(bytes);
        restored.load(r);
        r.expect_end();
        fold = std::move(restored);
      } else {
        check();
      }
    }
    check();
    fold.retire_before(std::numeric_limits<util::Day>::max());
    reference.retire_before(std::numeric_limits<util::Day>::max());
    check();
    EXPECT_EQ(fold.open_window_entries(), 0u);
  }
}

TEST(ChurnFold, LateObservationAfterSealThrows) {
  const topo::AsGraph graph = tiny_graph();
  ChurnFold fold(graph, {3}, {20}, 14, 1);
  fold.observe(0, 3, 42);
  fold.retire_before(4);
  EXPECT_THROW(fold.observe(0, 3, 43), std::logic_error);
  fold.observe(0, 4, 43);  // at the watermark: still open
}

}  // namespace
}  // namespace ct::analysis
