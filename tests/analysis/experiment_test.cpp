// Integration tests: the full pipeline on a small scenario.  These are
// the repository's end-to-end checks — they assert structural invariants
// of every table/figure data product, and that the inference actually
// finds planted censors.
#include "analysis/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/report.h"
#include "shard_env.h"

namespace ct::analysis {
namespace {

/// One shared run (building it per-test would dominate test time).
/// Honors CT_PLATFORM_SHARDS and CT_STREAMING (batch or the resident
/// monitor): results are bit-identical in every mode
/// (experiment_shard_test.cpp and streaming_equivalence_test.cpp prove
/// it), so every assertion below holds in all CI configurations.
class ExperimentTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig config = small_scenario();
    scenario_ = new Scenario(config);
    ExperimentOptions options;
    test::apply_env(options);
    result_ = new ExperimentResult(run_experiment(*scenario_, options));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete scenario_;
    result_ = nullptr;
    scenario_ = nullptr;
  }

  static Scenario* scenario_;
  static ExperimentResult* result_;
};

Scenario* ExperimentTest::scenario_ = nullptr;
ExperimentResult* ExperimentTest::result_ = nullptr;

TEST_F(ExperimentTest, Table1CountsConsistent) {
  const auto& t = result_->table1;
  EXPECT_GT(t.measurements, 0);
  EXPECT_LE(t.vantage_ases, 15);
  EXPECT_LE(t.unique_urls, 30);
  EXPECT_EQ(t.dest_ases, 15);
  EXPECT_GT(t.countries, 0);
  EXPECT_EQ(t.clause_stats.measurements, t.measurements);
  EXPECT_EQ(t.clause_stats.usable_measurements + t.clause_stats.dropped_total(),
            t.measurements);
  EXPECT_EQ(t.clause_stats.clauses,
            t.clause_stats.usable_measurements *
                static_cast<std::int64_t>(censor::kNumAnomalies));
  for (const auto count : t.anomaly_counts) {
    EXPECT_GE(count, 0);
    EXPECT_LT(count, t.measurements);
  }
}

TEST_F(ExperimentTest, Fig1FractionsSumToOne) {
  for (const auto& [g, split] : result_->fig1.by_granularity) {
    if (split.total() == 0) continue;
    EXPECT_NEAR(split.fraction(0) + split.fraction(1) + split.fraction(2), 1.0, 1e-9);
  }
  const auto& overall = result_->fig1.overall;
  EXPECT_EQ(overall.total(), result_->total_cnfs);
  EXPECT_GT(overall.total(), 0);
  // A healthy run identifies something uniquely.
  EXPECT_GT(overall.count[1], 0);
}

TEST_F(ExperimentTest, Fig1CoversExpectedSlices) {
  EXPECT_EQ(result_->fig1.by_granularity.size(), 3u);  // day, week, month
  EXPECT_EQ(result_->fig1.by_anomaly.size(), censor::kNumAnomalies);
}

TEST_F(ExperimentTest, Fig2ReductionsInRange) {
  const auto& f = result_->fig2;
  EXPECT_EQ(static_cast<std::int64_t>(f.reduction_percent.size()), f.multi_solution_cnfs);
  for (const double pct : f.reduction_percent) {
    EXPECT_GE(pct, 0.0);
    EXPECT_LE(pct, 100.0);
  }
  if (f.multi_solution_cnfs > 0) {
    EXPECT_GE(f.mean_reduction_percent, 0.0);
    EXPECT_LE(f.mean_reduction_percent, 100.0);
    EXPECT_GE(f.fraction_no_elimination, 0.0);
    EXPECT_LE(f.fraction_no_elimination, 1.0);
  }
}

TEST_F(ExperimentTest, Fig3ChurnMonotoneInWindowLength) {
  const auto& changed = result_->fig3.changed_fraction;
  EXPECT_LE(changed.at(util::Granularity::kDay), changed.at(util::Granularity::kWeek));
  EXPECT_LE(changed.at(util::Granularity::kWeek), changed.at(util::Granularity::kMonth));
  EXPECT_GT(changed.at(util::Granularity::kMonth), 0.0);
  for (const auto& [g, counts] : result_->fig3.distinct_paths) {
    EXPECT_GT(counts.total(), 0);
    EXPECT_EQ(counts.count(0), 0);  // a sampled window has >= 1 path
  }
}

TEST_F(ExperimentTest, Fig4NoChurnIsLessSolvable) {
  // The ablation's point: without churn, far more CNFs have many
  // solutions.  Compare 5+ fraction against the with-churn run's
  // 2+ fraction at day granularity as a sanity proxy.
  EXPECT_GT(result_->fig4.fraction_five_plus, 0.0);
  for (const auto& [g, counts] : result_->fig4.solution_counts) {
    EXPECT_GT(counts.total(), 0);
  }
}

TEST_F(ExperimentTest, IdentifiedCensorsAreRealCensors) {
  // With min_support=2 the identified set should be precise: every
  // identified AS is a ground-truth censor (small scenarios can rarely
  // produce a false positive; allow at most one).
  const auto truth = scenario_->registry().censor_ases();
  const std::set<topo::AsId> truth_set(truth.begin(), truth.end());
  std::int32_t false_positives = 0;
  for (const auto as : result_->identified_censors) {
    false_positives += truth_set.count(as) ? 0 : 1;
  }
  EXPECT_LE(false_positives, 1);
  EXPECT_EQ(result_->score_all.true_positives + result_->score_all.false_positives,
            static_cast<std::int32_t>(result_->identified_censors.size()));
}

TEST_F(ExperimentTest, ScoreObservableConsistent) {
  EXPECT_LE(result_->observable_censors.size(),
            scenario_->registry().censor_ases().size());
  EXPECT_GE(result_->score_observable.recall(), result_->score_all.recall());
}

TEST_F(ExperimentTest, Table2MatchesIdentifiedCensors) {
  std::size_t total = 0;
  for (const auto& row : result_->table2) {
    EXPECT_FALSE(row.country_code.empty());
    EXPECT_FALSE(row.censor_asns.empty());
    total += row.censor_asns.size();
  }
  EXPECT_EQ(total, result_->identified_censors.size());
  // Sorted by censor count descending.
  for (std::size_t i = 1; i < result_->table2.size(); ++i) {
    EXPECT_GE(result_->table2[i - 1].censor_asns.size(),
              result_->table2[i].censor_asns.size());
  }
}

TEST_F(ExperimentTest, Table3SortedAndConsistentWithLeakage) {
  for (std::size_t i = 1; i < result_->table3.size(); ++i) {
    EXPECT_GE(result_->table3[i - 1].leaked_ases, result_->table3[i].leaked_ases);
  }
  EXPECT_EQ(result_->table3.size(), result_->leakage.by_censor.size());
  EXPECT_LE(result_->leakage.censors_leaking_to_countries(),
            result_->leakage.censors_leaking_to_ases());
}

TEST_F(ExperimentTest, Fig5FlowsMatchLeakage) {
  std::int64_t flow_total = 0;
  for (const auto& flow : result_->fig5.flows) {
    EXPECT_GT(flow.weight, 0);
    EXPECT_NE(flow.censor_country, flow.victim_country);
    flow_total += flow.weight;
  }
  std::int64_t report_total = 0;
  for (const auto& [key, w] : result_->leakage.country_flow) report_total += w;
  EXPECT_EQ(flow_total, report_total);
  // Censor counts per country match Table 2.
  std::int64_t censors = 0;
  for (const auto& [code, count] : result_->fig5.censors_per_country) censors += count;
  EXPECT_EQ(censors, static_cast<std::int64_t>(result_->identified_censors.size()));
}

TEST_F(ExperimentTest, ReportsRenderNonEmpty) {
  EXPECT_NE(render_table1(*result_).find("Table 1"), std::string::npos);
  EXPECT_NE(render_fig1a(*result_).find("Figure 1a"), std::string::npos);
  EXPECT_NE(render_fig1b(*result_).find("rst"), std::string::npos);
  EXPECT_NE(render_fig2(*result_).find("Figure 2"), std::string::npos);
  EXPECT_NE(render_fig3(*result_).find("Figure 3"), std::string::npos);
  EXPECT_NE(render_fig4(*result_).find("Figure 4"), std::string::npos);
  EXPECT_NE(render_table2(*result_).find("Table 2"), std::string::npos);
  EXPECT_NE(render_table3(*result_).find("Table 3"), std::string::npos);
  EXPECT_NE(render_fig5(*result_).find("Figure 5"), std::string::npos);
  EXPECT_NE(render_headline(*result_).find("Headline"), std::string::npos);
  EXPECT_NE(render_score(*result_, *scenario_).find("precision"), std::string::npos);
  const std::string all = render_all(*result_, *scenario_);
  EXPECT_GT(all.size(), 2000u);
}

TEST(ExperimentDeterminism, SameSeedSameResult) {
  ScenarioConfig config = small_scenario();
  config.platform.num_days = 2 * util::kDaysPerWeek;
  Scenario s1(config), s2(config);
  const ExperimentResult r1 = run_experiment(s1);
  const ExperimentResult r2 = run_experiment(s2);
  EXPECT_EQ(r1.table1.measurements, r2.table1.measurements);
  EXPECT_EQ(r1.identified_censors, r2.identified_censors);
  EXPECT_EQ(r1.total_cnfs, r2.total_cnfs);
  EXPECT_EQ(r1.fig1.overall.count, r2.fig1.overall.count);
}

TEST(ExperimentDeterminism, ThreadCountDoesNotChangeResults) {
  ScenarioConfig config = small_scenario();
  config.platform.num_days = util::kDaysPerWeek;
  Scenario s1(config), s2(config);
  ExperimentOptions serial;
  serial.num_threads = 1;
  ExperimentOptions parallel;
  parallel.num_threads = 4;
  const ExperimentResult r1 = run_experiment(s1, serial);
  const ExperimentResult r2 = run_experiment(s2, parallel);
  EXPECT_EQ(r1.total_cnfs, r2.total_cnfs);
  EXPECT_EQ(r1.identified_censors, r2.identified_censors);
  EXPECT_EQ(r1.fig1.overall.count, r2.fig1.overall.count);
  EXPECT_EQ(r1.fig2.reduction_percent, r2.fig2.reduction_percent);
  EXPECT_DOUBLE_EQ(r1.fig4.fraction_five_plus, r2.fig4.fraction_five_plus);
  for (const auto& [g, counts] : r1.fig4.solution_counts) {
    const auto& other = r2.fig4.solution_counts.at(g);
    ASSERT_EQ(counts.max_exact(), other.max_exact());
    for (int v = 0; v <= counts.max_exact(); ++v) {
      EXPECT_EQ(counts.count(v), other.count(v));
    }
    EXPECT_EQ(counts.overflow(), other.overflow());
  }
}

TEST(Scenario, DefaultAndSmallConfigsConstruct) {
  // default_scenario is heavyweight to *run* but cheap to *construct*.
  Scenario small(small_scenario());
  EXPECT_GT(small.graph().num_ases(), 0);
  EXPECT_FALSE(small.registry().censor_ases().empty());
  EXPECT_FALSE(small.platform().vantages().empty());
  const ScenarioConfig def = default_scenario();
  EXPECT_GT(def.topology.num_ases, small.config().topology.num_ases);
  EXPECT_EQ(def.platform.num_days, util::kDaysPerYear);
}

TEST(Scenario, StubCensorsComeFromDestinations) {
  Scenario s(small_scenario());
  const auto& dests = s.platform().dest_ases();
  const std::set<topo::AsId> dest_set(dests.begin(), dests.end());
  for (const auto as : s.registry().censor_ases()) {
    if (s.graph().as_info(as).tier == topo::AsTier::kStub) {
      EXPECT_TRUE(dest_set.count(as)) << "stub censor outside endpoint pool";
    }
  }
}

}  // namespace
}  // namespace ct::analysis
