// Per-regime determinism contract (README "Scenarios").
//
// Each scenario regime — routing-induced censorship, ECMP multipath,
// adaptive censors, path-diversity dithering — changes the *world* the
// experiment measures, but none of them may change the execution
// contract: within a regime, the canonical report (serialize_report, the
// same oracle the monitor and checkpoint suites use) must be
// byte-identical across platform shard counts, streaming mode,
// delta loading on/off, and forced SAT backends.  And every stress
// regime must actually move the world: a regime whose report matches the
// baseline byte for byte is dead wiring, not a scenario.
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "analysis/checkpoint.h"
#include "analysis/experiment.h"
#include "analysis/scenario.h"
#include "censor/regime.h"
#include "sat/backend.h"
#include "shard_env.h"

namespace ct::analysis {
namespace {

using censor::ScenarioRegime;

ScenarioConfig regime_scenario(ScenarioRegime regime) {
  ScenarioConfig cfg = test::shard_scenario(20170623);
  cfg.regime.regime = regime;
  return cfg;
}

std::string report_bytes(const ScenarioConfig& config, const ExperimentOptions& options) {
  Scenario scenario(config);
  return serialize_report(run_experiment(scenario, options));
}

TEST(ScenarioRegime, ByteIdenticalAcrossExecutionModes) {
  for (const ScenarioRegime regime : censor::all_regimes()) {
    SCOPED_TRACE(censor::to_string(regime));
    const ScenarioConfig config = regime_scenario(regime);

    ExperimentOptions reference;
    reference.num_platform_shards = 1;
    const std::string expected = report_bytes(config, reference);
    ASSERT_FALSE(expected.empty());

    {
      ExperimentOptions sharded;
      sharded.num_platform_shards = 4;
      EXPECT_EQ(report_bytes(config, sharded), expected) << "sharded diverged";
    }
    {
      ExperimentOptions streaming;
      streaming.streaming = true;
      streaming.num_platform_shards = 2;
      EXPECT_EQ(report_bytes(config, streaming), expected) << "streaming diverged";
    }
    {
      ExperimentOptions fresh;
      fresh.analysis.delta.enabled = false;
      fresh.analysis.backend.mode = sat::BackendSelector::Mode::kCdcl;
      EXPECT_EQ(report_bytes(config, fresh), expected)
          << "delta-off / forced-backend diverged";
    }
  }
}

TEST(ScenarioRegime, StressRegimesActuallyChangeTheWorld) {
  ExperimentOptions options;
  std::map<ScenarioRegime, std::string> reports;
  for (const ScenarioRegime regime : censor::all_regimes()) {
    reports[regime] = report_bytes(regime_scenario(regime), options);
  }
  const std::string& baseline = reports[ScenarioRegime::kBaseline];
  for (const ScenarioRegime regime : censor::all_regimes()) {
    if (regime == ScenarioRegime::kBaseline) continue;
    EXPECT_NE(reports[regime], baseline)
        << censor::to_string(regime) << " regime left the report untouched — dead wiring?";
  }
}

TEST(ScenarioRegime, BaselineMatchesRegimeFreeConfig) {
  // The regime layer is strictly additive: a kBaseline RegimeConfig must
  // reproduce the pre-regime pipeline byte for byte.  Both configs come
  // from one environment-free base, so a CT_SCENARIO regime cannot
  // reach only one of them.
  ExperimentOptions options;
  const ScenarioConfig untouched = test::env_free_shard_scenario(20170623);
  ScenarioConfig with_field = untouched;
  with_field.regime = censor::RegimeConfig{};
  EXPECT_EQ(report_bytes(with_field, options), report_bytes(untouched, options));
}

TEST(ScenarioRegime, AdaptivePlacementsRespectThePeriodKnob) {
  // The re-optimization cadence segments each adaptive censor's year:
  // one policy per segment.  Over a 21-day run, a 7-day period yields 3
  // segments per transit slot, a 14-day period 2 — the knob must reach
  // the generated registry.  (The *chosen* ASes may coincide on a small
  // stable topology; the schedule structure cannot.)
  ScenarioConfig fast = regime_scenario(ScenarioRegime::kAdaptive);
  fast.regime.adaptive_period_days = 7;
  ScenarioConfig slow = regime_scenario(ScenarioRegime::kAdaptive);
  slow.regime.adaptive_period_days = 14;
  Scenario fast_scenario(fast);
  Scenario slow_scenario(slow);
  EXPECT_GT(fast_scenario.registry().policies().size(),
            slow_scenario.registry().policies().size());
  // Final segments are open-ended: the adaptive censor never goes dark.
  bool any_open = false;
  for (const auto& p : fast_scenario.registry().policies()) {
    if (p.active_to == censor::kPolicyNoExpiry) any_open = true;
  }
  EXPECT_TRUE(any_open);
}

}  // namespace
}  // namespace ct::analysis
