// Golden regression test: the small scenario's headline numbers (Table 1
// counts and the Figure 1 overall solution split) are frozen in a
// checked-in golden file so refactors cannot silently drift the paper's
// results.  The experiment honors CT_PLATFORM_SHARDS, so CI's sharded
// configuration checks the frozen numbers through the sharded path too.
//
// To regenerate after an *intentional* behavior change:
//   CT_UPDATE_GOLDEN=1 ./ct_analysis_tests --gtest_filter='Golden*'
// and commit the rewritten file with an explanation of the drift.
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "analysis/scenario.h"
#include "shard_env.h"

namespace ct::analysis {
namespace {

// One golden file per scenario regime: the baseline keeps its historic
// name, the stress regimes get a suffix (small_scenario_routing.txt,
// ...).  CI's scenario matrix checks each regime's frozen numbers
// through the sharded platform and the monitor-backed streaming mode
// too.
std::string golden_path() {
  const censor::ScenarioRegime regime = censor::regime_from_env();
  if (regime == censor::ScenarioRegime::kBaseline) {
    return CT_GOLDEN_DIR "/small_scenario.txt";
  }
  return std::string(CT_GOLDEN_DIR "/small_scenario_") + censor::to_string(regime) + ".txt";
}

std::map<std::string, std::int64_t> headline_numbers(bool force_streaming = false) {
  ScenarioConfig config = small_scenario();
  test::apply_env(config);
  Scenario scenario(config);
  ExperimentOptions options;
  test::apply_env(options);
  if (force_streaming) options.streaming = true;
  const ExperimentResult r = run_experiment(scenario, options);

  std::map<std::string, std::int64_t> kv;
  kv["table1.measurements"] = r.table1.measurements;
  kv["table1.unique_urls"] = r.table1.unique_urls;
  kv["table1.vantage_ases"] = r.table1.vantage_ases;
  kv["table1.dest_ases"] = r.table1.dest_ases;
  kv["table1.countries"] = r.table1.countries;
  kv["table1.unreachable"] = r.table1.unreachable;
  for (const censor::Anomaly a : censor::kAllAnomalies) {
    kv["table1.anomaly." + censor::to_string(a)] =
        r.table1.anomaly_counts[static_cast<std::size_t>(a)];
  }
  kv["table1.usable_measurements"] = r.table1.clause_stats.usable_measurements;
  kv["table1.dropped"] = r.table1.clause_stats.dropped_total();
  kv["table1.clauses"] = r.table1.clause_stats.clauses;
  kv["fig1.overall.0"] = r.fig1.overall.count[0];
  kv["fig1.overall.1"] = r.fig1.overall.count[1];
  kv["fig1.overall.2plus"] = r.fig1.overall.count[2];
  kv["total_cnfs"] = r.total_cnfs;
  kv["identified_censors"] = static_cast<std::int64_t>(r.identified_censors.size());
  kv["censor_countries"] = r.censor_countries;
  return kv;
}

std::map<std::string, std::int64_t> read_golden() {
  const std::string path = golden_path();
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " (generate with CT_UPDATE_GOLDEN=1)";
  std::map<std::string, std::int64_t> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    EXPECT_NE(eq, std::string::npos) << "malformed golden line: " << line;
    if (eq == std::string::npos) continue;
    expected[line.substr(0, eq)] = std::stoll(line.substr(eq + 1));
  }
  return expected;
}

void expect_matches_golden(const std::map<std::string, std::int64_t>& actual) {
  const std::map<std::string, std::int64_t> expected = read_golden();
  EXPECT_EQ(actual.size(), expected.size());
  for (const auto& [key, value] : expected) {
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "golden key missing from run: " << key;
    EXPECT_EQ(it->second, value) << "headline number drifted: " << key;
  }
}

TEST(GoldenRegression, SmallScenarioHeadlineNumbers) {
  const std::map<std::string, std::int64_t> actual = headline_numbers();

  if (std::getenv("CT_UPDATE_GOLDEN") != nullptr) {
    const std::string path = golden_path();
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << "# Headline numbers of analysis::small_scenario() under the \""
        << censor::to_string(censor::regime_from_env())
        << "\" regime, frozen by\n"
           "# golden_regression_test.cpp.  Regenerate with CT_UPDATE_GOLDEN=1\n"
           "# only for intentional behavior changes.\n";
    for (const auto& [key, value] : actual) out << key << "=" << value << "\n";
    GTEST_SKIP() << "golden file regenerated at " << path;
  }

  expect_matches_golden(actual);
}

// The same frozen numbers must come out of streaming mode, which runs
// on the resident monitor: a drift here but not above means the
// monitor diverged from the batch path (see also
// streaming_equivalence_test.cpp).
TEST(GoldenRegression, SmallScenarioHeadlineNumbersStreaming) {
  if (std::getenv("CT_UPDATE_GOLDEN") != nullptr) {
    GTEST_SKIP() << "golden file is regenerated by the batch test only";
  }
  if (test::streaming_from_env()) {
    GTEST_SKIP() << "CT_STREAMING=1 already runs the main test through the monitor";
  }
  expect_matches_golden(headline_numbers(/*force_streaming=*/true));
}

}  // namespace
}  // namespace ct::analysis
