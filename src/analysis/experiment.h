// The full evaluation pipeline (paper §4).
//
// run_experiment() executes: platform run (feeding the dataset
// summary, clause builder, churn tracker, and truth tracker) → CNF
// construction at all four granularities → SAT analysis → leakage
// analysis → ground-truth scoring, and packages the data behind every
// table and figure of the paper's evaluation.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/churn_stats.h"
#include "analysis/scenario.h"
#include "tomo/clause.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"
#include "tomo/leakage.h"

namespace ct::analysis {

/// Table 1: dataset characteristics.
struct Table1Data {
  std::int64_t measurements = 0;
  std::int64_t unique_urls = 0;
  std::int64_t vantage_ases = 0;
  std::int64_t dest_ases = 0;
  std::int64_t countries = 0;
  std::int64_t unreachable = 0;
  std::array<std::int64_t, censor::kNumAnomalies> anomaly_counts{};
  tomo::ClauseBuildStats clause_stats;

  bool operator==(const Table1Data&) const = default;
};

/// Solution-class tally for one slice of CNFs (Figure 1).
struct SolutionSplit {
  std::array<std::int64_t, 3> count{};  // index = solution class 0/1/2+

  std::int64_t total() const { return count[0] + count[1] + count[2]; }
  double fraction(int cls) const {
    return total() == 0 ? 0.0
                        : static_cast<double>(count[static_cast<std::size_t>(cls)]) /
                              static_cast<double>(total());
  }

  bool operator==(const SolutionSplit&) const = default;
};

struct Fig1Data {
  /// Figure 1a: by CNF granularity (day / week / month).
  std::map<util::Granularity, SolutionSplit> by_granularity;
  /// Figure 1b: by anomaly type (all granularities pooled).
  std::map<censor::Anomaly, SolutionSplit> by_anomaly;
  /// Headline numbers: fractions over all CNFs.
  SolutionSplit overall;

  bool operator==(const Fig1Data&) const = default;
};

/// Figure 2: candidate-set reduction in multi-solution CNFs.
struct Fig2Data {
  std::vector<double> reduction_percent;  // one sample per 2+-solution CNF
  double mean_reduction_percent = 0.0;
  double fraction_no_elimination = 0.0;
  std::int64_t multi_solution_cnfs = 0;
};

/// Figure 4: solvability without path churn (first-path-only ablation).
struct Fig4Data {
  /// Per granularity: solution-count histogram 0..4 plus "5+".
  std::map<util::Granularity, util::BucketedCounts> solution_counts;
  double fraction_five_plus = 0.0;  // pooled across granularities
};

/// Table 2: regions with the most censoring ASes.
struct Table2Row {
  std::string country_code;
  std::vector<std::int32_t> censor_asns;
  std::vector<censor::Anomaly> anomalies;  // union across the country's censors
};

/// Table 3: censoring ASes with the most cross-border leakage.
struct Table3Row {
  std::int32_t asn = 0;
  std::string country_code;
  std::int64_t leaked_ases = 0;
  std::int64_t leaked_countries = 0;
};

/// Figure 5: country-level censorship flow.
struct Fig5Flow {
  std::string censor_country;
  std::string victim_country;
  std::int64_t weight = 0;  // distinct (censor, victim-AS) pairs
  bool same_region = false;
};

struct Fig5Data {
  std::vector<Fig5Flow> flows;                       // sorted by weight desc
  std::map<std::string, std::int64_t> censors_per_country;
  double same_region_weight_fraction = 0.0;          // excl. flows from CN
};

struct ExperimentResult {
  Table1Data table1;
  Fig1Data fig1;
  Fig2Data fig2;
  ChurnStats fig3;
  Fig4Data fig4;
  std::vector<Table2Row> table2;  // sorted by censor count desc
  std::vector<Table3Row> table3;  // sorted by leaked countries desc
  Fig5Data fig5;

  /// Identified censors and leakage (the paper's headline counts).
  std::vector<topo::AsId> identified_censors;
  std::int32_t censor_countries = 0;
  tomo::LeakageReport leakage;

  /// Validation against ground truth (simulation-only superpower).
  tomo::CensorScore score_all;        // vs. every ground-truth censor
  tomo::CensorScore score_observable; // vs. censors that actually fired
  std::vector<topo::AsId> observable_censors;

  /// Total CNFs analyzed (positive-clause-bearing, all granularities).
  std::int64_t total_cnfs = 0;

  /// SAT engine counters of the main analysis pass (loads, solves, and
  /// per-backend selected/served/escalated counts; Figure 4's ablation
  /// pass is not included).
  tomo::EngineStats engine_stats;
};

struct ExperimentOptions {
  /// Options for the SAT analysis passes.  `analysis.num_threads` and
  /// `analysis.resolve_counts` are overridden per pass: see
  /// `num_threads` below, and counts are resolved only where a figure
  /// reads them (Figure 4's histogram), lazily elsewhere.
  tomo::AnalysisOptions analysis;
  /// Worker threads for the CNF analysis batches (the experiment's
  /// dominant cost).  0 = hardware concurrency, 1 = exact old serial
  /// behavior.  Results are identical for every value.
  unsigned num_threads = 0;
  /// Shards for the measurement-platform run + clause building (the
  /// pipeline's other serial wall).  The schedule is partitioned into
  /// (vantage, day) ranges executed concurrently on a thread pool, each
  /// streaming into shard-local sinks that are merged and canonicalized
  /// afterwards.  1 = serial platform run, 0 = hardware concurrency.
  /// Per-cell RNG streams keyed on schedule coordinates make the result
  /// bit-identical for every value (see README "Sharded execution").
  unsigned num_platform_shards = 1;
  /// Selects the memory model.  false materializes the run: every
  /// clause and CNF exists before the first SAT call.  true runs the
  /// experiment on a MonitorEngine with default MonitorOptions, so
  /// memory is bounded by one ingest segment, not by the run length
  /// (README "Streaming ingest").  Composes with num_platform_shards.
  /// The report is byte-identical either way; the streaming
  /// equivalence suite enforces it.
  bool streaming = false;
  /// Evidence threshold for declaring an AS a censor (distinct
  /// (URL, anomaly) pairs with unique-solution CNFs); filters one-off
  /// detector false positives.
  std::int32_t min_support = 2;
  /// Granularities for Figure 1a (the paper plots day/week/month: every
  /// granularity but the year).  Copied from kAllGranularities rather
  /// than a braced list, whose inlined copy GCC 12 misreports as
  /// -Wmaybe-uninitialized at -O2 and above.
  std::vector<util::Granularity> fig1_granularities{util::kAllGranularities.begin(),
                                                    util::kAllGranularities.end() - 1};
};

/// Runs the whole pipeline on a scenario.  Deterministic.
ExperimentResult run_experiment(Scenario& scenario, const ExperimentOptions& options = {});

}  // namespace ct::analysis
