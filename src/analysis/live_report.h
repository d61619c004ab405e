// Incremental experiment analytics and the any-time results snapshot.
//
// These folds derive the paper's data products one verdict at a time,
// so the resident monitor can drop each CNF and verdict the moment it
// is analyzed and surface a valid LiveReport at every watermark.  The
// batch run_experiment and the monitor (which also serves
// run_experiment's streaming mode) run on the same folds, so their
// products cannot diverge: everything a fold accumulates is
// order-independent (counts and set unions), and the one order-bearing
// product (Figure 2's per-CNF sample vector) is key-sorted at
// finalization, which is exactly the batch iteration order.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "analysis/churn_stats.h"
#include "analysis/experiment.h"
#include "analysis/truth_tracker.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"
#include "tomo/leakage.h"

namespace ct::analysis {

/// Any-time snapshot of a monitor run, valid at a watermark: the
/// verdict counts cover exactly the CNFs of windows sealed by the
/// watermark, and the churn stats cover the ingested measurement days.
/// Ingested one day per segment, that is exactly the days below the
/// watermark, so every LiveReport equals the batch computation over its
/// sealed prefix (monitor_live_test.cpp holds this); a report published
/// inside a longer segment carries the churn of the whole segment.
struct LiveReport {
  /// Every window ending at or before this day is included.
  util::Day watermark = 0;
  /// CNFs analyzed so far (all granularities).
  std::int64_t cnfs_analyzed = 0;
  /// Verdict counts so far: overall and per URL.
  SolutionSplit overall;
  std::map<std::int32_t, SolutionSplit> by_url;
  /// Per-AS verdict counts so far: CNFs exactly naming the AS a censor
  /// (class 1) / listing it as a potential censor (class 2).
  std::map<topo::AsId, std::int64_t> exact_censor_cnfs;
  std::map<topo::AsId, std::int64_t> potential_censor_cnfs;
  /// Figure-3 churn stats over the sealed days.
  ChurnStats churn;
};

/// The LiveReport verdict counts as an incremental fold — the one
/// implementation behind both the any-time snapshots (the pipeline's
/// release path) and VerdictFold's figure products, so the two can
/// never drift.  Fixed-size up to the URL/AS key spaces; retains no
/// per-CNF state.
struct LiveCounts {
  std::int64_t cnfs = 0;
  SolutionSplit overall;
  std::map<std::int32_t, SolutionSplit> by_url;
  std::map<topo::AsId, std::int64_t> exact_censor_cnfs;
  std::map<topo::AsId, std::int64_t> potential_censor_cnfs;

  void add(const tomo::CnfVerdict& verdict);
  /// Copies the counts into `report` (watermark/churn are the caller's).
  void fill(LiveReport& report) const;

  /// Checkpoint support (analysis/checkpoint.h).
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);
};

/// Incremental fold of the main pass's verdicts into the Figure-1/2
/// data products (a LiveCounts plus the figure-only tallies).
class VerdictFold {
 public:
  explicit VerdictFold(std::vector<util::Granularity> fig1_granularities);

  void add(const tomo::CnfVerdict& verdict);

  std::int64_t total() const { return counts_.cnfs; }
  Fig1Data fig1() const;
  /// Figure 2: reduction samples in CnfKey order (the batch order).
  Fig2Data fig2() const;

  /// The LiveCounts accumulated so far — the monitor's snapshot server
  /// fills LiveReports from here without a second fold.
  const LiveCounts& counts() const { return counts_; }

  /// Checkpoint support (analysis/checkpoint.h): persists every
  /// accumulator; load() requires a fold constructed with the same
  /// fig1 granularity set (the envelope fingerprint guards this).
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  LiveCounts counts_;
  Fig1Data fig1_;  // overall filled from counts_ at fig1()
  std::vector<std::pair<tomo::CnfKey, double>> fig2_samples_;
  std::int64_t fig2_no_elimination_ = 0;
};

/// Incremental Figure-4 histogram fold over the churn-ablation pass's
/// verdicts (order-independent: counts only).
class Fig4Fold {
 public:
  explicit Fig4Fold(const std::vector<util::Granularity>& granularities);

  void add(const tomo::CnfVerdict& verdict);
  Fig4Data finalize() const;

  /// Checkpoint support (analysis/checkpoint.h); the granularity set is
  /// construction-time config, restored keys must match (SerdeError).
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  Fig4Data fig4_;
  std::int64_t five_plus_ = 0;
  std::int64_t total_ = 0;
};

/// The incremental folds every data product downstream of the main SAT
/// pass is derived from.  Batch feeds them from the materialized
/// verdict vectors (key order); the resident monitor feeds them day by
/// day as windows close (emission order).  Every fold is
/// order-independent (or key-sorts at finalization), so all paths are
/// byte-identical by construction.
struct ExperimentFolds {
  explicit ExperimentFolds(const ExperimentOptions& options)
      : verdicts(options.fig1_granularities), fig4(options.fig1_granularities) {}

  VerdictFold verdicts;
  tomo::CensorSupport support;
  tomo::LeakageFold leakage;
  Fig4Fold fig4;

  void add_main(const tomo::TomoCnf& cnf, const tomo::CnfVerdict& verdict) {
    verdicts.add(verdict);
    support.add(verdict);
    leakage.add(cnf, verdict);
  }

  /// Checkpoint support (analysis/checkpoint.h): all four folds.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);
};

/// Derives the full ExperimentResult (tables, figures, censor lists,
/// leakage, ground-truth scores) from sealed folds plus the run-wide
/// sink products.  This is the one finalization path: the batch
/// run_experiment and MonitorEngine::finalize (which also serves
/// run_experiment's streaming mode) both end here, so a resumed monitor
/// run reproduces the batch report byte for byte.
/// `engine_stats` is NOT filled in — the caller owns its SAT counters.
ExperimentResult finalize_experiment_result(Scenario& scenario,
                                            const ExperimentOptions& options,
                                            const ExperimentFolds& folds,
                                            const iclab::DatasetSummary& summary,
                                            const tomo::ClauseBuildStats& clause_stats,
                                            const TruthTracker& truth_tracker,
                                            ChurnStats fig3);

}  // namespace ct::analysis
