// The four streaming consumers of one platform run (or of one shard of
// it), bundled with their fanout and fold.  run_experiment, the
// resident monitor, the platform-shard benchmark, and the equivalence
// tests all drive exactly this bundle, so adding a sink or changing
// merge requirements happens in one place.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "analysis/churn_stats.h"
#include "analysis/scenario.h"
#include "analysis/truth_tracker.h"
#include "iclab/platform.h"
#include "tomo/clause.h"

namespace ct::analysis {

/// Heap-allocate and never move: the fanout holds pointers into the
/// owning object.
struct PlatformSinks {
  iclab::DatasetSummary summary;
  tomo::ClauseBuilder clause_builder;
  PathChurnTracker churn_tracker;
  TruthTracker truth_tracker;
  iclab::SinkFanout fanout;

  explicit PlatformSinks(Scenario& scenario)
      : summary(scenario.graph()),
        clause_builder(scenario.ip2as()),
        churn_tracker(scenario.graph(), scenario.platform().vantages(),
                      scenario.platform().dest_ases(),
                      scenario.platform().config().num_days,
                      scenario.platform().config().epochs_per_day),
        truth_tracker(scenario.registry(), scenario.platform()) {
    fanout.add(&summary);
    fanout.add(&clause_builder);
    fanout.add(&churn_tracker);
    fanout.add(&truth_tracker);
  }

  /// Folds a shard's sinks into this one.  Remember to canonicalize the
  /// clause builder after the last fold.
  void merge(PlatformSinks&& other) {
    summary.merge(std::move(other.summary));
    clause_builder.merge(std::move(other.clause_builder));
    churn_tracker.merge(std::move(other.churn_tracker));
    truth_tracker.merge(std::move(other.truth_tracker));
  }
};

/// Runs the measurement platform through all sinks, serially
/// (num_shards <= 1) or split into (vantage, day) shards on a thread
/// pool, merged and canonicalized back to the serial stream.  The
/// returned sink contents are bit-identical either way (the equivalence
/// tests hold this to the letter).  num_shards == 0 selects one shard
/// per hardware thread; workers are capped at the hardware and the
/// shard count.
std::unique_ptr<PlatformSinks> run_platform(Scenario& scenario, unsigned num_shards);

/// The same over schedule days [day_begin, day_end) only — one ingest
/// segment of the resident monitor.
std::unique_ptr<PlatformSinks> run_platform(Scenario& scenario, unsigned num_shards,
                                            util::Day day_begin, util::Day day_end);

}  // namespace ct::analysis
