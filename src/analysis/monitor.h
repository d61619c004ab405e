// Crash-safe resident monitor on the any-time analysis pipeline.
//
// MonitorEngine runs the measurement platform as a *resident* loop:
// measurements are ingested continuously in day segments, window-complete
// CNFs are analyzed the moment the watermark seals them (on persistent
// per-lane solver arenas, so cross-window delta chains stay hot across
// segments), and every data product accumulates in the same
// ExperimentFolds the batch path uses — so MonitorEngine::finalize()
// reproduces the batch run_experiment()'s report byte for byte
// (checkpoint.h's serialize_report() is the oracle).  run_experiment
// with ExperimentOptions::streaming runs on this engine.
//
// Crash safety: checkpoint() serializes the monitor's complete
// persistent state — the interned path pool, the open window groups of
// both CNF builders, the ablation filter, the sealed churn fold, all
// four experiment folds, the dataset summary, the truth tracker, the
// clause-build stats, and the cumulative SAT counters — into a
// versioned, fingerprinted envelope (analysis/checkpoint.h).  A process
// killed at any point can restore() the last checkpoint into a freshly
// constructed monitor and run to the *identical* final report: the
// platform replay is deterministic from any day boundary (schedule-keyed
// RNG), every fold is order-independent, and solver learnt state is
// deliberately NOT checkpointed — sessions rebuild cold on resume, which
// never changes a verdict (verdicts are pure functions of (CNF,
// options); the delta/backend equivalence suites hold this).
//
// Memory: one ingest segment plus the open windows, independent of run
// length.  Each segment's raw clauses live only between its platform
// replay and its per-day drain (tracked by an HwmGauge); the window
// groups, churn fold, and folds are all watermark-sealed.  A 10-year
// replay holds a flat retained-clause peak — the CI smoke job asserts
// it.
//
// LiveReports are served to any number of concurrent readers through
// LiveReportServer: one atomic shared_ptr swap per watermark, wait-free
// readers, with published/read/stale/peak-reader counters surfaced in
// EngineStats.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/live_report.h"
#include "analysis/scenario.h"
#include "tomo/clause.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"
#include "util/hwm.h"
#include "util/thread_pool.h"

namespace ct::analysis {

/// Snapshot-swap server for LiveReports.  publish() (single writer: the
/// monitor loop) installs a new immutable snapshot with one atomic
/// shared_ptr store; snapshot() (any number of concurrent readers) is a
/// single atomic load — readers never block the writer and never see a
/// torn report, only a complete (possibly one-watermark-stale) one.
class LiveReportServer {
 public:
  /// RAII reader registration, for the reader-count instrumentation
  /// (attach on construction, detach on destruction).  Attaching is
  /// optional — snapshot() works unattached — but the monitor's
  /// peak-reader counter only sees attached readers.
  class Reader {
   public:
    explicit Reader(const LiveReportServer& server);
    ~Reader();
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    std::shared_ptr<const LiveReport> snapshot() const { return server_->snapshot(); }

   private:
    const LiveReportServer* server_;
  };

  /// Installs `report` as the current snapshot (single writer).
  void publish(std::shared_ptr<const LiveReport> report);

  /// The current snapshot, or null before the first publish.  Wait-free
  /// with respect to the writer; a read racing a publish returns the
  /// previous complete snapshot (and counts as stale).
  std::shared_ptr<const LiveReport> snapshot() const;

  std::uint64_t published() const { return published_.load(std::memory_order_relaxed); }
  std::uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  /// snapshot() calls that observed a report older than the latest
  /// published watermark (they raced a publish — still a valid report).
  std::uint64_t stale_reads() const { return stale_reads_.load(std::memory_order_relaxed); }
  std::uint64_t peak_readers() const {
    return static_cast<std::uint64_t>(peak_readers_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::shared_ptr<const LiveReport>> snapshot_;
  std::atomic<std::int32_t> latest_watermark_{-1};
  mutable std::atomic<std::uint64_t> published_{0};
  mutable std::atomic<std::uint64_t> reads_{0};
  mutable std::atomic<std::uint64_t> stale_reads_{0};
  mutable std::atomic<std::int64_t> active_readers_{0};
  mutable std::atomic<std::int64_t> peak_readers_{0};
};

struct MonitorOptions {
  /// Result-determining configuration (fingerprinted into checkpoints)
  /// plus the execution knobs (threads, shards, backend, delta — all
  /// checkpoint-compatible across changes).  `experiment.streaming` is
  /// ignored: the monitor is the streaming mode.
  ExperimentOptions experiment;
  /// Ingest segment length in days: each segment is one platform replay
  /// (sharded per `experiment.num_platform_shards`) whose clauses are
  /// drained day by day and then freed.  Peak retained clauses scale
  /// with this, not with the run length.
  util::Day segment_days = 28;
  /// Automatic checkpoint cadence in watermark days (0 = only explicit
  /// checkpoint() calls).  Checkpoints are written at segment
  /// boundaries — the monitor's quiescent points — so the cadence is
  /// rounded up to whole segments.
  util::Day checkpoint_every = 0;
  /// Target file for automatic checkpoints (empty = none); written
  /// atomically (tmp + rename), so a kill mid-write preserves the
  /// previous checkpoint.
  std::string checkpoint_path;
};

/// Point-in-time monitor gauges (distinct from the SAT EngineStats,
/// which `engine` embeds).
struct MonitorStats {
  util::Day watermark = 0;
  std::int64_t segments_ingested = 0;
  std::int64_t checkpoints_written = 0;
  /// O(open windows) state — these are the numbers that must stay flat
  /// over a multi-year run.
  std::int64_t open_main_windows = 0;
  std::int64_t open_ablation_windows = 0;
  std::int64_t churn_open_entries = 0;
  std::int64_t retained_clauses_now = 0;
  std::int64_t retained_clauses_peak = 0;
  std::int64_t gauge_underflows = 0;
  /// Churn-process counters at the watermark, replayed deterministically
  /// from the seed (the platform shards own the real engines; the
  /// trajectory is a pure function of the seed, so the replica matches
  /// them exactly).  failures - repairs == links_down always; failures
  /// ~ repairs with few links down means a flapping population, a
  /// growing gap means links are dying.
  std::int64_t churn_failures = 0;
  std::int64_t churn_repairs = 0;
  std::int32_t churn_links_down = 0;
  /// Cumulative SAT + snapshot-server counters (both analysis passes),
  /// carried across resume via the checkpoint.
  tomo::EngineStats engine;
};

/// The resident monitor loop.  Singleton per scenario run; not
/// thread-safe itself (one driver thread), but its LiveReportServer is
/// safe for any number of concurrent readers.
class MonitorEngine {
 public:
  MonitorEngine(Scenario& scenario, MonitorOptions options);

  util::Day watermark() const { return watermark_; }
  util::Day num_days() const;
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Ingests and analyzes through `target` (exclusive watermark day),
  /// segment by segment, publishing a LiveReport at every completed day
  /// and writing automatic checkpoints at the configured cadence.
  void run_until(util::Day target);
  void run_all() { run_until(num_days()); }

  /// Serializes the monitor's complete persistent state into a sealed
  /// checkpoint envelope.  Valid between run_until() calls (the
  /// monitor's quiescent points).
  std::string checkpoint() const;
  /// checkpoint() + atomic file write; counts toward checkpoints_written.
  void checkpoint_to(const std::string& path);

  /// Restores a checkpoint into this *freshly constructed* monitor
  /// (same scenario + experiment config — the envelope fingerprint
  /// enforces it; execution knobs may differ).  Throws CheckpointError
  /// on any mismatch or corruption, std::logic_error if this monitor
  /// already ingested data.
  void restore(const std::string& bytes);
  void restore_from(const std::string& path);

  /// Completes ingest (run_all), flushes the trailing partial windows,
  /// and derives the final ExperimentResult through the same
  /// finalize_experiment_result() as run_experiment — byte-identical to
  /// the batch report (modulo engine_stats) no matter how many
  /// kill/resume cycles the run went through.
  ExperimentResult finalize();

  LiveReportServer& reports() { return server_; }
  const LiveReportServer& reports() const { return server_; }

  MonitorStats stats() const;

  /// SAT counters of this engine's main-pass arenas alone: no Figure-4
  /// pass, no counters restored from a checkpoint, no snapshot-server
  /// counters.  run_experiment reports these, as its batch path counts
  /// only the main pass.
  tomo::EngineStats main_pass_stats() const;

 private:
  void ingest_segment(util::Day d0, util::Day d1);
  void drain_day(const tomo::PathPool& seg_pool, const std::vector<tomo::PathClause>& clauses,
                 std::size_t begin, std::size_t end, util::Day day);
  std::vector<tomo::CnfVerdict> analyze_batch(std::vector<tomo::CnfAnalyzer>& arenas,
                                              const std::vector<tomo::TomoCnf>& cnfs,
                                              const tomo::AnalysisOptions& options);
  void publish_report();
  void maybe_checkpoint();
  tomo::EngineStats engine_now() const;

  Scenario* scenario_;
  MonitorOptions options_;
  std::uint64_t fingerprint_;
  tomo::AnalysisOptions main_analysis_;
  tomo::AnalysisOptions ablation_analysis_;

  // Persistent pipeline state (everything here is checkpointed).
  tomo::PathPool pool_;  // global canonical path ids; both groupers borrow it
  tomo::StreamingCnfBuilder grouper_;
  tomo::ChurnStripFilter strip_;
  tomo::StreamingCnfBuilder ablation_grouper_;
  ChurnFold churn_fold_;
  ExperimentFolds folds_;
  iclab::DatasetSummary summary_;
  TruthTracker truth_;
  tomo::ClauseBuildStats clause_stats_;
  /// Engine counters restored from the checkpoint (the live arenas are
  /// rebuilt cold on resume, so their counters restart from zero and
  /// accumulate on top of this base).
  tomo::EngineStats stats_base_;

  // Execution state (never checkpointed).  The churn replica is lazily
  // replayed to the watermark inside stats() — it reconstructs the same
  // trajectory as the shards' engines (pure function of the seed), so
  // it needs no persistence either.
  mutable bgp::ChurnEngine churn_probe_;
  util::ThreadPool analysis_pool_;
  std::vector<tomo::CnfAnalyzer> main_arenas_;
  std::vector<tomo::CnfAnalyzer> ablation_arenas_;
  LiveReportServer server_;
  util::HwmGauge retained_;

  util::Day watermark_ = 0;
  util::Day last_checkpoint_ = 0;
  std::int64_t segments_ = 0;
  std::int64_t checkpoints_written_ = 0;
};

}  // namespace ct::analysis
