#include "analysis/monitor.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "analysis/checkpoint.h"
#include "analysis/platform_sinks.h"
#include "util/rng.h"
#include "util/serde.h"

namespace ct::analysis {

// --- LiveReportServer ------------------------------------------------

LiveReportServer::Reader::Reader(const LiveReportServer& server) : server_(&server) {
  const std::int64_t now =
      server.active_readers_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::int64_t peak = server.peak_readers_.load(std::memory_order_relaxed);
  while (now > peak &&
         !server.peak_readers_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

LiveReportServer::Reader::~Reader() {
  server_->active_readers_.fetch_sub(1, std::memory_order_relaxed);
}

void LiveReportServer::publish(std::shared_ptr<const LiveReport> report) {
  // Watermark first: a reader racing the swap sees the old snapshot
  // against the new watermark and counts itself stale — which it is.
  latest_watermark_.store(report->watermark, std::memory_order_release);
  snapshot_.store(std::move(report), std::memory_order_release);
  published_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const LiveReport> LiveReportServer::snapshot() const {
  reads_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const LiveReport> report = snapshot_.load(std::memory_order_acquire);
  if (report != nullptr &&
      report->watermark < latest_watermark_.load(std::memory_order_acquire)) {
    stale_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  return report;
}

// --- MonitorEngine ---------------------------------------------------

namespace {

tomo::CnfBuildOptions ablation_build_options(const ExperimentOptions& options) {
  tomo::CnfBuildOptions build;
  build.granularities = options.fig1_granularities;
  return build;
}

/// Deterministic chain -> arena lane: every window of one (URL,
/// anomaly, granularity) chain lands on the same persistent arena in
/// watermark order, so cross-window delta loading stays effective
/// across per-day batches and ingest segments.  Verdicts never depend
/// on the routing (equivalence suites), only delta hit rates do.
std::size_t chain_lane(const tomo::ChainKey& chain, std::size_t lanes) {
  std::uint64_t h = 0x4D4F4E49544F52ULL;  // "MONITOR"
  h = util::mix64(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(chain.url_id)));
  h = util::mix64(h, static_cast<std::uint64_t>(chain.anomaly));
  h = util::mix64(h, static_cast<std::uint64_t>(chain.granularity));
  return static_cast<std::size_t>(h % lanes);
}

}  // namespace

MonitorEngine::MonitorEngine(Scenario& scenario, MonitorOptions options)
    : scenario_(&scenario),
      options_(std::move(options)),
      fingerprint_(config_fingerprint(scenario, options_.experiment)),
      grouper_(tomo::CnfBuildOptions{}, &pool_),
      ablation_grouper_(ablation_build_options(options_.experiment), &pool_),
      churn_fold_(scenario.graph(), scenario.platform().vantages(),
                  scenario.platform().dest_ases(), scenario.platform().config().num_days,
                  scenario.platform().config().epochs_per_day),
      folds_(options_.experiment),
      summary_(scenario.graph()),
      truth_(scenario.registry(), scenario.platform()),
      churn_probe_(scenario.graph(), scenario.platform().config().churn,
                   scenario.config().seed),
      analysis_pool_(options_.experiment.num_threads),
      main_arenas_(analysis_pool_.size()),
      ablation_arenas_(analysis_pool_.size()) {
  if (options_.segment_days < 1) options_.segment_days = 1;
  main_analysis_ = options_.experiment.analysis;
  main_analysis_.resolve_counts = false;  // nothing downstream reads counts past the class
  ablation_analysis_ = options_.experiment.analysis;
  ablation_analysis_.resolve_counts = true;  // Figure 4 plots the histogram
}

util::Day MonitorEngine::num_days() const {
  return scenario_->platform().config().num_days;
}

void MonitorEngine::run_until(util::Day target) {
  const util::Day end = std::min(target, num_days());
  while (watermark_ < end) {
    const util::Day d1 = std::min(end, watermark_ + options_.segment_days);
    ingest_segment(watermark_, d1);
    ++segments_;
    maybe_checkpoint();
  }
}

void MonitorEngine::ingest_segment(util::Day d0, util::Day d1) {
  const std::unique_ptr<PlatformSinks> merged =
      run_platform(*scenario_, options_.experiment.num_platform_shards, d0, d1);

  // Fold the segment's run-wide sink products into the persistent state.
  summary_.merge(std::move(merged->summary));
  truth_.merge(std::move(merged->truth_tracker));
  clause_stats_ += merged->clause_builder.stats();
  churn_fold_.absorb_unsealed(merged->churn_tracker.take_fold());

  // Drain the segment's canonical clause stream day by day: re-intern
  // each clause into the persistent pool (global first-use order ==
  // the serial run's, so CNFs are bit-identical to the batch path's),
  // advance the watermark, analyze, fold, publish.  The raw clauses
  // live only inside this scope — the retained gauge proves it.
  const tomo::PathPool& seg_pool = merged->clause_builder.pool();
  const std::vector<tomo::PathClause>& clauses = merged->clause_builder.clauses();
  retained_.add(static_cast<std::int64_t>(clauses.size()));
  std::size_t i = 0;
  for (util::Day day = d0; day < d1; ++day) {
    const std::size_t begin = i;
    while (i < clauses.size() && clauses[i].day == day) ++i;
    drain_day(seg_pool, clauses, begin, i, day);
  }
  retained_.sub(static_cast<std::int64_t>(clauses.size()));
  // Seal the churn windows the segment completed; open entries stay
  // O(pairs x windows straddling the boundary).
  churn_fold_.retire_before(d1);
}

void MonitorEngine::drain_day(const tomo::PathPool& seg_pool,
                              const std::vector<tomo::PathClause>& clauses,
                              std::size_t begin, std::size_t end, util::Day day) {
  for (std::size_t k = begin; k < end; ++k) {
    tomo::PathClause clause = clauses[k];
    clause.path_id = pool_.intern(seg_pool.get(clause.path_id));
    grouper_.add(pool_, clause);
    if (strip_.keep(pool_, clause)) ablation_grouper_.add(pool_, clause);
  }
  watermark_ = day + 1;

  const std::vector<tomo::TomoCnf> main_cnfs = grouper_.advance_watermark(day + 1);
  const std::vector<tomo::CnfVerdict> main_verdicts =
      analyze_batch(main_arenas_, main_cnfs, main_analysis_);
  for (std::size_t k = 0; k < main_cnfs.size(); ++k) {
    folds_.add_main(main_cnfs[k], main_verdicts[k]);
  }

  const std::vector<tomo::TomoCnf> ablation_cnfs = ablation_grouper_.advance_watermark(day + 1);
  const std::vector<tomo::CnfVerdict> ablation_verdicts =
      analyze_batch(ablation_arenas_, ablation_cnfs, ablation_analysis_);
  for (const tomo::CnfVerdict& v : ablation_verdicts) folds_.fig4.add(v);

  publish_report();
}

std::vector<tomo::CnfVerdict> MonitorEngine::analyze_batch(
    std::vector<tomo::CnfAnalyzer>& arenas, const std::vector<tomo::TomoCnf>& cnfs,
    const tomo::AnalysisOptions& options) {
  std::vector<tomo::CnfVerdict> out(cnfs.size());
  if (cnfs.empty()) return out;
  const std::size_t lanes = arenas.size();
  std::vector<std::vector<std::size_t>> lane_items(lanes);
  for (std::size_t i = 0; i < cnfs.size(); ++i) {
    lane_items[chain_lane(tomo::chain_of(cnfs[i].key), lanes)].push_back(i);
  }
  // One task per lane; a lane's arena is touched by exactly one task,
  // and out[i] slots keep the key-sorted batch order, so the verdict
  // vector is byte-identical for every lane count and interleaving.
  analysis_pool_.for_each_index(lanes, [&](unsigned, std::size_t lane) {
    for (const std::size_t i : lane_items[lane]) {
      out[i] = arenas[lane].analyze(cnfs[i], options);
    }
  });
  return out;
}

void MonitorEngine::publish_report() {
  auto report = std::make_shared<LiveReport>();
  report->watermark = watermark_;
  folds_.verdicts.counts().fill(*report);
  report->churn = churn_fold_.snapshot();
  server_.publish(std::move(report));
}

tomo::EngineStats MonitorEngine::main_pass_stats() const {
  tomo::EngineStats stats;
  for (const tomo::CnfAnalyzer& arena : main_arenas_) stats.add_arena(arena.session_stats());
  return stats;
}

tomo::EngineStats MonitorEngine::engine_now() const {
  tomo::EngineStats stats = stats_base_;
  for (const tomo::CnfAnalyzer& arena : main_arenas_) stats.add_arena(arena.session_stats());
  for (const tomo::CnfAnalyzer& arena : ablation_arenas_) {
    stats.add_arena(arena.session_stats());
  }
  stats.snapshots_published += server_.published();
  stats.snapshot_reads += server_.reads();
  stats.snapshot_stale_reads += server_.stale_reads();
  stats.snapshot_peak_readers =
      std::max(stats.snapshot_peak_readers, server_.peak_readers());
  return stats;
}

std::string MonitorEngine::checkpoint() const {
  util::ByteWriter w;
  pool_.save(w);
  grouper_.save(w);
  strip_.save(w);
  ablation_grouper_.save(w);
  churn_fold_.save(w);
  folds_.save(w);
  summary_.save(w);
  truth_.save(w);
  save_clause_stats(w, clause_stats_);
  save_engine_stats(w, engine_now());
  w.i64(segments_);
  return seal_checkpoint(fingerprint_, watermark_, w.take());
}

void MonitorEngine::checkpoint_to(const std::string& path) {
  write_checkpoint_file(path, checkpoint());
  last_checkpoint_ = watermark_;
  ++checkpoints_written_;
}

void MonitorEngine::maybe_checkpoint() {
  if (options_.checkpoint_path.empty() || options_.checkpoint_every <= 0) return;
  if (watermark_ - last_checkpoint_ < options_.checkpoint_every) return;
  checkpoint_to(options_.checkpoint_path);
}

void MonitorEngine::restore(const std::string& bytes) {
  if (watermark_ != 0 || segments_ != 0) {
    throw std::logic_error(
        "MonitorEngine::restore: only a freshly constructed monitor may restore");
  }
  const OpenedCheckpoint opened = open_checkpoint(bytes, fingerprint_);
  try {
    util::ByteReader r(opened.payload);
    pool_.load(r);
    grouper_.load(r);
    strip_.load(r);
    ablation_grouper_.load(r);
    churn_fold_.load(r);
    folds_.load(r);
    summary_.load(r);
    truth_.load(r);
    clause_stats_ = load_clause_stats(r);
    stats_base_ = load_engine_stats(r);
    segments_ = r.i64();
    r.expect_end();
  } catch (const util::SerdeError& e) {
    throw CheckpointError(std::string("checkpoint payload: ") + e.what());
  }
  watermark_ = opened.watermark;
  last_checkpoint_ = opened.watermark;
  // Resumed readers get a valid snapshot immediately, before the next
  // ingested day publishes a fresh one.
  if (watermark_ > 0) publish_report();
}

void MonitorEngine::restore_from(const std::string& path) {
  restore(read_checkpoint_file(path));
}

ExperimentResult MonitorEngine::finalize() {
  run_all();

  // Flush the trailing partial windows — exactly the complement of what
  // advance_watermark() emitted, so the emitted union equals the batch
  // build_cnfs() output.
  const std::vector<tomo::TomoCnf> main_cnfs = grouper_.flush();
  const std::vector<tomo::CnfVerdict> main_verdicts =
      analyze_batch(main_arenas_, main_cnfs, main_analysis_);
  for (std::size_t k = 0; k < main_cnfs.size(); ++k) {
    folds_.add_main(main_cnfs[k], main_verdicts[k]);
  }
  const std::vector<tomo::TomoCnf> ablation_cnfs = ablation_grouper_.flush();
  const std::vector<tomo::CnfVerdict> ablation_verdicts =
      analyze_batch(ablation_arenas_, ablation_cnfs, ablation_analysis_);
  for (const tomo::CnfVerdict& v : ablation_verdicts) folds_.fig4.add(v);

  churn_fold_.retire_before(num_days());
  publish_report();

  ExperimentResult result =
      finalize_experiment_result(*scenario_, options_.experiment, folds_, summary_,
                                 clause_stats_, truth_, churn_fold_.snapshot());
  result.engine_stats = engine_now();
  return result;
}

MonitorStats MonitorEngine::stats() const {
  MonitorStats stats;
  stats.watermark = watermark_;
  stats.segments_ingested = segments_;
  stats.checkpoints_written = checkpoints_written_;
  stats.open_main_windows = static_cast<std::int64_t>(grouper_.open_windows());
  stats.open_ablation_windows = static_cast<std::int64_t>(ablation_grouper_.open_windows());
  stats.churn_open_entries = static_cast<std::int64_t>(churn_fold_.open_window_entries());
  stats.retained_clauses_now = retained_.current();
  stats.retained_clauses_peak = retained_.peak();
  stats.gauge_underflows = retained_.underflows();
  // Replay the churn replica to the last ingested epoch (watermark only
  // grows, so the forward-only engine never needs to rewind).
  if (watermark_ > 0) {
    const std::int64_t epd = scenario_->platform().config().epochs_per_day;
    const std::int64_t last_epoch = static_cast<std::int64_t>(watermark_) * epd - 1;
    if (last_epoch > churn_probe_.epoch()) churn_probe_.advance_to(last_epoch);
  }
  stats.churn_failures = churn_probe_.total_failures();
  stats.churn_repairs = churn_probe_.total_repairs();
  stats.churn_links_down = churn_probe_.links_down();
  stats.engine = engine_now();
  return stats;
}

}  // namespace ct::analysis
