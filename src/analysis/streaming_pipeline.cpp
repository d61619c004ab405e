#include "analysis/streaming_pipeline.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "util/bounded_queue.h"
#include "util/hwm.h"
#include "util/thread_pool.h"

namespace ct::analysis {

namespace {

using tomo::EmittedCnf;
using tomo::TomoCnf;

/// Sentinel watermark of a finished shard: it will emit nothing more,
/// so it must never be the min.
constexpr util::Day kShardDone = std::numeric_limits<util::Day>::max();

/// One buffered churn observation awaiting the global watermark.
struct ChurnObs {
  util::Day day = 0;
  std::uint32_t pair = 0;
  std::uint64_t sig = 0;
};

/// Any-time bookkeeping: the verdict counts folded in release (emission)
/// order, plus the watermark marks that tie a sealed prefix to its
/// emission count and churn snapshot.  A mark fires — through the user's
/// on_report, serialized — exactly when the release counter reaches the
/// mark's emission count, i.e. when every CNF of the sealed prefix has
/// been analyzed and released; at that instant the folded counts are
/// exactly the prefix's.
class LiveState {
 public:
  explicit LiveState(std::function<void(const LiveReport&)> on_report)
      : on_report_(std::move(on_report)) {}

  bool marks_enabled() const { return static_cast<bool>(on_report_); }

  /// Producer side.  Declares that emissions [0, emitted) are exactly
  /// the CNFs of the prefix sealed by `watermark`.  Must be called
  /// before any emission >= `emitted` is pushed to the queue.
  void add_mark(util::Day watermark, std::uint64_t emitted, ChurnStats churn) {
    std::lock_guard<std::mutex> lock(mutex_);
    marks_.push_back(Mark{watermark, emitted, std::move(churn)});
    fire_ready_locked();
  }

  /// Release side (StreamingAnalyzer's ordered on_verdict).
  void count(const tomo::CnfVerdict& v) {
    std::lock_guard<std::mutex> lock(mutex_);
    counts_.add(v);
    ++released_;
    fire_ready_locked();
  }

  /// End of run: every emission is released, so every remaining mark
  /// fires; returns the final snapshot.
  LiveReport finish(util::Day final_watermark, ChurnStats final_churn) {
    std::lock_guard<std::mutex> lock(mutex_);
    fire_ready_locked();
    assert(marks_.empty());
    return report_locked(final_watermark, std::move(final_churn));
  }

 private:
  struct Mark {
    util::Day watermark = 0;
    std::uint64_t emitted = 0;
    ChurnStats churn;
  };

  void fire_ready_locked() {
    while (!marks_.empty() && marks_.front().emitted <= released_) {
      Mark mark = std::move(marks_.front());
      marks_.pop_front();
      if (on_report_) on_report_(report_locked(mark.watermark, std::move(mark.churn)));
    }
  }

  LiveReport report_locked(util::Day watermark, ChurnStats churn) const {
    LiveReport report;
    report.watermark = watermark;
    counts_.fill(report);
    report.churn = std::move(churn);
    return report;
  }

  std::function<void(const LiveReport&)> on_report_;
  std::mutex mutex_;
  std::uint64_t released_ = 0;
  LiveCounts counts_;
  std::deque<Mark> marks_;
};

/// The optional overlapped Figure-4 pass shared by both ingest modes:
/// sealed clauses run through the churn-strip filter into a second
/// streaming grouper whose CNFs feed a second analyzer queue.
struct AblationState {
  explicit AblationState(const StreamingOptions::Ablation& options,
                         std::size_t queue_capacity, const tomo::PathPool* pool)
      : queue(queue_capacity), grouper(options.build, pool) {}

  util::BoundedQueue<EmittedCnf> queue;
  tomo::ChurnStripFilter filter;
  tomo::StreamingCnfBuilder grouper;
  std::uint64_t seq = 0;
};

/// Merges the per-shard clause and churn streams into one
/// watermark-ordered stream feeding the single StreamingCnfBuilder, the
/// global ChurnFold, and (optionally) the ablation pass.
///
/// Each shard delivers its clauses and churn observations day by day
/// together with a watermark ("this shard will emit nothing below day w
/// anymore"); the global watermark is the min over shards, and only
/// data below it is folded — clauses sorted by Measurement::seq first,
/// so every window group and the ablation filter see the canonical
/// serial order and the emitted CNFs are bit-identical to the batch
/// path's.  Once a day is folded its buffered raw data is freed, so the
/// buffer holds only the days above the global watermark (the shard
/// skew), never the run.
class WatermarkCoordinator {
 public:
  WatermarkCoordinator(const iclab::Platform& platform,
                       const std::vector<iclab::ShardRange>& ranges,
                       const StreamingOptions& options,
                       util::BoundedQueue<EmittedCnf>& queue, ChurnFold& churn,
                       LiveState& live, util::HwmGauge& gauge)
      : horizon_(platform.config().num_days),
        grouper_(options.build, &pool_),
        queue_(queue),
        churn_(churn),
        live_(live),
        gauge_(gauge) {
    watermarks_.reserve(ranges.size());
    // A shard emits nothing below its day range, so its watermark
    // starts at day_begin, not 0 — later-range shards never hold the
    // global watermark at zero while earlier days finish.
    for (const auto& r : ranges) watermarks_.push_back(r.day_begin);
  }

  /// The shared interned pool every buffered clause resolves in; the
  /// ablation state borrows it for its grouper.
  const tomo::PathPool& shared_pool() const { return pool_; }
  /// Wires the optional ablation pass (must precede the first deliver).
  void set_ablation(AblationState* ablation) { ablation_ = ablation; }

  /// Pair index for the global churn fold, or ChurnFold::kNoPair for an
  /// endpoint the fold does not track.
  std::size_t pair_index_of(topo::AsId vantage, topo::AsId dest) const {
    return churn_.pair_of(vantage, dest);
  }

  /// Ingests `builder`'s clauses in absolute range [from, to), the
  /// shard's buffered churn observations, and raises shard `shard`'s
  /// watermark to `watermark`.  Called by the shard's own platform
  /// thread, so a blocked queue push back-pressures ingest.
  void deliver(std::size_t shard, util::Day watermark, const tomo::ClauseBuilder& builder,
               std::size_t from, std::size_t to, std::vector<ChurnObs> churn) {
    std::vector<EmittedCnf> emitted;
    std::vector<EmittedCnf> ablated;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const std::size_t offset = builder.retired_clauses();
      assert(from >= offset && to <= builder.clause_count());
      for (std::size_t i = from; i < to; ++i) {
        Entry entry;
        entry.seq = builder.seqs()[i - offset];
        entry.clause = builder.clauses()[i - offset];
        entry.clause.path_id = pool_.intern(builder.pool().get(entry.clause.path_id));
        buffer_[entry.clause.day].entries.push_back(std::move(entry));
        gauge_.add(1);
      }
      for (ChurnObs& obs : churn) buffer_[obs.day].churn.push_back(obs);
      if (watermark > watermarks_[shard]) watermarks_[shard] = watermark;
      const util::Day global = *std::min_element(watermarks_.begin(), watermarks_.end());
      // CNF construction stays under the lock: build_group reads pool_,
      // which concurrent deliver() calls append to (intern reallocates),
      // so emitting outside would race.  The expensive half — SAT — is
      // already on the analyzer threads, and emission is one map pass
      // per closed window.
      advance_locked(global, emitted, ablated);
    }
    // Push outside the lock: a full queue then stalls only this shard's
    // thread, not every thread touching the coordinator.
    for (EmittedCnf& tc : emitted) queue_.push(std::move(tc));
    for (EmittedCnf& tc : ablated) ablation_->queue.push(std::move(tc));
  }

  void shard_finished(std::size_t shard, const tomo::ClauseBuilder& builder,
                      std::size_t from, std::vector<ChurnObs> churn) {
    deliver(shard, kShardDone, builder, from, builder.clause_count(), std::move(churn));
  }

  /// End of run (all shards finished): folds everything still buffered,
  /// emits every still-open window, and closes the queues.
  void finish() {
    std::vector<EmittedCnf> emitted;
    std::vector<EmittedCnf> ablated;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      feed_locked(kShardDone);
      for (TomoCnf& tc : grouper_.flush()) emitted.push_back(EmittedCnf{seq_++, std::move(tc)});
      if (ablation_ != nullptr) {
        for (TomoCnf& tc : ablation_->grouper.flush()) {
          ablated.push_back(EmittedCnf{ablation_->seq++, std::move(tc)});
        }
      }
    }
    for (EmittedCnf& tc : emitted) queue_.push(std::move(tc));
    queue_.close();
    if (ablation_ != nullptr) {
      for (EmittedCnf& tc : ablated) ablation_->queue.push(std::move(tc));
      ablation_->queue.close();
    }
  }

 private:
  struct Entry {
    std::int64_t seq = 0;
    tomo::PathClause clause;
  };

  struct DayBuffer {
    std::vector<Entry> entries;
    std::vector<ChurnObs> churn;
  };

  /// Folds every buffered day below `global` in canonical order: days
  /// ascending, clauses seq-ascending within a day (stable, so a
  /// measurement's clauses keep their anomaly order).  seq is
  /// day-major, so this is exactly ascending-seq order overall.
  void feed_locked(util::Day global) {
    while (!buffer_.empty() && buffer_.begin()->first < global) {
      DayBuffer& day = buffer_.begin()->second;
      for (const ChurnObs& obs : day.churn) {
        churn_.observe(obs.pair, obs.day, obs.sig);
      }
      std::stable_sort(day.entries.begin(), day.entries.end(),
                       [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
      for (const Entry& e : day.entries) {
        grouper_.add(pool_, e.clause);
        if (ablation_ != nullptr && ablation_->filter.keep(pool_, e.clause)) {
          ablation_->grouper.add(pool_, e.clause);
        }
      }
      gauge_.sub(static_cast<std::int64_t>(day.entries.size()));
      buffer_.erase(buffer_.begin());
    }
  }

  void advance_locked(util::Day global, std::vector<EmittedCnf>& emitted,
                      std::vector<EmittedCnf>& ablated) {
    feed_locked(global);
    if (global != kShardDone) churn_.retire_before(global);
    // Capped at the horizon: the windows still open there leave only
    // through finish()'s flush(), which must strictly follow every
    // watermark-closed window.  Uncapped, the all-shards-done watermark
    // would emit them here, key-sorted among the windows it closes.
    const util::Day close_before = std::min(global, horizon_);
    for (TomoCnf& tc : grouper_.advance_watermark(close_before)) {
      emitted.push_back(EmittedCnf{seq_++, std::move(tc)});
    }
    if (ablation_ != nullptr) {
      for (TomoCnf& tc : ablation_->grouper.advance_watermark(close_before)) {
        ablated.push_back(EmittedCnf{ablation_->seq++, std::move(tc)});
      }
    }
    if (live_.marks_enabled() && global != kShardDone && global > last_mark_) {
      last_mark_ = global;
      live_.add_mark(global, seq_, churn_.snapshot());
    }
  }

  std::mutex mutex_;
  const util::Day horizon_;  // the platform's num_days
  std::vector<util::Day> watermarks_;  // per shard
  std::map<util::Day, DayBuffer> buffer_;
  tomo::PathPool pool_;
  tomo::StreamingCnfBuilder grouper_;
  util::BoundedQueue<EmittedCnf>& queue_;
  AblationState* ablation_ = nullptr;
  ChurnFold& churn_;
  LiveState& live_;
  util::HwmGauge& gauge_;
  std::uint64_t seq_ = 0;
  util::Day last_mark_ = 0;
};

/// Per-shard fanout member that watches the platform's measurement
/// clock.  Added *after* the shard's ClauseBuilder, so when the clock
/// callback fires the builder already holds every clause of the epoch;
/// it also records the shard's churn observations (the shard bundles'
/// own trackers are detached — churn folds globally behind the
/// min-merged watermark).  On each completed day it hands the new
/// clause range plus the day's churn to the coordinator, then retires
/// the delivered clauses when the run is in O(open windows) mode.
class ShardTap : public iclab::MeasurementSink {
 public:
  ShardTap(std::size_t shard, tomo::ClauseBuilder& builder, util::Day num_days,
           std::int32_t epochs_per_day, WatermarkCoordinator& coordinator,
           bool retire_clauses)
      : shard_(shard),
        builder_(builder),
        num_days_(num_days),
        epochs_per_day_(epochs_per_day),
        coordinator_(coordinator),
        retire_clauses_(retire_clauses) {}

  void on_measurement(const iclab::Measurement&) override {}

  void on_path(util::Day day, std::int32_t epoch, topo::AsId vantage, topo::AsId dest,
               const std::vector<topo::AsId>& path) override {
    // Mirror PathChurnTracker::on_path's guards exactly, or a sharded
    // run's Figure-3 fold could diverge from the serial tracker's.
    if (day < 0 || day >= num_days_ || epoch < 0 || epoch >= epochs_per_day_) return;
    const std::size_t pair = coordinator_.pair_index_of(vantage, dest);
    if (pair == ChurnFold::kNoPair) return;
    const std::uint64_t sig = path_signature(path);
    if (sig == 0) return;  // unreachable: never a distinct path
    day_churn_[day][static_cast<std::uint32_t>(pair)].insert(sig);
  }

  void on_epoch_complete(util::Day day, std::int32_t epoch) override {
    if (epoch != epochs_per_day_ - 1) return;  // day not complete yet
    coordinator_.deliver(shard_, day + 1, builder_, sent_, builder_.clause_count(),
                         take_churn_through(day));
    sent_ = builder_.clause_count();
    if (retire_clauses_) builder_.retire_clauses(sent_);
  }

  std::size_t sent() const { return sent_; }

  /// Flattens (and clears) the buffered churn of every day <= `day`.
  std::vector<ChurnObs> take_churn_through(util::Day day) {
    std::vector<ChurnObs> out;
    auto it = day_churn_.begin();
    while (it != day_churn_.end() && it->first <= day) {
      for (const auto& [pair, sigs] : it->second) {
        for (const std::uint64_t sig : sigs) out.push_back(ChurnObs{it->first, pair, sig});
      }
      it = day_churn_.erase(it);
    }
    return out;
  }

  std::vector<ChurnObs> take_all_churn() {
    return take_churn_through(std::numeric_limits<util::Day>::max());
  }

 private:
  std::size_t shard_;
  tomo::ClauseBuilder& builder_;
  util::Day num_days_;
  std::int32_t epochs_per_day_;
  WatermarkCoordinator& coordinator_;
  bool retire_clauses_;
  std::size_t sent_ = 0;
  /// Per-day distinct signatures per pair, delivered at day completion.
  std::map<util::Day, std::map<std::uint32_t, std::set<std::uint64_t>>> day_churn_;
};

/// Serial-ingest tap: the run's own ClauseBuilder groups windows
/// incrementally; this tap advances its watermark day by day, feeds the
/// ablation pass, seals the churn tracker, retires delivered clauses,
/// and registers the watermark marks for the any-time snapshots.
class SerialTap : public iclab::MeasurementSink {
 public:
  SerialTap(tomo::ClauseBuilder& builder, PathChurnTracker& churn,
            std::int32_t epochs_per_day, util::BoundedQueue<EmittedCnf>& queue,
            AblationState* ablation, LiveState& live, bool retire_clauses)
      : builder_(builder),
        churn_(churn),
        epochs_per_day_(epochs_per_day),
        queue_(queue),
        ablation_(ablation),
        live_(live),
        retire_clauses_(retire_clauses) {}

  void on_measurement(const iclab::Measurement&) override {}

  void on_epoch_complete(util::Day day, std::int32_t epoch) override {
    if (epoch != epochs_per_day_ - 1) return;  // day not complete yet
    std::vector<TomoCnf> emitted = builder_.advance_watermark(day + 1);
    std::vector<TomoCnf> ablated = feed_ablation(day + 1);
    churn_.retire_before(day + 1);
    if (retire_clauses_) builder_.retire_clauses(builder_.clause_count());
    if (live_.marks_enabled()) {
      live_.add_mark(day + 1, seq_ + emitted.size(), churn_.compute());
    }
    for (TomoCnf& tc : emitted) queue_.push(EmittedCnf{seq_++, std::move(tc)});
    for (TomoCnf& tc : ablated) {
      ablation_->queue.push(EmittedCnf{ablation_->seq++, std::move(tc)});
    }
  }

  /// End of run: emits every still-open window on both pipelines.
  void finish() {
    for (TomoCnf& tc : builder_.flush()) queue_.push(EmittedCnf{seq_++, std::move(tc)});
    queue_.close();
    if (ablation_ != nullptr) {
      feed_ablation_clauses();
      for (TomoCnf& tc : ablation_->grouper.flush()) {
        ablation_->queue.push(EmittedCnf{ablation_->seq++, std::move(tc)});
      }
      ablation_->queue.close();
    }
  }

 private:
  /// Runs the not-yet-fed clause suffix through the churn-strip filter
  /// into the ablation grouper (canonical order: the serial stream).
  void feed_ablation_clauses() {
    const std::size_t offset = builder_.retired_clauses();
    for (std::size_t i = fed_; i < builder_.clause_count(); ++i) {
      const tomo::PathClause& clause = builder_.clauses()[i - offset];
      if (ablation_->filter.keep(builder_.pool(), clause)) {
        ablation_->grouper.add(builder_.pool(), clause);
      }
    }
    fed_ = builder_.clause_count();
  }

  std::vector<TomoCnf> feed_ablation(util::Day complete_before) {
    if (ablation_ == nullptr) return {};
    feed_ablation_clauses();
    return ablation_->grouper.advance_watermark(complete_before);
  }

  tomo::ClauseBuilder& builder_;
  PathChurnTracker& churn_;
  std::int32_t epochs_per_day_;
  util::BoundedQueue<EmittedCnf>& queue_;
  AblationState* ablation_;
  LiveState& live_;
  bool retire_clauses_;
  std::size_t fed_ = 0;     // absolute clause index fed to the ablation
  std::uint64_t seq_ = 0;   // main-pipeline emission sequence
};

/// Ablation analyzer: completion-order release (the Figure-4 fold is
/// order-independent), retaining results only on request.
std::unique_ptr<tomo::StreamingAnalyzer> make_ablation_analyzer(
    const StreamingOptions::Ablation& options, util::BoundedQueue<EmittedCnf>& queue) {
  tomo::StreamingAnalyzerOptions analyzer_options;
  analyzer_options.analysis = options.analysis;
  analyzer_options.retain_results = options.retain_results;
  analyzer_options.ordered = false;
  if (options.on_verdict) {
    analyzer_options.on_verdict = [callback = options.on_verdict](
                                      std::uint64_t /*seq*/, const TomoCnf& /*cnf*/,
                                      const tomo::CnfVerdict& verdict) { callback(verdict); };
  }
  return std::make_unique<tomo::StreamingAnalyzer>(queue, std::move(analyzer_options));
}

}  // namespace

StreamingResult run_streaming_pipeline(Scenario& scenario, const StreamingOptions& options) {
  iclab::Platform& platform = scenario.platform();
  const unsigned shards = options.num_platform_shards == 0
                              ? util::ThreadPool::hardware_threads()
                              : options.num_platform_shards;
  const std::int32_t epochs_per_day = platform.config().epochs_per_day;

  util::HwmGauge gauge;
  LiveState live(options.on_report);

  util::BoundedQueue<EmittedCnf> queue(options.queue_capacity);
  std::unique_ptr<AblationState> ablation;

  // Main analyzer: ordered release drives the user's on_verdict and the
  // live counts in emitted-CNF order, for any worker count.
  tomo::StreamingAnalyzerOptions analyzer_options;
  analyzer_options.analysis = options.analysis;
  analyzer_options.retain_results = options.retain_results;
  analyzer_options.ordered = true;
  analyzer_options.on_verdict = [&options, &live](std::uint64_t /*seq*/,
                                                  const TomoCnf& cnf,
                                                  const tomo::CnfVerdict& verdict) {
    if (options.on_verdict) options.on_verdict(cnf, verdict);
    live.count(verdict);
  };
  tomo::StreamingAnalyzer analyzer(queue, analyzer_options);

  std::unique_ptr<tomo::StreamingAnalyzer> ablation_analyzer;

  // If ingest throws, close the queues before the analyzers join their
  // workers — otherwise they would wait on the open queues forever.
  struct QueueCloser {
    util::BoundedQueue<EmittedCnf>& queue;
    std::unique_ptr<AblationState>& ablation;
    ~QueueCloser() {
      queue.close();
      if (ablation != nullptr) ablation->queue.close();
    }
  } closer{queue, ablation};

  StreamingResult result;
  ChurnStats final_churn;
  if (shards <= 1) {
    auto sinks = std::make_unique<PlatformSinks>(scenario);
    sinks->clause_builder.start_streaming(options.build);
    sinks->clause_builder.set_retained_gauge(&gauge);
    if (options.ablation) {
      ablation = std::make_unique<AblationState>(*options.ablation, options.queue_capacity,
                                                 &sinks->clause_builder.pool());
      ablation_analyzer = make_ablation_analyzer(*options.ablation, ablation->queue);
    }
    SerialTap tap(sinks->clause_builder, sinks->churn_tracker, epochs_per_day, queue,
                  ablation.get(), live, !options.retain_clauses);
    sinks->fanout.add(&tap);
    platform.run(sinks->fanout);
    tap.finish();
    sinks->fanout.remove(&tap);  // the tap dies with this frame
    final_churn = sinks->churn_tracker.compute();
    result.sinks = std::move(sinks);
  } else {
    // Shard bundles carry no attached churn tracker: churn folds
    // globally behind the min-merged watermark (a shard-local tracker
    // could not seal a window straddling its day boundary).
    ShardPlan plan = plan_shard_sinks(scenario, shards, /*attach_churn=*/false);
    ChurnFold churn_fold(scenario.graph(), platform.vantages(), platform.dest_ases(),
                         platform.config().num_days, epochs_per_day);
    // The coordinator owns the shared pool the ablation borrows, so
    // construct it first, then the ablation state against its pool.
    WatermarkCoordinator coordinator(platform, plan.ranges, options, queue, churn_fold,
                                     live, gauge);
    if (options.ablation) {
      ablation = std::make_unique<AblationState>(*options.ablation, options.queue_capacity,
                                                 &coordinator.shared_pool());
      coordinator.set_ablation(ablation.get());
      ablation_analyzer = make_ablation_analyzer(*options.ablation, ablation->queue);
    }

    std::vector<std::unique_ptr<ShardTap>> taps;
    taps.reserve(plan.ranges.size());
    for (std::size_t i = 0; i < plan.ranges.size(); ++i) {
      plan.sinks[i]->clause_builder.set_retained_gauge(&gauge);
      taps.push_back(std::make_unique<ShardTap>(i, plan.sinks[i]->clause_builder,
                                                platform.config().num_days, epochs_per_day,
                                                coordinator, !options.retain_clauses));
      plan.sinks[i]->fanout.add(taps.back().get());
    }

    // run_shards would not tell us when an individual shard finishes,
    // so drive run_shard per task: each completion immediately raises
    // that shard's watermark to "done".
    util::ThreadPool pool(plan.workers);
    pool.for_each_index(plan.ranges.size(), [&](unsigned /*worker*/, std::size_t i) {
      platform.run_shard(plan.sinks[i]->fanout, plan.ranges[i], plan.route_cache.get());
      coordinator.shard_finished(i, plan.sinks[i]->clause_builder, taps[i]->sent(),
                                 taps[i]->take_all_churn());
      if (!options.retain_clauses) {
        plan.sinks[i]->clause_builder.retire_clauses(
            plan.sinks[i]->clause_builder.clause_count());
      }
    });
    coordinator.finish();

    final_churn = churn_fold.snapshot();

    // The taps die with this frame; detach them before the sink
    // bundles escape.
    for (std::size_t i = 0; i < plan.sinks.size(); ++i) {
      plan.sinks[i]->fanout.remove(taps[i].get());
    }
    result.sinks = merge_shard_sinks(std::move(plan.sinks));
    result.sinks->churn_tracker.adopt(std::move(churn_fold));
  }

  tomo::StreamingAnalyzer::Result analyzed = analyzer.finish();
  result.cnfs = std::move(analyzed.cnfs);
  result.verdicts = std::move(analyzed.verdicts);
  result.engine_stats = analyzed.stats;
  if (ablation_analyzer != nullptr) {
    tomo::StreamingAnalyzer::Result ablated = ablation_analyzer->finish();
    result.ablation_cnfs = std::move(ablated.cnfs);
    result.ablation_verdicts = std::move(ablated.verdicts);
    result.ablation_stats = ablated.stats;
  }

  result.memory.peak_retained_clauses = gauge.peak();
  result.memory.final_retained_clauses = gauge.current();
  result.memory.total_clauses = result.sinks->clause_builder.stats().clauses;
  result.memory.gauge_underflows = gauge.underflows();
  result.sinks->clause_builder.set_retained_gauge(nullptr);

  result.final_report = live.finish(platform.config().num_days, std::move(final_churn));
  return result;
}

}  // namespace ct::analysis
