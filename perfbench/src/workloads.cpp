#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/checkpoint.h"
#include "analysis/live_report.h"
#include "analysis/platform_sinks.h"
#include "bgp/churn.h"
#include "bgp/routing.h"
#include "censor/regime.h"
#include "sat/backend.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using ct::analysis::ExperimentFolds;
using ct::analysis::ExperimentOptions;
using ct::analysis::ExperimentResult;
using ct::analysis::MonitorEngine;
using ct::analysis::MonitorOptions;
using ct::analysis::Scenario;
using ct::analysis::ScenarioConfig;
using ct::tomo::CnfVerdict;
using ct::tomo::EngineStats;
using ct::tomo::TomoCnf;

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer figure the traced run reports, in table order.
constexpr LayerMetric kLayerMetrics[] = {
    {"iclab.platform_s", "s"},
    {"iclab.measurements", "count"},
    {"iclab.path_events", "count"},
    {"bgp.route_tables_s", "s"},
    {"bgp.route_table_sets", "count"},
    {"net.infer_s", "s"},
    {"tomo.clause_sink_s", "s"},
    {"tomo.clauses", "count"},
    {"tomo.usable_ratio", "ratio"},
    {"analysis.churn_sink_s", "s"},
    {"analysis.summary_sink_s", "s"},
    {"analysis.truth_sink_s", "s"},
    {"tomo.build_cnfs_s", "s"},
    {"tomo.cnfs", "count"},
    {"tomo.strip_s", "s"},
    {"tomo.ablation_build_cnfs_s", "s"},
    {"tomo.ablation_cnfs", "count"},
    {"sat.analyze_main_s", "s"},
    {"sat.analyze_ablation_s", "s"},
    {"sat.analyze_1thread_s", "s"},
    {"sat.cnfs_per_s", "cnf/s"},
    {"sat.solve_calls", "count"},
    {"sat.cnf_loads", "count"},
    {"sat.delta_loads", "count"},
    {"sat.models_found", "count"},
    {"sat.unitprop_served_ratio", "ratio"},
    {"analysis.fold_s", "s"},
    {"analysis.churn_compute_s", "s"},
    {"analysis.finalize_s", "s"},
    {"analysis.report_bytes", "bytes"},
    {"analysis.run_until_s", "s"},
    {"analysis.day_step_p50_ms", "ms"},
    {"analysis.checkpoint_ms", "ms"},
    {"analysis.checkpoint_write_ms", "ms"},
    {"analysis.checkpoint_bytes", "bytes"},
    {"analysis.restore_ms", "ms"},
    {"analysis.monitor_finalize_ms", "ms"},
    {"analysis.retained_clauses_peak", "count"},
    {"analysis.open_windows_peak", "count"},
    {"analysis.churn_open_entries_peak", "count"},
    {"analysis.monitor_delta_loads", "count"},
    {"analysis.monitor_fresh_load_ratio", "ratio"},
    {"trace.overhead_s", "s"},
};

/// Set-ups timed before the first pass and again after every pass when
/// set-up is cheap (`year`, `live`); the median of all is reported.  A
/// set-up takes about 2 ms, and timed only at the start of a run it
/// caught whatever state the host's vCPU was in for those 50 ms.
constexpr int kCheapSetups = 25;
/// Corpus builds per solve run (each is a full platform run).
constexpr int kCorpusSetups = 3;
/// Timed rounds per solve run at least (a round is one pass per CPU).
constexpr int kMinSolveRounds = 3;
/// The solve workload drops one in this many CNF chains, drawn by seed.
constexpr std::uint64_t kSolveDropOneIn = 10;

double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

class Fnv64 {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string digest_of(const std::string& bytes) {
  Fnv64 h;
  h.bytes(bytes.data(), bytes.size());
  return h.hex();
}

void digest_ids(Fnv64& h, const std::vector<ct::topo::AsId>& ids) {
  h.pod(static_cast<std::uint64_t>(ids.size()));
  for (const ct::topo::AsId id : ids) h.pod(id);
}

void digest_verdicts(Fnv64& h, const std::vector<CnfVerdict>& verdicts) {
  h.pod(static_cast<std::uint64_t>(verdicts.size()));
  for (const CnfVerdict& v : verdicts) {
    h.pod(v.key.url_id);
    h.pod(static_cast<std::uint8_t>(v.key.anomaly));
    h.pod(static_cast<std::uint8_t>(v.key.granularity));
    h.pod(v.key.window);
    h.pod(static_cast<std::uint64_t>(v.num_vars));
    h.pod(static_cast<std::int32_t>(v.solution_class));
    h.pod(v.capped_count);
    digest_ids(h, v.censors);
    digest_ids(h, v.potential_censors);
    digest_ids(h, v.definite_noncensors);
    h.pod(v.reduction_fraction);
  }
}

/// Digest of a main pass plus its Figure-4 ablation pass.
std::string verdict_digest(const std::vector<CnfVerdict>& main,
                           const std::vector<CnfVerdict>& ablation) {
  Fnv64 h;
  digest_verdicts(h, main);
  digest_verdicts(h, ablation);
  return h.hex();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::int64_t ablation_cnfs(const ExperimentResult& result) {
  std::int64_t total = 0;
  for (const auto& [granularity, counts] : result.fig4.solution_counts) total += counts.total();
  return total;
}

std::uint64_t loads(const EngineStats& s) { return s.cnf_loads + s.delta_loads; }
std::uint64_t conserved_clauses(const EngineStats& s) {
  return s.fresh_clauses + s.clauses_reused + s.clauses_added;
}
std::uint64_t clause_sum(const std::vector<TomoCnf>& cnfs) {
  std::uint64_t sum = 0;
  for (const TomoCnf& c : cnfs) sum += c.cnf.clauses.size();
  return sum;
}

/// Median duration of the spans named `name` (0 if there are none).
double median_span(const Tracer& tr, const std::string& name) {
  std::vector<double> d;
  for (const Tracer::Span& s : tr.spans()) {
    if (s.name == name) d.push_back(s.end_s - s.start_s);
  }
  return d.empty() ? 0.0 : median(d);
}

std::string str(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Output checks and the attempted/failed operation tally.  A named
/// check fails if any of its evaluations fails; an operation fails if
/// any check evaluated for it fails.
class Tally {
 public:
  explicit Tally(RunResult& r) : r_(r) {}

  bool check(const std::string& name, bool ok, const std::string& detail) {
    auto it = std::find_if(r_.checks.begin(), r_.checks.end(),
                           [&](const Check& c) { return c.name == name; });
    if (it == r_.checks.end()) {
      r_.checks.push_back(Check{name, true, ""});
      it = std::prev(r_.checks.end());
    }
    if (!ok && it->ok) {
      it->ok = false;
      it->detail = detail;
    }
    return ok;
  }

  void op(bool ok) {
    ++r_.attempted;
    if (!ok) ++r_.failed;
  }

 private:
  RunResult& r_;
};

/// Pins the calling thread to each CPU the process may run on, in turn,
/// and restores the original mask when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Number of CPUs in a rotation (1 when the mask is unreadable).
  std::size_t size() const { return std::max<std::size_t>(cpus_.size(), 1); }

  /// Pins the calling thread to the `i`-th allowed CPU.
  void pin(std::size_t i) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// Times `make` `repeats` times and appends the times to `samples`; the
/// last product is kept in `out`.
template <typename T, typename Make>
void time_setups(int repeats, std::unique_ptr<T>& out, Make make, std::vector<double>& samples) {
  for (int i = 0; i < repeats; ++i) {
    out.reset();
    const Clock::time_point t0 = Clock::now();
    out = make();
    samples.push_back(since(t0));
  }
}

/// Times `make` `repeats` times and returns the median; the last
/// product is kept in `out`.
template <typename T, typename Make>
double timed_setup(int repeats, std::unique_ptr<T>& out, Make make) {
  std::vector<double> samples;
  time_setups(repeats, out, make, samples);
  return median(samples);
}

/// The end-to-end metrics every workload reports.  `latencies_s` holds
/// one sample per simulated day: the time until that day's results were
/// readable.
void end_to_end(RunResult& r, int days, double year_s, double ingest_s,
                const std::vector<double>& latencies_s, double cnfs, double setup_s) {
  r.metrics.push_back({"year_s", year_s, "s"});
  r.metrics.push_back({"days_per_s", static_cast<double>(days) / ingest_s, "day/s"});
  r.metrics.push_back({"day_latency_p50_ms", 1e3 * percentile(latencies_s, 0.50), "ms"});
  r.metrics.push_back({"day_latency_p95_ms", 1e3 * percentile(latencies_s, 0.95), "ms"});
  r.metrics.push_back({"setup_s", setup_s, "s"});
  r.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  r.table.push_back("day latency samples: " + std::to_string(latencies_s.size()) +
                    "; CNFs analyzed per pass: " + str(cnfs) + " (cnfs_per_s " +
                    str(cnfs / year_s) + " cnf/s)");
}

/// A batch pass makes every day of the horizon readable at once, when
/// the pass ends: each pass contributes `days` samples of its wall time.
std::vector<double> batch_latencies(const std::vector<double>& pass_s, int days) {
  std::vector<double> out;
  for (const double p : pass_s) out.insert(out.end(), static_cast<std::size_t>(days), p);
  return out;
}

/// The live workload's set-up: a world and a monitor over it.
struct LiveSetup {
  LiveSetup(const ScenarioConfig& cfg, const MonitorOptions& mopts)
      : scenario(cfg), monitor(std::make_unique<MonitorEngine>(scenario, mopts)) {}
  Scenario scenario;
  std::unique_ptr<MonitorEngine> monitor;
};

struct Corpus {
  std::vector<TomoCnf> main;
  std::vector<TomoCnf> ablation;
};

/// The year's CNF corpus exactly as run_experiment builds it: all four
/// granularities for the main pass, and the churn-stripped Figure-4
/// CNFs at the Figure-1 granularities.
std::unique_ptr<Corpus> build_corpus(Scenario& scenario, const ExperimentOptions& opts) {
  auto corpus = std::make_unique<Corpus>();
  const std::unique_ptr<ct::analysis::PlatformSinks> sinks =
      ct::analysis::run_platform(scenario, opts.num_platform_shards);
  const ct::tomo::PathPool& pool = sinks->clause_builder.pool();
  const std::vector<ct::tomo::PathClause>& clauses = sinks->clause_builder.clauses();
  corpus->main = ct::tomo::build_cnfs(pool, clauses);
  ct::tomo::CnfBuildOptions build;
  build.granularities = opts.fig1_granularities;
  corpus->ablation = ct::tomo::build_cnfs(pool, ct::tomo::strip_path_churn(pool, clauses), build);
  return corpus;
}

ct::tomo::AnalysisOptions pass_options(const ExperimentOptions& opts, bool resolve_counts,
                                       unsigned threads) {
  ct::tomo::AnalysisOptions a = opts.analysis;
  a.resolve_counts = resolve_counts;
  a.num_threads = threads;
  return a;
}

/// Loads and clause-conservation checks for one analysis pass.
bool check_pass(Tally& t, const std::string& prefix, const EngineStats& stats,
                const std::vector<TomoCnf>& cnfs) {
  bool ok = t.check(prefix + ".loads_equal_cnfs", loads(stats) == cnfs.size(),
                    "cnf_loads + delta_loads = " + std::to_string(loads(stats)) + " vs " +
                        std::to_string(cnfs.size()) + " CNFs");
  const std::uint64_t expected = clause_sum(cnfs);
  ok &= t.check(prefix + ".clause_conservation", conserved_clauses(stats) == expected,
                "fresh + reused + added = " + std::to_string(conserved_clauses(stats)) +
                    " vs sum |clauses| = " + std::to_string(expected));
  return ok;
}

/// Compares `digest` with the stored reference; no check without one.
bool check_reference(Tally& t, const std::string& name, const std::string& reference,
                     const std::string& digest) {
  if (reference.empty()) return true;
  return t.check(name, reference == digest, "digest " + digest + " vs reference " + reference);
}

/// Whether the solve workload keeps the chain of `key` under `seed`.
/// Whole (URL, anomaly, granularity) chains are kept or dropped, so the
/// kept windows of a chain stay adjacent for delta loading.
bool solve_keeps(const ct::tomo::CnfKey& key, std::uint64_t seed) {
  std::uint64_t h = ct::util::mix64(seed, static_cast<std::uint32_t>(key.url_id));
  h = ct::util::mix64(h, (static_cast<std::uint64_t>(key.anomaly) << 8) |
                             static_cast<std::uint64_t>(key.granularity));
  return h % kSolveDropOneIn != 0;
}

std::string checkpoint_path(const RunConfig& rc) {
  return rc.work_dir + "/live-" + std::to_string(::getpid()) + ".ckpt";
}

}  // namespace

ScenarioConfig scenario_config(const RunConfig& rc) {
  ScenarioConfig cfg =
      rc.scenario == "small" ? ct::analysis::small_scenario() : ct::analysis::default_scenario();
  // The solve workload's corpus always comes from the default world: SAT
  // cost per CNF differs by up to 2.5x between worlds, so its seed draws
  // chains of one corpus instead (see run_solve).
  if (rc.workload != "solve") cfg.seed = rc.seed;
  cfg.regime = ct::censor::RegimeConfig{};
  cfg.regime.regime = ct::censor::ScenarioRegime::kBaseline;
  cfg.platform.num_days = rc.days;
  return cfg;
}

ExperimentOptions experiment_options() {
  ExperimentOptions o;
  o.analysis.count_cap = 6;
  o.analysis.resolve_counts = true;  // overridden per pass
  o.analysis.num_threads = kSatThreads;
  o.analysis.backend = ct::sat::BackendSelector{};
  o.analysis.backend.mode = ct::sat::BackendSelector::Mode::kAuto;
  o.analysis.backend.portfolio_width = 0;
  o.analysis.delta = ct::sat::DeltaPolicy{};
  o.analysis.delta.enabled = true;
  o.num_threads = kSatThreads;
  o.num_platform_shards = kPlatformShards;
  o.streaming = false;
  o.min_support = 2;
  o.fig1_granularities = {ct::util::Granularity::kDay, ct::util::Granularity::kWeek,
                          ct::util::Granularity::kMonth};
  return o;
}

MonitorOptions monitor_options() {
  MonitorOptions m;
  m.experiment = experiment_options();
  m.segment_days = 1;
  m.checkpoint_every = 0;  // checkpoints are written explicitly, every kCheckpointEveryDays
  m.checkpoint_path.clear();
  return m;
}

// --- year --------------------------------------------------------------

RunResult run_year(const RunConfig& rc) {
  RunResult r;
  Tally t(r);
  const ScenarioConfig cfg = scenario_config(rc);
  const auto make = [&] { return std::make_unique<Scenario>(cfg); };
  std::unique_ptr<Scenario> scenario;
  std::vector<double> setups;
  time_setups(kCheapSetups, scenario, make, setups);
  const ExperimentOptions opts = experiment_options();

  std::vector<double> pass_s;
  double cnfs = 0.0;
  const Clock::time_point start = Clock::now();
  while (pass_s.empty() || since(start) < rc.seconds) {
    const Clock::time_point t0 = Clock::now();
    const ExperimentResult result = ct::analysis::run_experiment(*scenario, opts);
    const std::string bytes = ct::analysis::serialize_report(result);
    pass_s.push_back(since(t0));

    const std::string digest = digest_of(bytes);
    if (r.report_digest.empty()) r.report_digest = digest;
    bool ok = t.check("year.digest_stable", digest == r.report_digest,
                      "pass digest " + digest + " vs first pass " + r.report_digest);
    ok &= check_reference(t, "year.report_reference", rc.reference_report, digest);
    ok &= t.check("year.loads_equal_cnfs",
                  loads(result.engine_stats) == static_cast<std::uint64_t>(result.total_cnfs),
                  "main-pass loads " + std::to_string(loads(result.engine_stats)) + " vs " +
                      std::to_string(result.total_cnfs) + " CNFs");
    t.op(ok);
    cnfs = static_cast<double>(result.total_cnfs + ablation_cnfs(result));
    std::unique_ptr<Scenario> spare;
    time_setups(kCheapSetups, spare, make, setups);
  }

  const double year_s = median(pass_s);
  end_to_end(r, rc.days, year_s, year_s, batch_latencies(pass_s, rc.days), cnfs,
             median(setups));
  r.table.push_back("passes: " + std::to_string(pass_s.size()));
  return r;
}

// --- live --------------------------------------------------------------

RunResult run_live(const RunConfig& rc) {
  RunResult r;
  Tally t(r);
  const ScenarioConfig cfg = scenario_config(rc);
  const MonitorOptions mopts = monitor_options();
  const auto make = [&] { return std::make_unique<LiveSetup>(cfg, mopts); };
  std::unique_ptr<LiveSetup> setup;
  std::vector<double> setups;
  time_setups(kCheapSetups, setup, make, setups);
  Scenario* const scenario = &setup->scenario;
  std::unique_ptr<MonitorEngine> monitor = std::move(setup->monitor);
  const std::string ckpt = checkpoint_path(rc);
  const int min_passes = (kMinLatencySamples + rc.days - 1) / rc.days;

  std::vector<double> pass_s, ingest_s, latencies_s;
  double cnfs = 0.0;
  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass < min_passes || since(start) < rc.seconds; ++pass) {
    if (pass > 0) monitor = std::make_unique<MonitorEngine>(*scenario, mopts);
    MonitorEngine& m = *monitor;
    const Clock::time_point t0 = Clock::now();
    ct::util::Day last_seen = 0;
    for (ct::util::Day w = 0; w < rc.days; ++w) {
      const Clock::time_point s0 = Clock::now();
      m.run_until(w + 1);
      if ((w + 1) % kCheckpointEveryDays == 0) m.checkpoint_to(ckpt);
      const std::shared_ptr<const ct::analysis::LiveReport> snap = m.reports().snapshot();
      latencies_s.push_back(since(s0));
      const ct::util::Day seen = snap == nullptr ? -1 : snap->watermark;
      bool ok = t.check("live.watermark_advances", seen == w + 1,
                        "after run_until(" + std::to_string(w + 1) + ") the snapshot reads " +
                            std::to_string(seen));
      ok &= t.check("live.watermark_monotone", seen >= last_seen,
                    "watermark went from " + std::to_string(last_seen) + " to " +
                        std::to_string(seen));
      last_seen = std::max(last_seen, seen);
      t.op(ok);
    }
    ingest_s.push_back(since(t0));
    const ExperimentResult result = m.finalize();
    const std::string bytes = ct::analysis::serialize_report(result);
    pass_s.push_back(since(t0));

    const std::string digest = digest_of(bytes);
    if (r.report_digest.empty()) r.report_digest = digest;
    bool ok = t.check("live.digest_stable", digest == r.report_digest,
                      "pass digest " + digest + " vs first pass " + r.report_digest);
    ok &= check_reference(t, "live.report_reference", rc.reference_report, digest);
    const std::int64_t analyzed = result.total_cnfs + ablation_cnfs(result);
    ok &= t.check("live.loads_equal_cnfs",
                  loads(result.engine_stats) == static_cast<std::uint64_t>(analyzed),
                  "monitor loads " + std::to_string(loads(result.engine_stats)) + " vs " +
                      std::to_string(analyzed) + " CNFs");
    t.op(ok);
    cnfs = static_cast<double>(analyzed);
    std::unique_ptr<LiveSetup> spare;
    time_setups(kCheapSetups, spare, make, setups);
  }
  const double year_s = median(pass_s);
  end_to_end(r, rc.days, year_s, median(ingest_s), latencies_s, cnfs, median(setups));
  std::remove(ckpt.c_str());

  // Monitor == batch: the batch report of the same seed and days.
  const ExperimentResult batch = ct::analysis::run_experiment(*scenario, experiment_options());
  const std::string batch_digest = digest_of(ct::analysis::serialize_report(batch));
  t.op(t.check("live.monitor_equals_batch", batch_digest == r.report_digest,
               "monitor " + r.report_digest + " vs batch " + batch_digest));
  r.table.push_back("passes: " + std::to_string(pass_s.size()) + " x " +
                    std::to_string(rc.days) + " days, checkpoint every " +
                    std::to_string(kCheckpointEveryDays) + " days");
  return r;
}

// --- solve -------------------------------------------------------------

RunResult run_solve(const RunConfig& rc) {
  RunResult r;
  Tally t(r);
  const ScenarioConfig cfg = scenario_config(rc);
  const ExperimentOptions opts = experiment_options();
  std::unique_ptr<Corpus> corpus;
  const double setup_s = timed_setup(kCorpusSetups, corpus, [&] {
    Scenario scenario(cfg);
    std::unique_ptr<Corpus> c = build_corpus(scenario, opts);
    const auto dropped = [&](const TomoCnf& cnf) { return !solve_keeps(cnf.key, rc.seed); };
    std::erase_if(c->main, dropped);
    std::erase_if(c->ablation, dropped);
    return c;
  });
  const ct::tomo::AnalysisOptions main_opts = pass_options(opts, false, kSolveThreads);
  const ct::tomo::AnalysisOptions ablation_opts = pass_options(opts, true, kSolveThreads);
  const double cnfs = static_cast<double>(corpus->main.size() + corpus->ablation.size());

  // One pass; its operation is counted and its time returned.
  const auto pass = [&] {
    const Clock::time_point t0 = Clock::now();
    EngineStats main_stats, ablation_stats;
    const std::vector<CnfVerdict> main =
        ct::tomo::analyze_cnfs(corpus->main, main_opts, &main_stats);
    const std::vector<CnfVerdict> ablation =
        ct::tomo::analyze_cnfs(corpus->ablation, ablation_opts, &ablation_stats);
    ExperimentFolds folds(opts);
    for (std::size_t i = 0; i < main.size(); ++i) folds.add_main(corpus->main[i], main[i]);
    for (const CnfVerdict& v : ablation) folds.fig4.add(v);
    const double pass_s = since(t0);

    const std::string digest = verdict_digest(main, ablation);
    if (r.verdict_digest.empty()) r.verdict_digest = digest;
    bool ok = t.check("solve.digest_stable", digest == r.verdict_digest,
                      "pass digest " + digest + " vs first pass " + r.verdict_digest);
    ok &= check_reference(t, "solve.verdict_reference", rc.reference_verdicts, digest);
    ok &= check_pass(t, "solve.main", main_stats, corpus->main);
    ok &= check_pass(t, "solve.ablation", ablation_stats, corpus->ablation);
    ok &= t.check("solve.folded_all",
                  folds.verdicts.total() == static_cast<std::int64_t>(main.size()),
                  "folded " + std::to_string(folds.verdicts.total()) + " of " +
                      std::to_string(main.size()) + " verdicts");
    t.op(ok);
    return pass_s;
  };
  // The host's vCPUs change speed independently of each other, and a
  // single thread stays on one of them for a whole run, so a run would
  // measure whichever vCPU it landed on.  A round pins one pass to each
  // allowed CPU in turn; its time is their mean pass time.  One untimed
  // round warms every CPU first.
  const CpuRotation cpus;
  const auto round = [&] {
    double sum = 0.0;
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      cpus.pin(i);
      sum += pass();
    }
    return sum / static_cast<double>(cpus.size());
  };
  round();
  std::vector<double> round_s;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(round_s.size()) < kMinSolveRounds || since(start) < rc.seconds) {
    round_s.push_back(round());
  }
  const double year_s = median(round_s);
  end_to_end(r, rc.days, year_s, year_s, batch_latencies(round_s, rc.days), cnfs, setup_s);
  r.table.push_back("rounds: " + std::to_string(round_s.size()) + " x " +
                    std::to_string(cpus.size()) + " CPUs, corpus: " +
                    std::to_string(corpus->main.size()) + " main + " +
                    std::to_string(corpus->ablation.size()) + " ablation CNFs");
  return r;
}

// --- traced run --------------------------------------------------------

RunResult run_traced(const RunConfig& rc) {
  RunResult r;
  Tally t(r);
  Tracer tr;
  const ScenarioConfig cfg = scenario_config(rc);
  const ExperimentOptions opts = experiment_options();

  ScopedSpan setup_span(tr, "setup.scenario");
  Scenario scenario(cfg);
  setup_span.close();
  const ct::iclab::Platform& platform = scenario.platform();

  // The same pipeline untraced, run first so that both runs find a warm
  // heap: its report is the byte oracle for the rebuild, and the
  // wall-time difference is the tracing overhead.
  std::string untraced_bytes;
  {
    ScopedSpan span(tr, "untraced.run_experiment");
    untraced_bytes =
        ct::analysis::serialize_report(ct::analysis::run_experiment(scenario, opts));
  }
  const double untraced_s = tr.total("untraced.run_experiment");

  // A. The batch pipeline, rebuilt from its public calls.
  ScopedSpan pipeline(tr, "pipeline");
  ct::iclab::DatasetSummary summary(scenario.graph());
  ct::tomo::ClauseBuilder clause_builder(scenario.ip2as());
  ct::analysis::PathChurnTracker churn_tracker(scenario.graph(), platform.vantages(),
                                               platform.dest_ases(), platform.config().num_days,
                                               platform.config().epochs_per_day);
  ct::analysis::TruthTracker truth_tracker(scenario.registry(), platform);
  InferProbeSink probe(scenario.ip2as());
  TimedSink timed_summary(summary), timed_clauses(clause_builder), timed_churn(churn_tracker),
      timed_truth(truth_tracker), timed_probe(probe);
  ct::iclab::SinkFanout fanout;
  for (TimedSink* s : {&timed_summary, &timed_clauses, &timed_churn, &timed_truth, &timed_probe}) {
    fanout.add(s);
  }
  {
    ScopedSpan span(tr, "iclab.platform_run");
    platform.run(fanout);
  }
  const double sinks_s = timed_summary.busy_s() + timed_clauses.busy_s() + timed_churn.busy_s() +
                         timed_truth.busy_s() + timed_probe.busy_s();
  tr.set("iclab.platform_s", tr.total("iclab.platform_run") - sinks_s);
  tr.set("iclab.measurements", static_cast<double>(probe.measurements()));
  tr.set("iclab.path_events", static_cast<double>(probe.path_events()));
  tr.set("net.infer_s", probe.infer_s());
  tr.set("tomo.clause_sink_s", timed_clauses.busy_s());
  tr.set("analysis.churn_sink_s", timed_churn.busy_s());
  tr.set("analysis.summary_sink_s", timed_summary.busy_s());
  tr.set("analysis.truth_sink_s", timed_truth.busy_s());
  const ct::tomo::ClauseBuildStats& clause_stats = clause_builder.stats();
  tr.set("tomo.clauses", static_cast<double>(clause_stats.clauses));
  tr.set("tomo.usable_ratio", static_cast<double>(clause_stats.usable_measurements) /
                                  static_cast<double>(clause_stats.measurements));

  const ct::tomo::PathPool& pool = clause_builder.pool();
  std::vector<TomoCnf> main_cnfs;
  {
    ScopedSpan span(tr, "tomo.build_cnfs");
    main_cnfs = ct::tomo::build_cnfs(pool, clause_builder.clauses());
  }
  EngineStats main_stats;
  std::vector<CnfVerdict> main_verdicts;
  {
    ScopedSpan span(tr, "sat.analyze_main");
    main_verdicts =
        ct::tomo::analyze_cnfs(main_cnfs, pass_options(opts, false, kSatThreads), &main_stats);
  }
  ExperimentFolds folds(opts);
  {
    ScopedSpan span(tr, "analysis.fold");
    for (std::size_t i = 0; i < main_cnfs.size(); ++i) folds.add_main(main_cnfs[i], main_verdicts[i]);
  }
  std::vector<ct::tomo::PathClause> stripped;
  {
    ScopedSpan span(tr, "tomo.strip");
    stripped = ct::tomo::strip_path_churn(pool, clause_builder.clauses());
  }
  std::vector<TomoCnf> ablation_cnfs_v;
  {
    ScopedSpan span(tr, "tomo.ablation_build_cnfs");
    ct::tomo::CnfBuildOptions build;
    build.granularities = opts.fig1_granularities;
    ablation_cnfs_v = ct::tomo::build_cnfs(pool, stripped, build);
  }
  EngineStats ablation_stats;
  std::vector<CnfVerdict> ablation_verdicts;
  {
    ScopedSpan span(tr, "sat.analyze_ablation");
    ablation_verdicts = ct::tomo::analyze_cnfs(
        ablation_cnfs_v, pass_options(opts, true, kSatThreads), &ablation_stats);
  }
  {
    ScopedSpan span(tr, "analysis.fold");
    for (const CnfVerdict& v : ablation_verdicts) folds.fig4.add(v);
  }
  ct::analysis::ChurnStats fig3;
  {
    ScopedSpan span(tr, "analysis.churn_compute");
    fig3 = churn_tracker.compute();
  }
  ExperimentResult rebuilt;
  {
    ScopedSpan span(tr, "analysis.finalize");
    rebuilt = ct::analysis::finalize_experiment_result(scenario, opts, folds, summary,
                                                       clause_stats, truth_tracker,
                                                       std::move(fig3));
    rebuilt.engine_stats = main_stats;
  }
  std::string rebuilt_bytes;
  {
    ScopedSpan span(tr, "analysis.serialize");
    rebuilt_bytes = ct::analysis::serialize_report(rebuilt);
  }
  const double pipeline_s = pipeline.close();
  r.report_digest = digest_of(rebuilt_bytes);
  r.verdict_digest = verdict_digest(main_verdicts, ablation_verdicts);
  t.op(check_pass(t, "traced.main", main_stats, main_cnfs));
  t.op(check_pass(t, "traced.ablation", ablation_stats, ablation_cnfs_v));
  if (!rc.reference_report.empty()) {
    t.op(check_reference(t, "traced.report_reference", rc.reference_report, r.report_digest));
  }
  if (!rc.reference_verdicts.empty()) {
    t.op(check_reference(t, "traced.verdict_reference", rc.reference_verdicts,
                         r.verdict_digest));
  }
  t.op(t.check("traced.rebuilt_equals_run_experiment", untraced_bytes == rebuilt_bytes,
               "rebuilt " + r.report_digest + " vs run_experiment " + digest_of(untraced_bytes)));
  tr.set("trace.overhead_s", pipeline_s - untraced_s);

  tr.set("tomo.cnfs", static_cast<double>(main_cnfs.size()));
  tr.set("tomo.ablation_cnfs", static_cast<double>(ablation_cnfs_v.size()));
  tr.set("tomo.build_cnfs_s", tr.total("tomo.build_cnfs"));
  tr.set("tomo.strip_s", tr.total("tomo.strip"));
  tr.set("tomo.ablation_build_cnfs_s", tr.total("tomo.ablation_build_cnfs"));
  tr.set("sat.analyze_main_s", tr.total("sat.analyze_main"));
  tr.set("sat.analyze_ablation_s", tr.total("sat.analyze_ablation"));
  tr.set("sat.solve_calls", static_cast<double>(main_stats.solve_calls));
  tr.set("sat.cnf_loads", static_cast<double>(main_stats.cnf_loads));
  tr.set("sat.delta_loads", static_cast<double>(main_stats.delta_loads));
  tr.set("sat.models_found", static_cast<double>(main_stats.models_found));
  const auto& unitprop =
      main_stats.backends[static_cast<std::size_t>(ct::sat::BackendKind::kUnitProp)];
  tr.set("sat.unitprop_served_ratio",
         unitprop.selected == 0 ? 0.0
                                : static_cast<double>(unitprop.served) /
                                      static_cast<double>(unitprop.selected));
  tr.set("analysis.fold_s", tr.total("analysis.fold"));
  tr.set("analysis.churn_compute_s", tr.total("analysis.churn_compute"));
  tr.set("analysis.finalize_s", tr.total("analysis.finalize") + tr.total("analysis.serialize"));
  tr.set("analysis.report_bytes", static_cast<double>(rebuilt_bytes.size()));

  // The routing layer alone: a replay of the churn process with one
  // route-table set per epoch, as the platform computes them.
  {
    ScopedSpan span(tr, "bgp.route_tables");
    ct::bgp::ChurnEngine churn(scenario.graph(), platform.config().churn, cfg.seed);
    const ct::bgp::RouteComputer computer(scenario.graph());
    const std::int64_t epochs =
        static_cast<std::int64_t>(platform.config().num_days) * platform.config().epochs_per_day;
    std::size_t tables = 0;
    for (std::int64_t e = 0; e < epochs; ++e) {
      if (e > 0) churn.advance();
      const ct::bgp::RouteTableSet set(computer, platform.dest_ases(), churn.link_up());
      ++tables;
    }
    tr.set("bgp.route_table_sets", static_cast<double>(tables));
  }
  tr.set("bgp.route_tables_s", tr.total("bgp.route_tables"));

  // The single-threaded SAT passes of the solve workload.
  {
    ScopedSpan span(tr, "sat.analyze_1thread");
    EngineStats s1, s2;
    const std::vector<CnfVerdict> m1 =
        ct::tomo::analyze_cnfs(main_cnfs, pass_options(opts, false, kSolveThreads), &s1);
    const std::vector<CnfVerdict> a1 =
        ct::tomo::analyze_cnfs(ablation_cnfs_v, pass_options(opts, true, kSolveThreads), &s2);
    const std::string d1 = verdict_digest(m1, a1);
    t.op(t.check("traced.verdicts_thread_independent", d1 == r.verdict_digest,
                 "1 thread " + d1 + " vs " + std::to_string(kSatThreads) + " threads " +
                     r.verdict_digest));
  }
  tr.set("sat.analyze_1thread_s", tr.total("sat.analyze_1thread"));
  tr.set("sat.cnfs_per_s",
         static_cast<double>(main_cnfs.size() + ablation_cnfs_v.size()) /
             tr.total("sat.analyze_1thread"));
  // Free the batch state before the monitor runs.
  main_cnfs = {};
  ablation_cnfs_v = {};
  stripped = {};

  // B. The monitor, day-stepped as in the live workload.
  const MonitorOptions mopts = monitor_options();
  const std::string ckpt = checkpoint_path(rc);
  MonitorEngine monitor(scenario, mopts);
  std::vector<double> step_ms;
  double open_windows_peak = 0.0, churn_entries_peak = 0.0, checkpoint_bytes = 0.0;
  ct::util::Day checkpointed = 0;
  bool watermarks_ok = true;
  for (ct::util::Day w = 0; w < rc.days; ++w) {
    const bool checkpoint_day = (w + 1) % kCheckpointEveryDays == 0;
    ScopedSpan step(tr, "analysis.day_step");
    {
      ScopedSpan span(tr, "monitor.run_until");
      monitor.run_until(w + 1);
    }
    if (checkpoint_day) {
      ScopedSpan span(tr, "monitor.checkpoint_to");
      monitor.checkpoint_to(ckpt);
      checkpointed = w + 1;
    }
    std::shared_ptr<const ct::analysis::LiveReport> snap;
    {
      ScopedSpan span(tr, "monitor.snapshot");
      snap = monitor.reports().snapshot();
    }
    step_ms.push_back(1e3 * step.close());
    watermarks_ok &= snap != nullptr && snap->watermark == w + 1;
    if (checkpoint_day) {
      ScopedSpan span(tr, "monitor.checkpoint");
      checkpoint_bytes = static_cast<double>(monitor.checkpoint().size());
    }
    const ct::analysis::MonitorStats ms = monitor.stats();
    open_windows_peak = std::max(
        open_windows_peak, static_cast<double>(ms.open_main_windows + ms.open_ablation_windows));
    churn_entries_peak = std::max(churn_entries_peak, static_cast<double>(ms.churn_open_entries));
  }
  t.op(t.check("traced.watermark_advances", watermarks_ok,
               "a snapshot did not read watermark w+1 after run_until(w+1)"));
  const ct::analysis::MonitorStats final_stats = monitor.stats();
  ExperimentResult monitored;
  {
    ScopedSpan span(tr, "monitor.finalize");
    monitored = monitor.finalize();
  }
  t.op(t.check("traced.monitor_equals_batch",
               ct::analysis::serialize_report(monitored) == rebuilt_bytes,
               "monitor report differs from the rebuilt batch report"));
  if (checkpointed > 0) {
    const std::string bytes = ct::analysis::read_checkpoint_file(ckpt);
    MonitorEngine resumed(scenario, mopts);
    {
      ScopedSpan span(tr, "monitor.restore");
      resumed.restore(bytes);
    }
    const bool at_mark = resumed.watermark() == checkpointed;
    const bool same = ct::analysis::serialize_report(resumed.finalize()) == rebuilt_bytes;
    t.op(t.check("traced.restore_resumes_identically", at_mark && same,
                 "restored monitor at day " + std::to_string(resumed.watermark()) +
                     (same ? "" : " finished with a different report")));
    std::remove(ckpt.c_str());
  }
  const EngineStats& me = monitored.engine_stats;
  tr.set("analysis.checkpoint_ms", 1e3 * median_span(tr, "monitor.checkpoint"));
  tr.set("analysis.checkpoint_write_ms", 1e3 * median_span(tr, "monitor.checkpoint_to"));
  tr.set("analysis.checkpoint_bytes", checkpoint_bytes);
  tr.set("analysis.restore_ms", 1e3 * tr.total("monitor.restore"));
  tr.set("analysis.monitor_finalize_ms", 1e3 * tr.total("monitor.finalize"));
  tr.set("analysis.day_step_p50_ms", percentile(step_ms, 0.50));
  tr.set("analysis.run_until_s", tr.total("monitor.run_until"));
  tr.set("analysis.retained_clauses_peak", static_cast<double>(final_stats.retained_clauses_peak));
  tr.set("analysis.open_windows_peak", open_windows_peak);
  tr.set("analysis.churn_open_entries_peak", churn_entries_peak);
  tr.set("analysis.monitor_delta_loads", static_cast<double>(me.delta_loads));
  tr.set("analysis.monitor_fresh_load_ratio",
         static_cast<double>(me.cnf_loads) / static_cast<double>(loads(me)));

  r.trace_file = rc.work_dir + "/trace-" + rc.workload + "-" + std::to_string(rc.seed) + ".json";
  tr.write_json(r.trace_file);
  for (const LayerMetric& m : kLayerMetrics) r.metrics.push_back({m.name, tr.counter(m.name), m.unit});
  r.table.push_back("traced pipeline " + str(pipeline_s) + " s, untraced run_experiment " +
                    str(untraced_s) + " s");
  return r;
}

}  // namespace perfbench
