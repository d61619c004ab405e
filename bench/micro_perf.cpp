// Micro-benchmarks (google-benchmark) for the performance-critical
// components: RNG, IP-to-AS lookup, BGP route computation, traceroute
// synthesis + inference, SAT solving/enumeration/counting, and clause
// building.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "analysis/experiment.h"
#include "analysis/monitor.h"
#include "analysis/platform_sinks.h"
#include "analysis/scenario.h"
#include "bgp/routing.h"
#include "iclab/platform.h"
#include "util/thread_pool.h"
#include "net/traceroute.h"
#include "sat/backend.h"
#include "sat/counter.h"
#include "sat/enumerate.h"
#include "sat/portfolio.h"
#include "sat/session.h"
#include "sat/solver.h"
#include "tomo/clause.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"
#include "topo/generator.h"
#include "util/rng.h"

namespace {

using namespace ct;

topo::AsGraph& bench_graph() {
  static topo::AsGraph graph = [] {
    topo::TopologyConfig cfg;
    cfg.num_ases = 650;
    cfg.num_tier1 = 9;
    cfg.num_transit = 120;
    cfg.num_countries = 40;
    return topo::generate_topology(cfg, 1);
  }();
  return graph;
}

net::AddressPlan& bench_plan() {
  static net::AddressPlan plan = net::allocate_prefixes(bench_graph(), {});
  return plan;
}

net::Ip2AsDb& bench_db() {
  static net::Ip2AsDb db = net::build_ip2as(bench_plan());
  return db;
}

void BM_RngUniform(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

void BM_Ip2AsLookup(benchmark::State& state) {
  auto& db = bench_db();
  util::Rng rng(2);
  std::vector<net::Ip4> ips;
  for (int i = 0; i < 1024; ++i) {
    ips.push_back(static_cast<net::Ip4>((10u << 24) | rng.uniform_int(0, (1 << 24) - 1)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.lookup(ips[i++ & 1023]));
  }
}
BENCHMARK(BM_Ip2AsLookup);

void BM_RouteCompute(benchmark::State& state) {
  const auto& graph = bench_graph();
  const bgp::RouteComputer computer(graph);
  const std::vector<bool> up(static_cast<std::size_t>(graph.num_links()), true);
  topo::AsId dest = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(computer.compute(dest, up));
    dest = (dest + 1) % graph.num_ases();
  }
}
BENCHMARK(BM_RouteCompute);

void BM_PathReconstruction(benchmark::State& state) {
  const auto& graph = bench_graph();
  const bgp::RouteComputer computer(graph);
  const bgp::RouteTable table = computer.compute(graph.num_ases() - 1);
  topo::AsId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.path(src));
    src = (src + 1) % (graph.num_ases() - 1);
  }
}
BENCHMARK(BM_PathReconstruction);

void BM_TracerouteTripleAndInference(benchmark::State& state) {
  const net::TracerouteEngine engine(bench_plan(), {});
  util::Rng rng(3);
  const std::vector<topo::AsId> path{5, 120, 9, 200, 400};
  for (auto _ : state) {
    const auto triple = engine.trace_triple(path, {}, 0.0, rng);
    benchmark::DoNotOptimize(net::infer_as_path(triple, bench_db()));
  }
}
BENCHMARK(BM_TracerouteTripleAndInference);

sat::Cnf tomo_shaped_cnf(int vars, int positives, int negatives, std::uint64_t seed) {
  util::Rng rng(seed);
  sat::Cnf cnf;
  cnf.num_vars = vars;
  for (int i = 0; i < positives; ++i) {
    std::vector<sat::Lit> clause;
    for (int k = 0; k < 5; ++k) {
      clause.emplace_back(static_cast<sat::Var>(rng.index(static_cast<std::size_t>(vars))),
                          false);
    }
    cnf.add_clause(std::move(clause));
  }
  for (int i = 0; i < negatives; ++i) {
    cnf.add_clause({sat::Lit(static_cast<sat::Var>(rng.index(static_cast<std::size_t>(vars))),
                             true)});
  }
  return cnf;
}

void BM_SatSolveTomoShaped(benchmark::State& state) {
  const sat::Cnf cnf = tomo_shaped_cnf(40, 6, 30, 7);
  for (auto _ : state) {
    sat::Solver solver;
    solver.add_cnf(cnf);
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_SatSolveTomoShaped);

void BM_SatSolvePigeonhole(benchmark::State& state) {
  // PHP(7,6): a genuinely hard UNSAT instance for resolution.
  sat::Cnf cnf;
  const int pigeons = 7, holes = 6;
  cnf.num_vars = pigeons * holes;
  for (int p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> c;
    for (int h = 0; h < holes; ++h) c.emplace_back(p * holes + h, false);
    cnf.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.add_clause({sat::Lit(p1 * holes + h, true), sat::Lit(p2 * holes + h, true)});
      }
    }
  }
  for (auto _ : state) {
    sat::Solver solver;
    solver.add_cnf(cnf);
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_SatSolvePigeonhole);

void BM_SatEnumerate(benchmark::State& state) {
  const sat::Cnf cnf = tomo_shaped_cnf(30, 3, 20, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sat::enumerate_models(cnf, {.max_models = 6, .projection = {}}));
  }
}
BENCHMARK(BM_SatEnumerate);

void BM_SatPotentialTrueVars(benchmark::State& state) {
  const sat::Cnf cnf = tomo_shaped_cnf(40, 4, 25, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sat::potential_true_vars(cnf));
  }
}
BENCHMARK(BM_SatPotentialTrueVars);

void BM_ModelCount(benchmark::State& state) {
  const sat::Cnf cnf = tomo_shaped_cnf(24, 4, 10, 17);
  for (auto _ : state) {
    sat::ModelCounter counter;
    benchmark::DoNotOptimize(counter.count(cnf));
  }
}
BENCHMARK(BM_ModelCount);

// The tomography engine's query mix against one CNF — classify, count
// up to the Figure 4 cap, backbone split — first the pre-session way
// (a fresh solver per query, 3 CNF loads) and then on one SolverSession
// (1 CNF load, shared learnt clauses).  The ratio is the session win.
void BM_TomoQueriesFreshSolvers(benchmark::State& state) {
  const sat::Cnf cnf = tomo_shaped_cnf(40, 4, 25, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sat::classify_solution_count(cnf));
    benchmark::DoNotOptimize(sat::count_models_capped(cnf, 6));
    benchmark::DoNotOptimize(sat::potential_true_vars(cnf));
  }
}
BENCHMARK(BM_TomoQueriesFreshSolvers);

void BM_TomoQueriesSession(benchmark::State& state) {
  const sat::Cnf cnf = tomo_shaped_cnf(40, 4, 25, 13);
  for (auto _ : state) {
    sat::SolverSession session(cnf);
    benchmark::DoNotOptimize(session.classify());
    benchmark::DoNotOptimize(session.count_models_capped(6));
    benchmark::DoNotOptimize(session.potential_true_vars());
  }
}
BENCHMARK(BM_TomoQueriesSession);

// Per-CNF backend selection on the default-scenario year's CNFs, under
// the count-resolving (Figure-4) workload where backend choice matters
// most.  Verdicts are byte-identical across all four modes (the
// backend equivalence suite enforces it); the delta is pure wall
// clock, and BM_BackendMix/auto must beat BM_BackendMix/cdcl —
// that ratio is the value of the selection policy.  num_threads = 1
// isolates backend cost from pool scaling.
void BM_BackendMix(benchmark::State& state, sat::BackendSelector::Mode mode) {
  static const std::vector<tomo::TomoCnf>* cnfs = [] {
    analysis::Scenario scenario(analysis::default_scenario());
    const auto sinks = analysis::run_platform(scenario, 0);
    return new std::vector<tomo::TomoCnf>(tomo::build_cnfs(
        sinks->clause_builder.pool(), sinks->clause_builder.clauses()));
  }();
  tomo::AnalysisOptions options;
  options.resolve_counts = true;
  options.num_threads = 1;
  options.backend.mode = mode;
  tomo::EngineStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tomo::analyze_cnfs(*cnfs, options, &stats));
  }
  state.counters["cnfs"] = static_cast<double>(cnfs->size());
  for (std::size_t k = 0; k < sat::kNumBackendKinds; ++k) {
    state.counters[std::string("served_") +
                   sat::to_string(static_cast<sat::BackendKind>(k))] =
        static_cast<double>(stats.backends[k].served);
  }
  state.counters["escalated"] = static_cast<double>(
      stats.backends[static_cast<std::size_t>(sat::BackendKind::kUnitProp)].escalated);
  // Racing counters (zero unless the portfolio served CNFs): how often
  // races engaged, which fraction each member won, and the wasted-work
  // ratio the first-wins protocol pays for its tail latency win.
  state.counters["races"] = static_cast<double>(stats.portfolio.races);
  state.counters["probe_decided"] = static_cast<double>(stats.portfolio.probe_decided);
  const double races_won = static_cast<double>(stats.portfolio.races_won_total());
  state.counters["race_win_rate_m0"] =
      races_won == 0.0 ? 0.0 : static_cast<double>(stats.portfolio.won[0]) / races_won;
  state.counters["wasted_ratio"] = stats.portfolio.wasted_ratio();
}
BENCHMARK_CAPTURE(BM_BackendMix, auto, sat::BackendSelector::Mode::kAuto)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BackendMix, cdcl, sat::BackendSelector::Mode::kCdcl)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BackendMix, count, sat::BackendSelector::Mode::kCount)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BackendMix, unitprop, sat::BackendSelector::Mode::kUnitProp)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BackendMix, ipasir, sat::BackendSelector::Mode::kIpasir)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BackendMix, portfolio, sat::BackendSelector::Mode::kPortfolio)
    ->Unit(benchmark::kMillisecond);

/// Random 3-SAT conditioned on a polarity-skewed satisfying assignment
/// (uniform clauses, rejecting any the plant falsifies).  This is the
/// shape of a hard tomography window: a strongly skewed backbone (most
/// variables pinned one way — few censors — with the skew direction
/// varying by window), satisfiable, and murder for a solver whose
/// initial polarity points the wrong way.
sat::Cnf skewed_3sat_bench(int num_vars, int num_clauses, double true_bias,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<bool> plant(static_cast<std::size_t>(num_vars));
  for (auto&& bit : plant) bit = rng.bernoulli(true_bias);
  sat::Cnf cnf;
  cnf.num_vars = num_vars;
  int made = 0;
  while (made < num_clauses) {
    std::vector<sat::Lit> clause;
    while (clause.size() < 3) {
      const auto v =
          static_cast<sat::Var>(rng.index(static_cast<std::size_t>(num_vars)));
      bool dup = false;
      for (const sat::Lit l : clause) dup = dup || l.var() == v;
      if (!dup) clause.emplace_back(v, rng.bernoulli(0.5));
    }
    bool satisfied = false;
    for (const sat::Lit l : clause) satisfied = satisfied || (plant[l.var()] != l.negated());
    if (!satisfied) continue;  // keep the plant a model
    cnf.add_clause(std::move(clause));
    ++made;
  }
  return cnf;
}

// The portfolio's target regime: the hard satisfiable tail, where
// *which* configuration draws the long search varies per instance.  On
// a skewed-backbone instance the polarity-aligned member answers in a
// handful of conflicts while the misaligned one burns thousands — and
// the skew direction flips per instance, so no fixed configuration is
// ever right twice in a row.  First-wins racing pays sum(width x min
// over members) against the fixed config's sum(member 0), which wins
// even on ONE core (a tail-variance win, not a parallelism win; on
// idle multi-core hardware the racers overlap and the margin grows).
// Arg = racing width; width 1 is exactly the member-0 CDCL
// configuration, i.e. the no-portfolio baseline.  The cancel_ms_max
// counter is the cancellation-latency proof: losers stop within one
// restart period of the winner's claim, not at their own pace.
void BM_Portfolio(benchmark::State& state) {
  static const std::vector<sat::Cnf>* cnfs = [] {
    auto* hard = new std::vector<sat::Cnf>();
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      const double bias = (seed % 2 == 0) ? 0.95 : 0.05;
      hard->push_back(skewed_3sat_bench(250, 1600, bias, 7000 + seed));
    }
    return hard;
  }();
  const auto width = static_cast<unsigned>(state.range(0));
  // Fresh backend per window: each hard window is an independent race
  // (saved phases from the previous window would otherwise override
  // every member's configured init_polarity and collapse the
  // diversification the race exists to exploit).
  sat::PortfolioStats stats;
  for (auto _ : state) {
    for (const sat::Cnf& cnf : *cnfs) {
      sat::PortfolioBackend backend(width);
      backend.set_probe_budget(0);  // every solve races: the tail is the workload
      backend.load(cnf);
      benchmark::DoNotOptimize(backend.solve({}));
      stats += backend.portfolio_stats();
    }
  }
  state.counters["width"] = static_cast<double>(width);
  state.counters["cnfs"] = static_cast<double>(cnfs->size());
  state.counters["races"] = static_cast<double>(stats.races);
  const double races_won = static_cast<double>(stats.races_won_total());
  for (unsigned m = 0; m < width && width > 1; ++m) {
    state.counters["win_rate_m" + std::to_string(m)] =
        races_won == 0.0 ? 0.0 : static_cast<double>(stats.won[m]) / races_won;
  }
  state.counters["wasted_ratio"] = stats.wasted_ratio();
  state.counters["cancels"] = static_cast<double>(stats.cancels);
  state.counters["cancel_ms_max"] = static_cast<double>(stats.cancel_ns_max) / 1e6;
  state.counters["cancel_ms_avg"] =
      stats.cancels == 0 ? 0.0
                         : static_cast<double>(stats.cancel_ns_total) /
                               (1e6 * static_cast<double>(stats.cancels));
}
BENCHMARK(BM_Portfolio)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

/// One (URL, anomaly) chain of adjacent window CNFs: a stable dense
/// core (the backbone constraints a long-lived anomaly keeps inducing
/// every window) under a churning overlay of wide positive clauses
/// (the per-window path disjunctions that come and go with the
/// measurement mix).  This is the delta loader's target regime: each
/// transition edits a couple of overlay clauses while the core — and
/// everything the solver learnt about it — survives (README "Delta
/// loading").  The core density is chosen in the satisfiable-but-hard
/// band so every window's queries do real search.
std::vector<sat::Cnf> chain_windows(int vars, int core_clauses, int overlay, int days,
                                    std::uint64_t seed) {
  util::Rng rng(seed);
  sat::Cnf cnf;
  cnf.num_vars = vars;
  for (int i = 0; i < core_clauses; ++i) {
    std::vector<sat::Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.emplace_back(static_cast<sat::Var>(rng.index(static_cast<std::size_t>(vars))),
                          rng.bernoulli(0.5));
    }
    cnf.add_clause(std::move(clause));
  }
  const auto wide_positive = [&rng, vars] {
    std::vector<sat::Lit> clause;
    for (int k = 0; k < 5; ++k) {
      clause.emplace_back(static_cast<sat::Var>(rng.index(static_cast<std::size_t>(vars))),
                          false);
    }
    return clause;
  };
  for (int i = 0; i < overlay; ++i) cnf.add_clause(wide_positive());

  std::vector<sat::Cnf> windows;
  windows.reserve(static_cast<std::size_t>(days));
  for (int day = 0; day < days; ++day) {
    windows.push_back(cnf);
    for (int churn = 0; churn < 2; ++churn) {
      const std::size_t at = static_cast<std::size_t>(core_clauses) +
                             rng.index(static_cast<std::size_t>(overlay));
      cnf.clauses[at] = wide_positive();
    }
  }
  return windows;
}

std::vector<tomo::TomoCnf> tomo_chain_batch(std::size_t chains, int windows) {
  std::vector<tomo::TomoCnf> cnfs;
  cnfs.reserve(chains * static_cast<std::size_t>(windows));
  for (std::size_t c = 0; c < chains; ++c) {
    const std::vector<sat::Cnf> chain = chain_windows(70, 280, 12, windows, 100 + c);
    for (int w = 0; w < windows; ++w) {
      tomo::TomoCnf tc;
      tc.key.url_id = static_cast<std::int32_t>(c);
      tc.key.window = w;
      tc.cnf = chain[static_cast<std::size_t>(w)];
      for (std::int32_t v = 0; v < tc.cnf.num_vars; ++v) {
        tc.vars.push_back(static_cast<topo::AsId>(v));
      }
      cnfs.push_back(std::move(tc));
    }
  }
  return cnfs;
}

// Batch analysis over a chain-structured workload (8 URL chains x 30
// adjacent windows, the engine's stream shape): Args = {threads, delta}
// with threads 0 = hardware concurrency.  Verdicts are identical at
// every arg (the equivalence suites enforce it); only wall-clock moves.
// CDCL is pinned because only the CDCL route chains — the delta axis
// measures the delta loader, not backend selection (BM_BackendMix).
void BM_AnalyzeCnfsBatch(benchmark::State& state) {
  static const std::vector<tomo::TomoCnf> cnfs = tomo_chain_batch(8, 30);
  tomo::AnalysisOptions options;
  options.num_threads = static_cast<unsigned>(state.range(0));
  options.backend.mode = sat::BackendSelector::Mode::kCdcl;
  options.delta.enabled = state.range(1) != 0;
  tomo::EngineStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tomo::analyze_cnfs(cnfs, options, &stats));
  }
  state.counters["cnfs"] = static_cast<double>(cnfs.size());
  state.counters["delta_loads"] = static_cast<double>(stats.delta_loads);
  state.counters["clauses_reused"] = static_cast<double>(stats.clauses_reused);
}
BENCHMARK(BM_AnalyzeCnfsBatch)->ArgsProduct({{1, 2, 4, 0}, {0, 1}});

// A year of one (URL, anomaly) chain at day granularity, delta loading
// vs from-scratch rebuilds, on one session with the engine's query mix
// per window.  Each window shares a dense constraint core (the stable
// part of the topology) under a churning tomo-shaped overlay — the
// regime the delta loader targets: rebuilding re-derives the core's
// lemmas every window, a delta load keeps them.  The scratch/delta time
// ratio is the per-chain win, reuse_ratio is how much of the clause
// database each transition keeps hot.
void BM_DeltaChain(benchmark::State& state, bool delta_on) {
  static const std::vector<sat::Cnf>* windows =
      new std::vector<sat::Cnf>(chain_windows(80, 324, 12, 365, 500));
  const sat::BackendPlan plan;  // CDCL, the chainable route
  sat::DeltaPolicy policy;
  policy.enabled = delta_on;
  sat::SessionStats stats;
  for (auto _ : state) {
    sat::SolverSession session;
    for (const sat::Cnf& cnf : *windows) {
      session.load_next(cnf, plan, policy);
      benchmark::DoNotOptimize(session.classify());
      benchmark::DoNotOptimize(session.count_models_capped(6));
      benchmark::DoNotOptimize(session.potential_true_vars());
    }
    stats = session.stats();
  }
  state.counters["windows"] = static_cast<double>(windows->size());
  state.counters["delta_loads"] = static_cast<double>(stats.delta_loads);
  const double touched =
      static_cast<double>(stats.clauses_reused + stats.clauses_retracted);
  state.counters["reuse_ratio"] =
      touched == 0.0 ? 0.0 : static_cast<double>(stats.clauses_reused) / touched;
}
BENCHMARK_CAPTURE(BM_DeltaChain, scratch, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DeltaChain, delta, true)->Unit(benchmark::kMillisecond);

// Sharded platform execution: the full default-scenario measurement run
// (platform simulation + clause building + churn/truth tracking, the
// pipeline's other serial wall) split into (vantage, day) shards on a
// thread pool.  Arg = shard count (0 = hardware concurrency).  The
// merged, canonicalized sink contents are bit-identical at every arg —
// only wall-clock should move.  One iteration simulates the whole year,
// so the benchmark pins Iterations(1).
void BM_PlatformSharded(benchmark::State& state) {
  static analysis::Scenario* scenario = new analysis::Scenario(analysis::default_scenario());

  const unsigned shards = state.range(0) == 0
                              ? util::ThreadPool::hardware_threads()
                              : static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    // The exact pipeline run_experiment executes for its platform half.
    const auto sinks = analysis::run_platform(*scenario, shards);
    benchmark::DoNotOptimize(sinks->clause_builder.clauses().size());
  }
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_PlatformSharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

// Checkpoint/restore roundtrip for the resident monitor (README
// "Resident monitor & checkpoints"): serialize a mid-run monitor's
// complete persistent state, restore it into a fresh monitor, and
// re-serialize.  This is the whole crash-recovery cost the daemon pays
// per cadence write; it bounds how aggressive --checkpoint-every can be
// before checkpointing competes with ingest.
void BM_CheckpointRoundtrip(benchmark::State& state) {
  static analysis::Scenario* scenario =
      new analysis::Scenario(analysis::small_scenario());
  static const std::string* bytes = [] {
    analysis::MonitorOptions options;
    options.segment_days = 7;
    analysis::MonitorEngine source(*scenario, options);
    source.run_until(source.num_days() / 2);
    return new std::string(source.checkpoint());
  }();
  for (auto _ : state) {
    analysis::MonitorOptions options;
    options.segment_days = 7;
    analysis::MonitorEngine monitor(*scenario, options);
    monitor.restore(*bytes);
    benchmark::DoNotOptimize(monitor.checkpoint().size());
  }
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes->size());
}
BENCHMARK(BM_CheckpointRoundtrip)->Unit(benchmark::kMillisecond);

/// One serial platform run over the small world: its clause stream and
/// pool, plus every on_path event in emission order (the churn
/// tracker's input).  Built once, shared by the grouping benches.
struct SmallWorldStream : iclab::MeasurementSink {
  struct PathEvent {
    util::Day day;
    std::int32_t epoch;
    topo::AsId vantage;
    topo::AsId dest;
    std::vector<topo::AsId> path;
  };

  SmallWorldStream() : scenario(analysis::small_scenario()), sinks(scenario) {
    sinks.fanout.add(this);
    scenario.platform().run(sinks.fanout);
    sinks.fanout.remove(this);
  }

  void on_measurement(const iclab::Measurement&) override {}
  void on_path(util::Day day, std::int32_t epoch, topo::AsId vantage, topo::AsId dest,
               const std::vector<topo::AsId>& path) override {
    path_events.push_back(PathEvent{day, epoch, vantage, dest, path});
  }

  analysis::Scenario scenario;
  analysis::PlatformSinks sinks;
  std::vector<PathEvent> path_events;
};

const SmallWorldStream& small_world_stream() {
  static const SmallWorldStream* stream = new SmallWorldStream();
  return *stream;
}

// CNF grouping over the small world's clause corpus, as run_experiment's
// batch path does it: the main pass at all four granularities, then the
// churn-stripped Figure-4 pass at day/week/month.
void BM_BuildCnfs(benchmark::State& state) {
  const SmallWorldStream& stream = small_world_stream();
  const tomo::PathPool& pool = stream.sinks.clause_builder.pool();
  const std::vector<tomo::PathClause>& clauses = stream.sinks.clause_builder.clauses();
  tomo::CnfBuildOptions fig4;
  fig4.granularities = analysis::ExperimentOptions{}.fig1_granularities;
  std::size_t cnfs = 0;
  for (auto _ : state) {
    const std::vector<tomo::TomoCnf> main_cnfs = tomo::build_cnfs(pool, clauses);
    const std::vector<tomo::TomoCnf> ablation_cnfs =
        tomo::build_cnfs(pool, tomo::strip_path_churn(pool, clauses), fig4);
    cnfs = main_cnfs.size() + ablation_cnfs.size();
    benchmark::DoNotOptimize(cnfs);
  }
  state.counters["clauses"] = static_cast<double>(clauses.size());
  state.counters["cnfs"] = static_cast<double>(cnfs);
}
BENCHMARK(BM_BuildCnfs)->Unit(benchmark::kMillisecond);

// The Figure-3 churn tracker replaying the small world's recorded
// on_path stream into a fresh tracker, then computing the statistics.
void BM_ChurnTrackerOnPath(benchmark::State& state) {
  const SmallWorldStream& stream = small_world_stream();
  const iclab::Platform& platform = stream.scenario.platform();
  for (auto _ : state) {
    analysis::PathChurnTracker tracker(stream.scenario.graph(), platform.vantages(),
                                       platform.dest_ases(), platform.config().num_days,
                                       platform.config().epochs_per_day);
    for (const auto& e : stream.path_events) {
      tracker.on_path(e.day, e.epoch, e.vantage, e.dest, e.path);
    }
    benchmark::DoNotOptimize(tracker.compute());
  }
  state.counters["events"] = static_cast<double>(stream.path_events.size());
}
BENCHMARK(BM_ChurnTrackerOnPath)->Unit(benchmark::kMillisecond);

void BM_ClauseBuild(benchmark::State& state) {
  const net::TracerouteEngine engine(bench_plan(), {});
  util::Rng rng(19);
  const std::vector<topo::AsId> path{5, 120, 9, 200, 400};
  iclab::Measurement m;
  m.vantage = 5;
  m.url_id = 1;
  m.day = 0;
  m.traceroutes = engine.trace_triple(path, {}, 0.0, rng);
  tomo::ClauseBuilder builder(bench_db());
  for (auto _ : state) {
    builder.on_measurement(m);
  }
}
BENCHMARK(BM_ClauseBuild);

}  // namespace

BENCHMARK_MAIN();
