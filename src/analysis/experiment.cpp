#include "analysis/experiment.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "analysis/live_report.h"
#include "analysis/monitor.h"
#include "analysis/platform_sinks.h"

namespace ct::analysis {

namespace {

/// Batch Figure 4: strip churn, rebuild, analyze with resolved counts —
/// the phase-separated form of the monitor's ablation pass.
void run_fig4_batch(const tomo::PathPool& pool, const std::vector<tomo::PathClause>& clauses,
                    const ExperimentOptions& options, Fig4Fold& fig4) {
  const std::vector<tomo::PathClause> stripped = tomo::strip_path_churn(pool, clauses);
  tomo::CnfBuildOptions build;
  build.granularities = options.fig1_granularities;
  const std::vector<tomo::TomoCnf> cnfs = tomo::build_cnfs(pool, stripped, build);
  // Figure 4 plots the solution-count histogram, so this is the one
  // pass that must resolve counts past the 0/1/2+ class.
  tomo::AnalysisOptions analysis = options.analysis;
  analysis.resolve_counts = true;
  analysis.num_threads = options.num_threads;
  const std::vector<tomo::CnfVerdict> verdicts = tomo::analyze_cnfs(cnfs, analysis);
  for (const auto& v : verdicts) fig4.add(v);
}

std::vector<Table2Row> make_table2(const topo::AsGraph& graph,
                                   const std::vector<topo::AsId>& censors,
                                   const std::map<topo::AsId, std::set<censor::Anomaly>>&
                                       censor_anomalies) {
  std::map<std::string, Table2Row> by_country;
  for (const topo::AsId as : censors) {
    const std::string code = graph.country_of(as).code;
    Table2Row& row = by_country[code];
    row.country_code = code;
    row.censor_asns.push_back(graph.as_info(as).asn);
    if (const auto it = censor_anomalies.find(as); it != censor_anomalies.end()) {
      for (const censor::Anomaly a : it->second) {
        if (std::find(row.anomalies.begin(), row.anomalies.end(), a) == row.anomalies.end()) {
          row.anomalies.push_back(a);
        }
      }
    }
  }
  std::vector<Table2Row> rows;
  for (auto& [code, row] : by_country) {
    std::sort(row.censor_asns.begin(), row.censor_asns.end());
    std::sort(row.anomalies.begin(), row.anomalies.end(),
              [](censor::Anomaly a, censor::Anomaly b) {
                return static_cast<int>(a) < static_cast<int>(b);
              });
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Table2Row& a, const Table2Row& b) {
    if (a.censor_asns.size() != b.censor_asns.size()) {
      return a.censor_asns.size() > b.censor_asns.size();
    }
    return a.country_code < b.country_code;
  });
  return rows;
}

std::vector<Table3Row> make_table3(const topo::AsGraph& graph,
                                   const tomo::LeakageReport& leakage) {
  std::vector<Table3Row> rows;
  for (const auto& [censor, leaks] : leakage.by_censor) {
    Table3Row row;
    row.asn = graph.as_info(censor).asn;
    row.country_code = graph.country_of(censor).code;
    row.leaked_ases = static_cast<std::int64_t>(leaks.victim_ases.size());
    row.leaked_countries = static_cast<std::int64_t>(leaks.victim_countries.size());
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Table3Row& a, const Table3Row& b) {
    if (a.leaked_ases != b.leaked_ases) return a.leaked_ases > b.leaked_ases;
    if (a.leaked_countries != b.leaked_countries) return a.leaked_countries > b.leaked_countries;
    return a.asn < b.asn;
  });
  return rows;
}

Fig5Data make_fig5(const topo::AsGraph& graph, const std::vector<topo::AsId>& censors,
                   const tomo::LeakageReport& leakage) {
  Fig5Data fig5;
  for (const topo::AsId as : censors) {
    ++fig5.censors_per_country[graph.country_of(as).code];
  }
  std::int64_t same_region_weight = 0;
  std::int64_t regional_total = 0;
  for (const auto& [pair, weight] : leakage.country_flow) {
    const auto& censor_country = graph.country(pair.first);
    const auto& victim_country = graph.country(pair.second);
    Fig5Flow flow;
    flow.censor_country = censor_country.code;
    flow.victim_country = victim_country.code;
    flow.weight = weight;
    flow.same_region = censor_country.region == victim_country.region;
    // The paper notes that leakage is mostly regional *except* for
    // China's; measure the regional fraction excluding CN sources.
    if (flow.censor_country != "CN") {
      regional_total += weight;
      same_region_weight += flow.same_region ? weight : 0;
    }
    fig5.flows.push_back(std::move(flow));
  }
  std::sort(fig5.flows.begin(), fig5.flows.end(), [](const Fig5Flow& a, const Fig5Flow& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.censor_country != b.censor_country) return a.censor_country < b.censor_country;
    return a.victim_country < b.victim_country;
  });
  fig5.same_region_weight_fraction =
      regional_total == 0 ? 0.0
                          : static_cast<double>(same_region_weight) /
                                static_cast<double>(regional_total);
  return fig5;
}

}  // namespace

ExperimentResult run_experiment(Scenario& scenario, const ExperimentOptions& options) {
  if (options.streaming) {
    // Memory bounded by one ingest segment: the resident monitor runs
    // the same folds segment by segment and finalizes through
    // finalize_experiment_result, so the report is byte-identical.  Its
    // own counters cover both SAT passes; report the main pass alone,
    // as the batch path does.
    MonitorOptions monitor_options;
    monitor_options.experiment = options;
    MonitorEngine monitor(scenario, std::move(monitor_options));
    ExperimentResult result = monitor.finalize();
    result.engine_stats = monitor.main_pass_stats();
    return result;
  }

  // Platform run, then every CNF, then the main SAT pass as one batch,
  // then the Figure-4 ablation as a second batch.  Nothing downstream
  // of the main pass reads counts beyond the 0/1/2+ class (Figures 1/2,
  // censor identification, leakage), so let the sessions stop
  // enumerating at two models.
  tomo::AnalysisOptions main_analysis = options.analysis;
  main_analysis.resolve_counts = false;
  main_analysis.num_threads = options.num_threads;

  ExperimentFolds folds(options);
  const std::unique_ptr<PlatformSinks> sinks =
      run_platform(scenario, options.num_platform_shards);
  const std::vector<tomo::TomoCnf> cnfs =
      tomo::build_cnfs(sinks->clause_builder.pool(), sinks->clause_builder.clauses());
  tomo::EngineStats engine_stats;
  const std::vector<tomo::CnfVerdict> verdicts =
      tomo::analyze_cnfs(cnfs, main_analysis, &engine_stats);
  for (std::size_t i = 0; i < cnfs.size(); ++i) folds.add_main(cnfs[i], verdicts[i]);
  run_fig4_batch(sinks->clause_builder.pool(), sinks->clause_builder.clauses(), options,
                 folds.fig4);

  ExperimentResult result = finalize_experiment_result(
      scenario, options, folds, sinks->summary, sinks->clause_builder.stats(),
      sinks->truth_tracker, sinks->churn_tracker.compute());
  result.engine_stats = engine_stats;
  return result;
}

ExperimentResult finalize_experiment_result(Scenario& scenario,
                                            const ExperimentOptions& options,
                                            const ExperimentFolds& folds,
                                            const iclab::DatasetSummary& summary,
                                            const tomo::ClauseBuildStats& clause_stats,
                                            const TruthTracker& truth_tracker,
                                            ChurnStats fig3) {
  const auto& graph = scenario.graph();
  const iclab::Platform& platform = scenario.platform();
  ExperimentResult result;

  // --- Table 1 ---
  result.table1.measurements = summary.measurements();
  result.table1.unique_urls = summary.distinct_urls();
  result.table1.vantage_ases = summary.distinct_vantages();
  result.table1.dest_ases = static_cast<std::int64_t>(platform.dest_ases().size());
  result.table1.countries = summary.distinct_countries();
  result.table1.unreachable = summary.unreachable();
  for (const censor::Anomaly a : censor::kAllAnomalies) {
    result.table1.anomaly_counts[static_cast<std::size_t>(a)] = summary.anomaly_count(a);
  }
  result.table1.clause_stats = clause_stats;

  // --- figures from the folds ---
  result.total_cnfs = folds.verdicts.total();
  result.fig1 = folds.verdicts.fig1();
  result.fig2 = folds.verdicts.fig2();
  result.fig3 = std::move(fig3);
  result.fig4 = folds.fig4.finalize();

  // --- censors, leakage ---
  result.identified_censors = folds.support.identified(options.min_support);
  const std::set<topo::AsId> identified(result.identified_censors.begin(),
                                        result.identified_censors.end());
  const std::map<topo::AsId, std::set<censor::Anomaly>> censor_anomalies =
      folds.support.anomalies(identified);
  std::set<topo::CountryId> countries;
  for (const topo::AsId as : result.identified_censors) {
    countries.insert(graph.as_info(as).country);
  }
  result.censor_countries = static_cast<std::int32_t>(countries.size());
  result.leakage = folds.leakage.finalize(graph, result.identified_censors);

  result.table2 = make_table2(graph, result.identified_censors, censor_anomalies);
  result.table3 = make_table3(graph, result.leakage);
  result.fig5 = make_fig5(graph, result.identified_censors, result.leakage);

  // --- ground-truth scoring ---
  result.observable_censors = truth_tracker.observable();
  result.score_all =
      tomo::score_censors(result.identified_censors, scenario.registry().censor_ases());
  result.score_observable =
      tomo::score_censors(result.identified_censors, result.observable_censors);
  return result;
}

}  // namespace ct::analysis
