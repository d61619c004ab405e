// The benchmark's workloads: year (batch report), live (day-stepped
// monitor) and solve (SAT over a prebuilt CNF corpus), plus the traced
// run that splits them by layer.  Every option the program reads is set
// here explicitly; nothing goes through the CT_* environment parsers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/monitor.h"
#include "analysis/scenario.h"

namespace perfbench {

/// Worker threads of the SAT analysis passes (year, live, traced).
inline constexpr unsigned kSatThreads = 4;
/// Measurement-platform shards (serial platform run).
inline constexpr unsigned kPlatformShards = 1;
/// The solve workload's single-threaded analysis.
inline constexpr unsigned kSolveThreads = 1;
/// The live workload writes a checkpoint file every this many days.
inline constexpr int kCheckpointEveryDays = 7;
/// Day-latency samples the live workload collects at least, so that
/// p95 has at least ten samples beyond it.
inline constexpr int kMinLatencySamples = 200;

struct RunConfig {
  std::string workload;            // year | live | solve
  std::string scenario = "paper";  // paper (default_scenario) | small (small_scenario)
  std::uint64_t seed = 20170623;
  int days = 56;                   // simulated days of the measurement schedule
  double seconds = 10.0;           // measured time per run (at least one pass)
  bool trace = false;
  std::string work_dir = ".";      // checkpoint and trace files go here
  /// Expected digests (hex); empty = not checked.
  std::string reference_report;
  std::string reference_verdicts;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Check> checks;
  std::vector<Metric> metrics;
  std::string report_digest;   // FNV-1a 64 of serialize_report bytes
  std::string verdict_digest;  // FNV-1a 64 over both analysis passes' verdicts
  std::string trace_file;
  std::vector<std::string> table;  // human-readable lines
};

ct::analysis::ScenarioConfig scenario_config(const RunConfig& rc);
ct::analysis::ExperimentOptions experiment_options();
ct::analysis::MonitorOptions monitor_options();

RunResult run_year(const RunConfig& rc);
RunResult run_live(const RunConfig& rc);
RunResult run_solve(const RunConfig& rc);
/// The traced run (same on every workload): rebuilds the batch pipeline
/// from its public calls, runs the monitor and the single-threaded SAT
/// passes, and reports the per-layer split.
RunResult run_traced(const RunConfig& rc);

}  // namespace perfbench
