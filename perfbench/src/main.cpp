// perfbench_runner: runs one benchmark workload and prints one JSON
// line with its metrics, output checks and digests.
//
//   perfbench_runner --workload {year,live,solve} --seed N --seconds S
//                    --trace {0,1} [--days D] [--scenario {paper,small}]
//                    [--work-dir DIR] [--reference-report HEX]
//                    [--reference-verdicts HEX]
//
// Human-readable tables go to stderr.  perfbench/run.py builds this
// binary, runs it, and turns its line into the benchmark result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "json.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench_runner: " << problem << "\n"
            << "usage: perfbench_runner --workload {year,live,solve} --seed N --seconds S "
               "--trace {0,1} [--days D] [--scenario {paper,small}] [--work-dir DIR] "
               "[--reference-report HEX] [--reference-verdicts HEX]\n";
  std::exit(2);
}

perfbench::RunConfig parse(int argc, char** argv) {
  perfbench::RunConfig rc;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      rc.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      rc.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      rc.seconds = std::stod(value);
    } else if (flag == "--trace") {
      rc.trace = value == "1";
    } else if (flag == "--days") {
      rc.days = std::stoi(value);
    } else if (flag == "--scenario") {
      rc.scenario = value;
    } else if (flag == "--work-dir") {
      rc.work_dir = value;
    } else if (flag == "--reference-report") {
      rc.reference_report = value;
    } else if (flag == "--reference-verdicts") {
      rc.reference_verdicts = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  if (rc.workload != "year" && rc.workload != "live" && rc.workload != "solve") {
    usage("unknown workload " + rc.workload);
  }
  if (rc.scenario != "paper" && rc.scenario != "small") usage("unknown scenario " + rc.scenario);
  if (rc.days < 1) usage("--days must be positive");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunConfig rc = parse(argc, argv);
  perfbench::RunResult result;
  try {
    if (rc.trace) {
      result = perfbench::run_traced(rc);
    } else if (rc.workload == "year") {
      result = perfbench::run_year(rc);
    } else if (rc.workload == "live") {
      result = perfbench::run_live(rc);
    } else {
      result = perfbench::run_solve(rc);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << rc.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& line : result.table) std::cerr << line << "\n";
  for (const perfbench::Metric& m : result.metrics) {
    std::fprintf(stderr, "%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const perfbench::Check& c : result.checks) {
    std::fprintf(stderr, "check %-44s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                 c.detail.c_str());
  }

  perfbench::JsonWriter w;
  w.begin_object();
  w.field("workload", rc.workload);
  w.field("scenario", rc.scenario);
  w.field("seed", static_cast<std::int64_t>(rc.seed));
  w.field("days", static_cast<std::int64_t>(rc.days));
  w.field("trace", rc.trace);
  w.field("attempted", result.attempted);
  w.field("failed", result.failed);
  w.key("checks");
  w.begin_array();
  for (const perfbench::Check& c : result.checks) {
    w.begin_object();
    w.field("name", c.name);
    w.field("ok", c.ok);
    w.field("detail", c.detail);
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  w.begin_object();
  for (const perfbench::Metric& m : result.metrics) {
    w.key(m.name);
    w.begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.field("report_digest", result.report_digest);
  w.field("verdict_digest", result.verdict_digest);
  w.field("trace_file", result.trace_file);
  w.key("config");
  w.begin_object();
  w.field("sat_threads", static_cast<std::int64_t>(perfbench::kSatThreads));
  w.field("solve_threads", static_cast<std::int64_t>(perfbench::kSolveThreads));
  w.field("platform_shards", static_cast<std::int64_t>(perfbench::kPlatformShards));
  const ct::analysis::ExperimentOptions opts = perfbench::experiment_options();
  w.field("sat_backend", ct::sat::BackendSelector::to_string(opts.analysis.backend.mode));
  w.field("sat_delta", opts.analysis.delta.enabled);
  w.field("regime", ct::censor::to_string(perfbench::scenario_config(rc).regime.regime));
  w.field("checkpoint_every_days", static_cast<std::int64_t>(perfbench::kCheckpointEveryDays));
  w.field("build_type", PERFBENCH_BUILD_TYPE);
  w.field("compiler", PERFBENCH_COMPILER);
  w.end_object();
  w.end_object();
  std::cout << w.str() << std::endl;
  return 0;
}
