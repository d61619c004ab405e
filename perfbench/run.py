#!/usr/bin/env python3
"""Repository benchmark: builds the project from source and runs one workload.

    python3 perfbench/run.py --workload {year,live,solve} --seed N \
        --seconds S --trace {0,1} [--days D] [--scenario {paper,small}]
    python3 perfbench/run.py --self-check

Run from the repository root.  The project is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  The line before it holds the
run's provenance; the runner's full output, provenance included, is kept
under the build directory in results/.  See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("year", "live", "solve")
DEFAULT_SEED = 20170623  # ScenarioConfig's default seed
DEFAULT_DAYS = 56
RUN_TIMEOUT_S = 170
SOURCE_DIGEST_ROOTS = ("CMakeLists.txt", "src", "perfbench")


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_json(name):
    with open(os.path.join(BENCH_DIR, name)) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout[-8000:])
        raise BenchError(f"{what} failed (exit {proc.returncode})")


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no project sources (CMakeLists.txt, src/) under {ROOT}")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "cmake configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", out, "-j", jobs], "cmake build")
    runner = os.path.join(out, "perfbench_runner")
    if not os.path.isfile(runner):
        raise BenchError(f"build produced no {runner}")
    return runner


def cmake_cache_value(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the project sources and the benchmark, in path order."""
    h = hashlib.sha256()
    for top in SOURCE_DIGEST_ROOTS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            if "__pycache__" in f:
                continue
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_state():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, check=True).stdout
        return sha, bool(status.strip())
    except (OSError, subprocess.CalledProcessError):
        return None, None


def provenance(args, runner_out):
    sha, dirty = git_state()
    config = runner_out["config"]
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "cmake_build_type": cmake_cache_value("CMAKE_BUILD_TYPE"),
        "compiler": config["compiler"],
        "nproc": os.cpu_count(),
        "sat_threads": config["sat_threads"],
        "solve_threads": config["solve_threads"],
        "platform_shards": config["platform_shards"],
        "sat_backend": config["sat_backend"],
        "sat_delta": config["sat_delta"],
        "regime": config["regime"],
        "workload": args.workload,
        "scenario": args.scenario,
        "days": args.days,
        "seed": args.seed,
        "trace": args.trace,
        "ct_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("CT_")},
        "unix_time": time.time(),
    }


def reference_for(scenario, seed, days):
    ref = load_json("reference.json").get(scenario)
    if ref and ref["seed"] == seed and ref["days"] == days:
        return ref
    return None


def run_runner(runner, workload, seed, seconds, trace, days, scenario, env=None):
    work = os.path.join(build_dir(), "run")
    os.makedirs(work, exist_ok=True)
    cmd = [runner, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--days", str(days), "--scenario", scenario,
           "--work-dir", work]
    ref = reference_for(scenario, seed, days)
    if ref:
        # The solve workload analyzes a seeded subset of the corpus; the
        # traced run analyzes all of it.
        verdicts = ref["solve_verdicts"] if workload == "solve" and not trace else ref["verdicts"]
        cmd += ["--reference-report", ref["report"], "--reference-verdicts", verdicts]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, env=env)
    if proc.returncode != 0:
        raise BenchError(f"runner exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("runner printed no result")
    return json.loads(lines[-1])


def expected_metrics(trace):
    spec = load_json("../BENCHMARK.json")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(out, trace):
    """The runner must report exactly the metrics BENCHMARK.json lists."""
    expected = expected_metrics(trace)
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    missing = sorted(set(expected) - set(got))
    wrong_unit = sorted(n for n in expected if n in got and got[n] != expected[n])
    if missing or wrong_unit:
        raise BenchError(f"metrics missing {missing}, wrong unit {wrong_unit}")
    return {name: {"value": out["metrics"][name]["value"], "unit": unit}
            for name, unit in expected.items()}


def result_of(out, trace):
    metrics = check_metrics(out, trace)
    checks_ok = all(c["ok"] for c in out["checks"])
    return {
        "correct": bool(checks_ok and out["failed"] == 0 and out["attempted"] >= 1),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def save_result(args, out, prov):
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-{args.scenario}-{args.days}d-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump({"provenance": prov, "runner": out}, f, indent=1)
        f.write("\n")


def run_one(args):
    runner = build()
    out = run_runner(runner, args.workload, args.seed, args.seconds, args.trace, args.days,
                     args.scenario)
    prov = provenance(args, out)
    result = result_of(out, args.trace)
    save_result(args, out, prov)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result), flush=True)


def self_check():
    """All workloads on small_scenario(): metrics, checks, references, and
    isolation from stray CT_* variables.  Takes seconds."""
    runner = build()
    seed, days = DEFAULT_SEED, DEFAULT_DAYS
    if not reference_for("small", seed, days):
        raise BenchError("reference.json has no small-scenario entry")
    problems = []
    digests = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = run_runner(runner, workload, seed, 1, trace, days, "small")
            result = result_of(out, trace)
            failed = [c["name"] for c in out["checks"] if not c["ok"]]
            if not result["correct"] or failed:
                problems.append(f"{workload} trace={trace}: failed checks {failed}")
            if not any(c["name"].endswith("reference") for c in out["checks"]):
                problems.append(f"{workload} trace={trace}: no reference check ran")
            digests[(workload, trace)] = (out["report_digest"], out["verdict_digest"])
            log(f"self-check {workload} trace={trace}: attempted {result['attempted']}, "
                f"failed {result['failed']}, {len(result['metrics'])} metrics")
    if digests[("year", 0)][0] != digests[("live", 0)][0]:
        problems.append("year and live report digests differ")

    stray = dict(os.environ, CT_SAT_BACKEND="cdcl", CT_SAT_DELTA="0", CT_SCENARIO="routing",
                 CT_PLATFORM_SHARDS="4", CT_STREAMING="1")
    for workload in WORKLOADS:
        out = run_runner(runner, workload, seed, 1, 0, days, "small", env=stray)
        same = (out["report_digest"], out["verdict_digest"]) == digests[(workload, 0)]
        if not same:
            problems.append(f"{workload}: stray CT_* variables changed the output")
        log(f"self-check {workload} with stray CT_* variables: output "
            f"{'unchanged' if same else 'CHANGED'}")

    for p in problems:
        log("self-check FAILED:", p)
    print(json.dumps({"self_check": "passed" if not problems else "failed",
                      "problems": problems}))
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--days", type=int, default=DEFAULT_DAYS,
                   help="simulated days of the measurement schedule (364 = the paper year)")
    p.add_argument("--scenario", choices=("paper", "small"), default="paper")
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    try:
        if args.self_check:
            return self_check()
        if not args.workload:
            p.error("--workload is required")
        run_one(args)
        return 0
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
