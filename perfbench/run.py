#!/usr/bin/env python3
"""End-to-end benchmark of the DCRD simulator.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds perfbench/ (the
simulator libraries from src/ plus the dcrd_perfbench program) into
.bench_build/; later calls only check that the build is current.

One operation is one process running one scenario of the workload through
RunScenario (for baselines160: all four baseline routers). Operations run one
at a time (closed loop) on one thread each.

--trace 0 measures the end-to-end metrics named in BENCHMARK.json: set-up
time (repeated scenarios at zero simulated time) and then full operations for
--seconds seconds over scenario seeds derived from --seed, plus one repeat of
the first seed so every run checks that a RunSummary is reproducible.

--trace 1 measures the per-layer metrics: dcrd_perfbench rebuilds the
single-shard engine from public components, times each call into a layer and
checks that it reproduces RunScenario field for field. It also runs the
scenario on four shards, reads the shard profile (shard.*) and checks that
four shards reproduce the one-shard result. Per-router figures of
baselines160 are printed as context lines, not as metrics.

Every operation also times a fixed CPU-bound calibration loop; it is printed
with the operation as a record of how fast the host ran, not as a metric.
The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "dcrd_perfbench")

# BENCHMARK.json names paper160 and lossy40_fast. baselines160 (four routers,
# about 9 s per operation) gets too few operations into one run to be steady
# on a shared host, so it is run by hand and by the self-tests only.
WORKLOADS = ("paper160", "lossy40_fast", "baselines160")
# Set-up is timed at least SETUP_MIN times and until SETUP_SECONDS have
# passed (at most SETUP_MAX times), so a set-up of a few milliseconds still
# gets a steady median. It cycles over the first SETUP_SEEDS scenario seeds.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS, SETUP_SEEDS = 3, 15, 2.0, 3
# Every operation of a run must end this many seconds after the build, so a
# hung operation still leaves the run inside its time limit.
RUN_LIMIT_S = 160
# Distinct scenario seeds one run may use.
MAX_SCENARIOS = 1000
_deadline = None


class BuildError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def ensure_build():
    """Configures and builds dcrd_perfbench; raises BuildError on failure.

    A build tree that no longer builds (say, a configure step cut short) is
    removed and built once more from the start.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BuildError("no simulator sources under src/")
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    build = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    for attempt in range(2):
        fresh = not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
        for step in ([configure] if fresh else []) + [build]:
            result = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT, text=True)
            if result.returncode != 0:
                break
        else:
            return
        if fresh or attempt == 1:
            raise BuildError(result.stdout[-4000:])
        shutil.rmtree(BUILD_DIR)


def run_op(mode, workload, seed, sim_seconds=None, extra=()):
    """Runs one dcrd_perfbench operation; returns its JSON or None."""
    cmd = [BINARY, mode, "--workload", workload, "--seed", str(seed)]
    if sim_seconds is not None:
        cmd += ["--sim_seconds", str(sim_seconds)]
    cmd += list(extra)
    timeout = (RUN_LIMIT_S if _deadline is None
               else max(1.0, _deadline - time.monotonic()))
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{mode} {workload} seed {seed}: timed out")
        return None
    if result.returncode != 0:
        log(f"{mode} {workload} seed {seed}: exit {result.returncode}\n"
            f"{result.stderr[-2000:]}")
        return None
    try:
        return json.loads(result.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"{mode} {workload} seed {seed}: unreadable output")
        return None


def scenario_seed(seed, index):
    """The index-th scenario seed of a run; distinct across runs."""
    return seed * MAX_SCENARIOS + index + 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, result, what):
        self.attempted += 1
        if result is None:
            self.failures.append(f"{what}: operation failed")
        return result

    def fail(self, reason):
        self.failures.append(reason)


def measure_e2e(workload, seed, seconds, sim_seconds=None):
    """--trace 0: returns (metrics, tally)."""
    tally = Tally()
    setups = []  # (scenario seed, result)
    start = time.monotonic()
    for count in range(SETUP_MAX):
        s = scenario_seed(seed, count % SETUP_SEEDS)
        r = tally.op(run_op("setup", workload, s), f"setup {s}")
        if r is not None:
            setups.append((s, r))
        if (count + 1 >= SETUP_MIN
                and time.monotonic() - start >= SETUP_SECONDS):
            break

    ops = []  # (scenario seed, result)
    start = time.monotonic()
    index = 0
    while True:
        s = scenario_seed(seed, index)
        r = tally.op(run_op("run", workload, s, sim_seconds), f"run {s}")
        if r is not None:
            ops.append((s, r))
        index += 1
        # Room left for one more seed and the closing repeat?
        elapsed = time.monotonic() - start
        if (elapsed * (index + 2) / index > seconds
                or index == MAX_SCENARIOS):
            break
    # Repeat the first scenario so every run checks reproducibility.
    s0 = scenario_seed(seed, 0)
    r = tally.op(run_op("run", workload, s0, sim_seconds), f"repeat {s0}")
    if r is not None:
        ops.append((s0, r))
    for kind, results in (("set-up", setups), ("run", ops)):
        digests = {}
        for s, r in results:
            if digests.setdefault(s, r["digest"]) != r["digest"]:
                tally.fail(f"{kind} RunSummary of seed {s} differs between "
                           "runs")

    for s, r in ops:
        print(f"op seed={s} wall_s={r['wall_s']:.4f} cpu_s={r['cpu_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} "
              f"calib_s={r['calib_s']:.4f} digest={r['digest']}")
    for s, r in setups:
        print(f"setup seed={s} wall_s={r['wall_s']:.4f} "
              f"calib_s={r['calib_s']:.4f}")
    if not ops or not setups:
        return None, tally
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for _, r in ops),
        "cpu_s": statistics.median(r["cpu_s"] for _, r in ops),
        "setup_s": statistics.median(r["wall_s"] for _, r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for _, r in ops),
    }
    return metrics, tally


def measure_layers(workload, seed, seconds, sim_seconds=None):
    """--trace 1: returns (metrics, tally); medians over traced operations."""
    tally = Tally()
    profile = os.path.join(BUILD_DIR, f"shard-profile-{workload}.json")
    samples = []
    start = time.monotonic()
    index = 0
    while True:
        s = scenario_seed(seed, index)
        r = tally.op(run_op("trace", workload, s, sim_seconds,
                            ["--profile", profile]), f"trace {s}")
        if r is not None:
            for failure in r["failures"]:
                tally.fail(f"seed {s}: {failure}")
            samples.append(r["metrics"])
            print(f"traced seed={s} "
                  + " ".join(f"{x['router']}={x['digest']}"
                             for x in r["summaries"]))
        index += 1
        elapsed = time.monotonic() - start
        if (elapsed * (index + 1) / index > seconds
                or index == MAX_SCENARIOS):
            break
    if not samples:
        return None, tally
    names = set().union(*samples)
    return {n: statistics.median(m.get(n, 0.0) for m in samples)
            for n in names}, tally


def select_metrics(measured, declared, tally):
    """Keeps the declared metrics with their units; prints the rest."""
    out = {}
    for entry in declared:
        name = entry["name"]
        if name not in measured:
            tally.fail(f"metric {name} was not measured")
            continue
        out[name] = {"value": measured[name], "unit": entry["unit"]}
    extra = sorted(set(measured) - set(out))
    if extra:
        print("context " + " ".join(f"{n}={measured[n]:.6g}" for n in extra))
    return out


def run_benchmark(workload, seed, seconds, trace, sim_seconds=None):
    """Builds, measures and returns the result object."""
    global _deadline
    spec = load_spec()
    ensure_build()
    _deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        measured, tally = measure_layers(workload, seed, seconds, sim_seconds)
        declared = spec["per_layer"]
    else:
        measured, tally = measure_e2e(workload, seed, seconds, sim_seconds)
        declared = spec["end_to_end"]
    metrics = select_metrics(measured or {}, declared, tally)
    for reason in tally.failures:
        log(f"FAILED: {reason}")
    failed = min(len(tally.failures), tally.attempted)
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               args.trace)
    except (BuildError, OSError, ValueError) as e:
        log(f"benchmark could not run: {e}")
        return 1
    print(f"workload {args.workload}: "
          + " ".join(f"{n}={v['value']:.6g} {v['unit']}"
                     for n, v in result["metrics"].items())
          + f" runs={result['attempted']} count"
          + f" runs_failed={result['failed']} count")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
