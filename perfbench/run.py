"""End-to-end and per-layer benchmark of the nlaphase command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the checkout root; it imports nlaphase from `src/` and nothing else.
Each invocation of `nlaphase.cli.main(argv)` runs in a fresh interpreter
(perfbench/child.py) with NLAPHASE_BACKEND=numpy and one BLAS thread, one at a
time, so the load is one single-threaded process (a closed loop of one client).
For S seconds the run repeats: one timed call, then an untimed `nlaphase rerun`
of the manifest it wrote.  Every call must exit 0, write the same bytes as the
first call, match the recorded sha256 in perfbench/digests.json when one exists
for the (workload, seed) pair, and be reproduced byte for byte by its rerun.

With --trace 0 the calls are untraced and the end-to-end metrics are reported.
An untraced call's time is gated as `wall_probes`: its wall time in units of a
fixed probe that child.SpeedProbe times during the call, so that the host's
drifting CPU speed cancels out; each workload names the probe kinds that do the
work of its dominant layers.  With --trace 1 untraced and traced calls
alternate; the traced ones wrap every binding in perfbench/layers.py and report
per-layer counts and self times, and `trace.overhead_s` is the traced minus the
untraced median wall time.  Timings are medians over the calls of the run.

The next-to-last stdout line holds every metric computed (by name, with unit),
each layer's share of the traced wall time, the problems found and the
environment.  The last line is the result object named in BENCHMARK.json.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src", "nlaphase")
CHILD_TIMEOUT_S = 150

sys.path.insert(0, HERE)
from layers import BINDINGS, binding_id  # noqa: E402


@dataclass(frozen=True)
class Workload:
    argv: list  # CLI arguments before --seed and --output
    rows: int  # dataset rows the command writes
    rate: str  # name of the throughput metric
    items: int  # units of work per call that the rate counts
    probe: str  # child.PROBES kinds, joined by +, that do the work of the dominant layers
    runs: int = 0  # Monte Carlo runs per grid point (simulate only)


def _trials(runs, m, points):
    # one direct experiment plus one per grid point, each runs x m categorical trials
    return runs * m * (points + 1)


WORKLOADS = {
    "mc-readme": Workload(
        ["simulate", "--gains", "1,1.5,2,3", "--n0-list", "1,2,3", "--m", "1000", "--runs", "2000"],
        12, "trials_per_s", _trials(2000, 1000, 12), "numpy", runs=2000),
    "mc-small-m": Workload(
        ["simulate", "--r", "0.25", "--gains", "1,2,8", "--n0-list", "1,2", "--m", "20", "--runs", "50000"],
        6, "trials_per_s", _trials(50000, 20, 6), "estimator+numpy", runs=50000),
    "fisher-sweep-large-r": Workload(
        ["fisher-sweep", "--r", "16", "--n0-list", "1,2,3,4,5,6"],
        6 * 40, "points_per_s", 6 * 40, "gammainc"),
    "fraction-large-m": Workload(
        ["fraction", "--m", "10000", "--r", "0.25", "--gain", "2", "--n0", "2", "--format", "json"],
        10001, "rows_per_s", 10001, "python"),
}

SUFFIX_UNITS = [("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"), ("_bytes", "B")]


class SetupError(RuntimeError):
    """The program could not be started from this checkout."""


def unit_of(name, declared):
    if name in declared:
        return declared[name]
    return next((unit for suffix, unit in SUFFIX_UNITS if name.endswith(suffix)), "count")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["NLAPHASE_BACKEND"] = "numpy"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = "1"
    return env


def invoke(argv, mode="plain", option=None):
    """Run one child interpreter and return its result object.

    mode is plain (option: the probe kind, or None for no probe) or traced
    (option: the file for the spans, or None).
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode]
    cmd += [option] if option else []
    try:
        proc = subprocess.run(cmd + ["--", *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": None, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        out = {"exit": proc.returncode}
    if proc.returncode != 0 and "error" not in out:
        out["error"] = f"child exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return out


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def source_digest():
    h = hashlib.sha256()
    for name in sorted(os.listdir(SOURCE)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(SOURCE, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # not a git checkout; source_sha256 identifies the code
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def recorded_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as fh:
        table = json.load(fh)[workload]
    return table.get("any", table.get(str(seed)))


def read_rows(path, fmt):
    with open(path, newline="") as fh:
        return json.load(fh) if fmt == "json" else list(csv.DictReader(fh))


def check_dataset(rows, spec):
    """Invariants of the dataset that hold for every seed."""
    problems = []
    if len(rows) != spec.rows:
        problems.append(f"{len(rows)} rows, expected {spec.rows}")
    if spec.argv[0] == "simulate":
        for row in rows:
            values = {k: float(v) for k, v in row.items()}
            if not all(math.isfinite(v) for v in values.values()):
                problems.append(f"non-finite value in row {row}")
            elif not (values["precision_direct"] > 0 and values["precision_nla"] > 0):
                problems.append(f"nonpositive precision in row {row}")
            elif not all(1 <= values[k] <= spec.runs for k in ("runs_used_direct", "runs_used_nla")):
                problems.append(f"runs_used outside [1, {spec.runs}] in row {row}")
    return problems


class Run:
    """The calls of one benchmark run and what was checked about them."""

    def __init__(self, workload, seed, work):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.fmt = "json" if "json" in self.spec.argv else "csv"
        self.output = os.path.join(work, "out." + self.fmt)
        self.trace_file = os.path.join(os.path.dirname(work), f"trace-{workload}.json")
        self.expected = recorded_digest(workload, seed)
        self.first = None
        self.calls = {False: [], True: []}  # traced? -> child results of timed calls
        self.setups = []
        self.problems = []
        self.failed = 0
        self.dataset = {}

    def call(self, trace):
        argv = self.spec.argv + ["--seed", str(self.seed), "--output", self.output]
        keep_spans = trace and not self.calls[True]
        if trace:
            out = invoke(argv, "traced", self.trace_file if keep_spans else None)
        else:
            out = invoke(argv, "plain", self.spec.probe)
        problems = self.check(out, trace)
        if problems:
            self.failed += 1
            self.problems += [f"{'traced' if trace else 'untraced'} call: {p}" for p in problems]
        self.calls[trace].append(out)

    def check(self, out, trace):
        if "error" in out or out.get("exit") != 0:
            return [f"exit {out.get('exit')}: {out.get('error', '')}".strip()]
        self.setups.append(out["setup_s"])
        problems = []
        digest = sha256(self.output)
        if self.expected is not None and digest != self.expected:
            problems.append(f"sha256 {digest} differs from the recorded {self.expected}")
        if self.first is None:
            self.first = digest
            rows = read_rows(self.output, self.fmt)
            self.dataset = {"cli.output_bytes": os.path.getsize(self.output), "cli.rows": len(rows)}
            problems += check_dataset(rows, self.spec)
        elif digest != self.first:
            problems.append("dataset bytes differ from the first call of this run")
        if trace:
            problems += self.check_trace(out["trace"])
        again = invoke(["rerun", "--manifest", self.output + ".manifest.json",
                        "--output", self.output + ".rerun"])
        if "error" in again or again.get("exit") != 0:
            problems.append(f"rerun exit {again.get('exit')}: {again.get('error', '')}")
        else:
            self.setups.append(again["setup_s"])
            if sha256(self.output + ".rerun") != digest:
                problems.append("rerun did not reproduce the dataset bytes")
        return problems

    def check_trace(self, trace):
        problems = [
            f"span coverage: binding {binding_id(mod, attr, key)} recorded no call"
            for mod, attr, key, _, workloads in BINDINGS
            if self.name in workloads and trace["hits"][binding_id(mod, attr, key)] < 1
        ]
        earlier = [c["trace"]["hits"] for c in self.calls[True] if "trace" in c]
        if earlier and trace["hits"] != earlier[0]:
            problems.append("binding call counts differ between traced calls")
        return problems

    @property
    def attempted(self):
        return len(self.calls[False]) + len(self.calls[True])


def _median(values):
    # counts stay whole numbers: they repeat exactly, so the low median is the count
    exact = all(isinstance(v, int) for v in values)
    return statistics.median_low(values) if exact else statistics.median(values)


def median_of(calls, key):
    values = [c[key] for c in calls if key in c]
    return statistics.median(values) if values else math.nan


def wall_probes(call):
    return call["wall_s"] / call["probe_s"]


def end_to_end(run):
    timed = [c for c in run.calls[False] if "probe_s" in c]
    wall = median_of(timed, "wall_s")
    return {
        "wall_probes": statistics.median(map(wall_probes, timed)) if timed else math.nan,
        "wall_s": wall,
        "probe_s": median_of(timed, "probe_s"),
        "setup_s": statistics.median(run.setups) if run.setups else math.nan,
        "peak_rss_mb": median_of(run.calls[False], "rss_mb"),
        run.spec.rate: run.spec.items / wall,
        "failed_ratio": run.failed / run.attempted,
    }


def layer_values(trace, wall):
    stats = trace["stats"]
    values = {}
    for span, st in stats.items():
        values[span + ".calls"] = st["calls"]
        values[span + ".self_s"] = st["self_s"]
    kernel_s = stats["kernels.categorical_counts"]["self_s"]
    attempted = trace["runs_attempted"]
    values.update({
        "fock.cutoff_max": trace["cutoff_max"],
        "estimator.nodata": stats["estimator.mle"]["raised"].get("NoDataError", 0),
        "kernels.trials": trace["trials"],
        "kernels.trials_per_s": trace["trials"] / kernel_s if kernel_s else 0.0,
        "montecarlo.runs_used_ratio": trace["runs_used"] / attempted if attempted else 0.0,
        "trace.wall_s": wall,
    })
    return values


def per_layer(run):
    traced = [c for c in run.calls[True] if "trace" in c]
    if not traced:
        return {}
    each = [layer_values(c["trace"], c["wall_s"]) for c in traced]
    values = {k: _median([v[k] for v in each]) for k in each[0]}
    values["trace.overhead_s"] = values["trace.wall_s"] - median_of(run.calls[False], "wall_s")
    values.update(run.dataset)
    return values


def measure(workload, seed, seconds, trace):
    work = os.path.join(HERE, "work", f"{workload}-seed{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        warm = invoke([])  # fills bytecode and page caches; its import time is not counted
        if "error" in warm:
            raise SetupError(f"cannot import nlaphase.cli from {SOURCE}: {warm['error']}")
        if warm["source"] != os.path.realpath(SOURCE):
            raise SetupError(f"nlaphase imported from {warm['source']}, not {SOURCE}")
        run = Run(workload, seed, work)
        start = time.perf_counter()
        longest = 0.0
        # start another call while its predicted midpoint falls inside the run
        while run.attempted < 1 + trace or time.perf_counter() - start + longest / 2 < seconds:
            began = time.perf_counter()
            run.call(trace and run.attempted % 2 == 1)
            longest = max(longest, time.perf_counter() - began)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = dict(warm["env"], cpus=len(os.sched_getaffinity(0)), git_commit=git_commit(),
               source_sha256=source_digest())
    return run, env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=4, help="master seed passed to the CLI")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long to keep calling")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    reported = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    try:
        run, env = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2

    values = end_to_end(run)
    values.update(per_layer(run))
    wall = values.get("trace.wall_s")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "argv": WORKLOADS[args.workload].argv,
        "call_wall_s": [c.get("wall_s") for c in run.calls[False]],
        "call_wall_probes": [wall_probes(c) for c in run.calls[False] if "probe_s" in c],
        "traced_call_wall_s": [c.get("wall_s") for c in run.calls[True]],
        "env": env,
        "problems": run.problems[:20],
        "metrics": {k: {"value": v, "unit": unit_of(k, units)} for k, v in sorted(values.items())},
        "self_share": {k[: -len(".self_s")]: v / wall for k, v in sorted(values.items())
                       if k.endswith(".self_s") and wall},
    }
    print(json.dumps(summary))
    missing = [name for name in reported if name not in values]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in reported},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
