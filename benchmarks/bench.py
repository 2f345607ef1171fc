"""Check and time one layer of nlaphase across source trees, and write a JSON record.

CASE names the layer:

- `kernel`: `kernels.categorical_counts`, each size timed once after one warm-up
  call: m = 1000 x 20000 runs (the m of the README `simulate` point, at the run
  count the old kernel_bench.py timed) and m = 20 x 50000 runs (the perfbench
  `mc-small-m` workload), with the minor page faults (`ru_minflt`) of the timed
  call and the tracemalloc peak of the same call made once more, traced (a warm
  call allocates the same arrays each time).  Check: on 200 runs at each m, the
  counts equal a per-run `bincount` of `searchsorted` over `uniform_stream`'s
  float uniforms.
- `setup`: what comes before any work: `import nlaphase.cli` as the first thing
  in a fresh interpreter (`import_s`); the cumulative `-X importtime`
  microseconds of `nlaphase.cli` and `numpy` in a second interpreter; then the
  240 `choose_cutoff` scans of `fisher-sweep --r 16 --n0-list 1,2,3,4,5,6`
  (default 40-gain grid), 5 times with the scan memo cleared before each
  (`choose_cutoff_s`, 5 samples per interpreter).  Check: every tree gives the
  same cutoffs.
- `writer`: per format (json, csv) at m = 10000 and m = 100000 (r, gain and n0
  at their defaults 0.25, 2, 2), the `nlaphase fraction` call after import
  (`call_s`) and `cli._write_rows` alone on the columns the runner returns
  (`write_s`); then per m the tail column alone, `fisher.binomial_tail(m, p_s,
  0..m)` at that point (`tail_s`).
  Check: the bytes equal `json.dump(rows, indent=2)` plus a newline, and
  `csv.DictWriter` over the same rows, and every tree writes the same bytes and
  tail column.
- `fock`: the `fisher-sweep --r 16 --n0-list 1,2,3,4,5,6` call as the first
  call after import (`call_s`), a warm `fisher.sweep_gain(16, [1, ..., 6])`
  after it (`warm_s`), and the minor page faults (`ru_minflt`) of each.  Check:
  every tree's dataset has the sha256 that perfbench/digests.json records for
  the `fisher-sweep-large-r` workload.
- `simulate`: the `mc-small-m` workload's call, `simulate --r 0.25 --gains
  1,2,8 --n0-list 1,2 --m 20 --runs 50000 --seed 4`, as the first call after
  import (`call_s`), with its minor page faults (`call_minflt`), and the
  tracemalloc peak of the same call made once more, traced (`call_peak_b`).
  Check: every tree's dataset has the seed-4 sha256 that perfbench/digests.json
  records for `mc-small-m`.

Each tree is given as LABEL=PATH to a `src` directory, for example a checkout
of the parent commit and this one.  Each of RUNS rounds starts one fresh
interpreter per tree (PYTHONPATH=PATH, one BLAS thread), the trees taking turns
to go first.  Each figure is reported as its median and quartiles with the
sample count.  The script exits 1 when a check fails, after writing the record.

    python3 benchmarks/bench.py CASE --tree LABEL=PATH [--tree LABEL=PATH ...] \\
        [--runs 11] [--output benchmarks/BENCH_<case>.json]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(os.path.dirname(HERE), "perfbench", "digests.json")

# Each child prints one JSON object: "figures" (name -> a number, or a list of
# samples taken in one interpreter), "sha256" (of the results the trees must
# agree on) and "failed" (messages of failed checks).
KERNEL = """
import hashlib, json, resource, time, tracemalloc
import numpy as np
from nlaphase.kernels import categorical_counts, derive_key, uniform_stream


def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


probs = np.array([0.0376, 0.0376, 0.4624, 0.4624, 0.0])  # five-outcome working point
key = derive_key(12345, 0)
out, digest = {"figures": {}, "failed": []}, hashlib.sha256()
for m in (1000, 20):
    got = categorical_counts(key, 3, 200, m, probs)
    # the float categorization of each draw, counted per run
    cat = np.searchsorted(np.cumsum(probs[:-1]), uniform_stream(key, 3 * m, 200 * m), side="right")
    want = np.array([np.bincount(row, minlength=probs.size) for row in cat.reshape(200, m)])
    if not np.array_equal(got, want):
        out["failed"].append(f"m={m}: counts differ from the uniform_stream reference")
    digest.update(got.astype(np.int64).tobytes())  # the counts, whatever type holds them
for m, runs in ((1000, 20000), (20, 50000)):
    categorical_counts(key, 0, runs, m, probs)  # warm-up
    faults, start = minflt(), time.perf_counter()
    categorical_counts(key, 0, runs, m, probs)
    seconds, faults = time.perf_counter() - start, minflt() - faults
    tracemalloc.start()
    categorical_counts(key, 0, runs, m, probs)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out["figures"].update({f"kernel_s m={m}": seconds, f"trials_per_s m={m}": runs * m / seconds,
                           f"kernel_minflt m={m}": faults, f"kernel_peak_b m={m}": peak})
out["sha256"] = digest.hexdigest()
print(json.dumps(out))
"""

SETUP = """
import time
start = time.perf_counter()
import nlaphase.cli
import_s = time.perf_counter() - start
import hashlib, json, subprocess, sys
from nlaphase import CoherentParams, choose_cutoff, default_gain_grid, fock

# `import time: self [us] | cumulative | imported package`: the first line per module
found = {}
stderr = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nlaphase.cli"],
                        capture_output=True, text=True, check=True).stderr
for line in stderr.splitlines():
    parts = line.split("|")
    if len(parts) == 3 and parts[1].strip().isdigit():
        found.setdefault(parts[2].strip(), int(parts[1]))
figures = {"import_s": import_s}
for name in ("nlaphase.cli", "numpy"):
    figures[name + "_us"] = found.get(name, 0)

points = [(n0, float(g)) for n0 in range(1, 7) for g in default_gain_grid()]
figures["choose_cutoff_s"] = []
for _ in range(5):
    fock._scan_cutoff.cache_clear()
    start = time.perf_counter()
    cutoffs = [choose_cutoff(CoherentParams(16.0), n0, g) for n0, g in points]
    figures["choose_cutoff_s"].append(time.perf_counter() - start)
print(json.dumps({"figures": figures, "failed": [],
                  "sha256": hashlib.sha256(json.dumps(cutoffs).encode()).hexdigest()}))
"""

WRITER = """
import csv, hashlib, io, json, os, sys, tempfile, time
import numpy as np
import nlaphase.cli as cli
from nlaphase import NlaParams, branch_breakdown, fisher

out, digest = {"figures": {}, "failed": []}, hashlib.sha256()
p_s = branch_breakdown(0.25, NlaParams(2.0, 2)).p_s
with tempfile.TemporaryDirectory() as tmp:
    for m in (10000, 100000):
        params = {"m": m, "r": 0.25, "gain": 2.0, "n0": 2, "seed": 4}
        for fmt in ("json", "csv"):
            case, path = f"{fmt} m={m}", os.path.join(tmp, "fraction." + fmt)
            start = time.perf_counter()
            code = cli.main(["fraction", "--m", str(m), "--format", fmt, "--output", path])
            out["figures"]["call_s " + case] = time.perf_counter() - start
            if code != 0:
                sys.exit(f"{case}: exit {code}")
            with open(path, "rb") as fh:
                written = fh.read()
            digest.update(written)
            result = cli._RUNNERS["fraction"](params)
            start = time.perf_counter()
            cli._write_rows(path + ".alone", fmt, result)  # a new file, as the call wrote
            out["figures"]["write_s " + case] = time.perf_counter() - start
            rows = [dict(zip(result, row)) for row in zip(*(c.tolist() for c in result.values()))]
            buf = io.StringIO()
            if fmt == "json":
                json.dump(rows, buf, indent=2)
                buf.write("\\n")
            else:
                writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
            if written != buf.getvalue().encode():
                oracle = "json.dump" if fmt == "json" else "csv.DictWriter"
                out["failed"].append(f"{case}: bytes differ from the {oracle} oracle")
        start = time.perf_counter()
        tails = fisher.binomial_tail(m, p_s, np.arange(m + 1))
        out["figures"][f"tail_s m={m}"] = time.perf_counter() - start
        digest.update(tails.tobytes())
out["sha256"] = digest.hexdigest()
print(json.dumps(out))
"""

# the first CLI call after import (`call_s`) with its minor page faults
# (`call_minflt`), and the sha256 of the dataset it writes
FIRST_CALL = """
import hashlib, json, os, resource, sys, tempfile, time
import nlaphase.cli as cli


def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "dataset.csv")
    faults, start = minflt(), time.perf_counter()
    code = cli.main(ARGV + ["--output", path])
    figures = {"call_s": time.perf_counter() - start, "call_minflt": minflt() - faults}
    if code != 0:
        sys.exit(f"{ARGV[0]}: exit {code}")
    with open(path, "rb") as fh:
        sha256 = hashlib.sha256(fh.read()).hexdigest()
"""

FOCK = 'ARGV = ["fisher-sweep", "--r", "16", "--n0-list", "1,2,3,4,5,6", "--seed", "4"]' + FIRST_CALL + """
from nlaphase import fisher

faults, start = minflt(), time.perf_counter()
fisher.sweep_gain(16.0, [1, 2, 3, 4, 5, 6])
figures.update({"warm_s": time.perf_counter() - start, "warm_minflt": minflt() - faults})
print(json.dumps({"figures": figures, "sha256": sha256, "failed": []}))
"""

SIMULATE = ('ARGV = ["simulate", "--r", "0.25", "--gains", "1,2,8", "--n0-list", "1,2", "--m", "20", '
            '"--runs", "50000", "--seed", "4"]') + FIRST_CALL + """
import tracemalloc

with tempfile.TemporaryDirectory() as tmp:
    tracemalloc.start()
    cli.main(ARGV + ["--output", os.path.join(tmp, "dataset.csv")])
    figures["call_peak_b"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
print(json.dumps({"figures": figures, "sha256": sha256, "failed": []}))
"""

CASES = {"kernel": KERNEL, "setup": SETUP, "writer": WRITER, "fock": FOCK, "simulate": SIMULATE}
# cases whose dataset must have the sha256 that perfbench/digests.json records: (workload, seed key)
RECORDED = {"fock": ("fisher-sweep-large-r", "any"), "simulate": ("mc-small-m", "4")}


def labelled_tree(text):
    label, sep, path = text.partition("=")
    if not (label and sep and os.path.isdir(path)):
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH to a source directory, got {text!r}")
    return label, path


def positive(text):
    if not (text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def child(src, code):
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"the child interpreter on {src} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def samples_of(figure):
    return figure if isinstance(figure, list) else [figure]


def summary(samples):
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("case", choices=CASES)
    parser.add_argument("--tree", action="append", required=True, type=labelled_tree,
                        metavar="LABEL=PATH", help="a source directory to measure (repeatable)")
    parser.add_argument("--runs", type=positive, default=11, help="fresh interpreters per tree")
    parser.add_argument("--output", help="default benchmarks/BENCH_<case>.json")
    args = parser.parse_args()
    trees = dict(args.tree)
    if len(trees) < len(args.tree):
        parser.error("each --tree needs its own label")
    output = args.output or os.path.join(HERE, f"BENCH_{args.case}.json")

    rounds = {label: [] for label in trees}
    for i in range(args.runs):
        for label in list(trees) if i % 2 == 0 else list(trees)[::-1]:
            rounds[label].append(child(trees[label], CASES[args.case]))

    record = {
        "case": args.case,
        "commands": {
            "this_record": f"python3 benchmarks/bench.py {args.case} "
            + " ".join(f"--tree {label}={{{label}}}" for label in trees)
            + f" --runs {args.runs}",
            "round": f"PYTHONPATH={{tree}} python3 -c CHILD "
            f"(the {args.case} case of benchmarks/bench.py)",
        },
        "host": {
            "platform": platform.platform(),
            # the CPUs the children may run on, which the sampling kernel uses
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
        },
        "trees": {},
    }
    failed = []
    for label, samples in rounds.items():
        names = samples[0]["figures"]
        record["trees"][label] = {
            "figures": {name: summary([v for s in samples for v in samples_of(s["figures"][name])])
                        for name in names},
            "sha256": sorted({s["sha256"] for s in samples}),
        }
        messages = dict.fromkeys(message for s in samples for message in s["failed"])
        failed += [f"{label}: {message}" for message in messages]
    digests = sorted({digest for tree in record["trees"].values() for digest in tree["sha256"]})
    if args.case in RECORDED:
        workload, seed = RECORDED[args.case]
        with open(DIGESTS) as fh:
            record["recorded_sha256"] = json.load(fh)[workload][seed]
        if digests != [record["recorded_sha256"]]:
            failed.append(f"sha256 {digests} differ from the recorded {record['recorded_sha256']}")
    elif len(digests) > 1:
        failed.append(f"the trees' results differ: sha256 {digests}")
    record["failed"] = failed
    with open(output, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for label, measured in record["trees"].items():
        medians = (f"{name} {s['median']:.4g}" for name, s in measured["figures"].items())
        print(f"{label}: " + ", ".join(medians))
    if failed:
        sys.exit("\n".join(failed))


if __name__ == "__main__":
    main()
