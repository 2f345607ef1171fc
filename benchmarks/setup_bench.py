"""Time what a user waits for before any work: the import of nlaphase.cli and the cutoff scans.

Compares source trees, each given as LABEL=PATH to a `src` directory (for example
a checkout of the parent commit and this one), and writes one JSON record:

- `import_s`: `import nlaphase.cli` in a fresh interpreter, RUNS times per tree, the
  trees taking turns to go first;
- `importtime`: the cumulative `-X importtime` microseconds of `nlaphase.cli`, of
  `scipy.special` (0 where it is not imported) and of `numpy`, and the scipy.special
  share, over RUNS // 2 + 1 fresh interpreters per tree;
- `choose_cutoff_s`: the 240 `choose_cutoff` calls of `fisher-sweep --r 16
  --n0-list 1,2,3,4,5,6` (default 40-gain grid), with the scan memo cleared before
  each repetition, RUNS repetitions in one process per tree.

Each timing is reported as its median and quartiles with the sample count.  The
script exits 1 if the trees' cutoffs on that grid differ.

    python3 benchmarks/setup_bench.py --tree before=PATH/src --tree after=src \\
        [--runs 25] [--output benchmarks/BENCH_setup.json]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

IMPORT_CODE = "import time; t = time.perf_counter(); import nlaphase.cli; print(time.perf_counter() - t)"
IMPORTTIME_CODE = "import nlaphase.cli"
CUTOFF_CODE = """
import json, sys, time
from nlaphase import CoherentParams, choose_cutoff, default_gain_grid, fock
points = [(n0, float(g)) for n0 in range(1, 7) for g in default_gain_grid()]
times = []
for _ in range(int(sys.argv[1])):
    fock._scan_cutoff.cache_clear()
    start = time.perf_counter()
    cutoffs = [choose_cutoff(CoherentParams(16.0), n0, g) for n0, g in points]
    times.append(time.perf_counter() - start)
print(json.dumps({"times": times, "cutoffs": cutoffs}))
"""
MODULES = ("nlaphase.cli", "scipy.special", "numpy")


def python(src, *args):
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


def summary(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def cumulative_us(stderr):
    # `import time: self [us] | cumulative | imported package`: the first line per module
    found = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found.setdefault(parts[2].strip(), int(parts[1]))
    return {name: found.get(name, 0) for name in MODULES}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH",
                        help="a source directory to measure, under a label")
    parser.add_argument("--runs", type=int, default=25, help="fresh interpreters per tree")
    parser.add_argument("--output", default="benchmarks/BENCH_setup.json")
    args = parser.parse_args()
    trees = dict(tree.split("=", 1) for tree in args.tree)

    imports = {label: [] for label in trees}
    importtimes = {label: [] for label in trees}
    for i in range(args.runs):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for label in order:
            imports[label].append(float(python(trees[label], "-c", IMPORT_CODE).stdout))
            if i % 2 == 0:
                importtimes[label].append(cumulative_us(python(trees[label], "-X", "importtime", "-c", IMPORTTIME_CODE).stderr))

    record = {
        "label": "setup",
        "commands": {
            "this_record": "python3 benchmarks/setup_bench.py "
            + " ".join(f"--tree {label}={{{label}}}" for label in trees)
            + f" --runs {args.runs} --output {args.output}",
            "import_s": f'PYTHONPATH={{tree}} python3 -c "{IMPORT_CODE}"',
            "importtime": f'PYTHONPATH={{tree}} python3 -X importtime -c "{IMPORTTIME_CODE}"',
            "choose_cutoff_s": f"PYTHONPATH={{tree}} python3 -c CUTOFF_CODE {args.runs} "
            "(CUTOFF_CODE as in benchmarks/setup_bench.py)",
        },
        "host": {
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
        },
        "trees": {},
    }
    cutoffs = {}
    for label, src in trees.items():
        scan = json.loads(python(src, "-c", CUTOFF_CODE, str(args.runs)).stdout)
        cutoffs[label] = scan["cutoffs"]
        shares = [t["scipy.special"] / t["nlaphase.cli"] for t in importtimes[label]]
        record["trees"][label] = {
            "import_s": summary(imports[label]),
            "importtime": {
                **{f"{name}_us": summary([t[name] for t in importtimes[label]]) for name in MODULES},
                "scipy_special_share": summary(shares),
            },
            "choose_cutoff_s": summary(scan["times"]),
        }
    record["cutoffs_equal"] = len({json.dumps(c) for c in cutoffs.values()}) == 1
    with open(args.output, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for label, tree in record["trees"].items():
        print(f"{label}: import {tree['import_s']['median']:.4f} s, scipy.special share "
              f"{tree['importtime']['scipy_special_share']['median']:.2f}, choose_cutoff "
              f"{tree['choose_cutoff_s']['median'] * 1e3:.2f} ms")
    if not record["cutoffs_equal"]:
        sys.exit("the trees' cutoffs differ on the fisher-sweep grid")


if __name__ == "__main__":
    main()
