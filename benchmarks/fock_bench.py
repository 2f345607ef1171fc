"""Time the Fock path: the `nlaphase fisher-sweep --r 16` call and a warm `sweep_gain`.

Compares source trees, each given as LABEL=PATH to a `src` directory (for example
a checkout of the parent commit and this one), and writes one JSON record.  The
sweep is the `fisher-sweep-large-r` workload of perfbench: r = 16, n0 = 1..6 and
the default 40-point gain grid, so every point builds a coherent state, both
amplifier arms and their phase derivatives on cutoffs up to 17292 levels.  Per
tree it records:

- `call_s`: `nlaphase.cli.main(["fisher-sweep", "--r", "16", ...])`, the first
  call after `import nlaphase.cli` in a fresh interpreter (cold: cutoff scans,
  kept amplitudes and the allocator's heap all start empty);
- `call_minflt`: the minor page faults of that call (`ru_minflt` before and after);
- `warm_s` and `warm_minflt`: `fisher.sweep_gain(16, [1, ..., 6])` run once more
  in the same interpreter.

Each of RUNS rounds starts one fresh interpreter per tree, the trees taking turns
to go first.  Each figure is reported as its median and quartiles with the sample
count.  The script exits 1 if a tree's dataset differs from another tree's, or
from the sha256 that perfbench/digests.json records for the workload.

    python3 benchmarks/fock_bench.py --tree before=PATH/src --tree after=src \\
        [--runs 11] [--output benchmarks/BENCH_fock.json]
"""

import argparse
import json
import os
import platform
import sys
from importlib import metadata

from writer_bench import python, summary  # the same fresh interpreters and summaries

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD = "fisher-sweep-large-r"
ARGV = ["fisher-sweep", "--r", "16", "--n0-list", "1,2,3,4,5,6", "--seed", "4"]

CHILD_CODE = """
import hashlib, json, os, resource, sys, tempfile, time
import nlaphase.cli as cli
from nlaphase import fisher


def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


argv = json.loads(sys.argv[1])
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "fisher.csv")
    faults, start = minflt(), time.perf_counter()
    code = cli.main(argv + ["--output", path])
    call_s, call_minflt = time.perf_counter() - start, minflt() - faults
    if code != 0:
        sys.exit(f"fisher-sweep: exit {code}")
    with open(path, "rb") as fh:
        sha256 = hashlib.sha256(fh.read()).hexdigest()
faults, start = minflt(), time.perf_counter()
fisher.sweep_gain(16.0, [1, 2, 3, 4, 5, 6])
warm_s, warm_minflt = time.perf_counter() - start, minflt() - faults
print(json.dumps({"call_s": call_s, "call_minflt": call_minflt, "warm_s": warm_s,
                  "warm_minflt": warm_minflt, "sha256": sha256}))
"""

FIGURES = ("call_s", "call_minflt", "warm_s", "warm_minflt")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH",
                        help="a source directory to measure, under a label")
    parser.add_argument("--runs", type=int, default=11, help="fresh interpreters per tree")
    parser.add_argument("--output", default="benchmarks/BENCH_fock.json")
    args = parser.parse_args()
    trees = dict(tree.split("=", 1) for tree in args.tree)
    with open(os.path.join(ROOT, "perfbench", "digests.json")) as fh:
        recorded = json.load(fh)[WORKLOAD]["any"]

    rounds = {label: [] for label in trees}
    for i in range(args.runs):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for label in order:
            child = python(trees[label], "-c", CHILD_CODE, json.dumps(ARGV))
            rounds[label].append(json.loads(child.stdout))

    record = {
        "label": "fock",
        "commands": {
            "this_record": "python3 benchmarks/fock_bench.py "
            + " ".join(f"--tree {label}={{{label}}}" for label in trees)
            + f" --runs {args.runs} --output {args.output}",
            "round": "PYTHONPATH={tree} python3 -c CHILD_CODE 'ARGV' "
            "(CHILD_CODE and ARGV as in benchmarks/fock_bench.py)",
        },
        "host": {
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
        },
        "argv": ARGV,
        "recorded_sha256": recorded,
        "trees": {},
    }
    for label, samples in rounds.items():
        record["trees"][label] = {name: summary([s[name] for s in samples]) for name in FIGURES}
        record["trees"][label]["sha256"] = sorted({s["sha256"] for s in samples})
    digests = {digest for tree in record["trees"].values() for digest in tree["sha256"]}
    record["bytes_equal"] = digests == {recorded}
    with open(args.output, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for label, tree in record["trees"].items():
        print(f"{label}: call {tree['call_s']['median'] * 1e3:.1f} ms "
              f"({tree['call_minflt']['median']:.0f} minor faults), "
              f"warm sweep {tree['warm_s']['median'] * 1e3:.1f} ms "
              f"({tree['warm_minflt']['median']:.0f} minor faults)")
    if not record["bytes_equal"]:
        sys.exit(f"dataset sha256 {sorted(digests)} differ from each other or from the "
                 f"recorded {recorded}")


if __name__ == "__main__":
    main()
