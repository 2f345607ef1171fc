"""Time the dataset writer: the `nlaphase fraction` call after import, and the writer alone.

Compares source trees, each given as LABEL=PATH to a `src` directory (for example
a checkout of the parent commit and this one), and writes one JSON record.  For
each m (default 10000 and 100000; r, gain and n0 at their defaults 0.25, 2, 2)
and each format (json, csv) it times, per tree:

- `call_s`: `nlaphase.cli.main(["fraction", "--m", m, "--format", fmt, ...])` in an
  interpreter that has already imported `nlaphase.cli`;
- `write_s`: the tree's `cli._write_rows` alone, on what its `fraction` runner
  returns (rows or columns, whichever the tree's writer takes).

Each of RUNS rounds starts one fresh interpreter per tree, the trees taking turns
to go first, and times every case once.  Each timing is reported as its median
and quartiles with the sample count.  The first round also checks every dataset
the call wrote against an oracle built from the runner's columns (or rows):
`json.dump(rows, indent=2)` plus a newline, and `csv.DictWriter` over the rows.
The script exits 1 if a tree's bytes differ from the oracle, or from another
tree's.

    python3 benchmarks/writer_bench.py --tree before=PATH/src --tree after=src \\
        [--m 10000 --m 100000] [--runs 11] [--output benchmarks/BENCH_writer.json]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

CHILD_CODE = """
import csv, hashlib, io, json, os, sys, tempfile, time
import nlaphase.cli as cli

ms, check = json.loads(sys.argv[1]), sys.argv[2] == "1"
out = {"call_s": {}, "write_s": {}, "sha256": {}, "oracle_equal": {}}


def rows_of(result):
    if isinstance(result, list):
        return result
    columns = [v.tolist() if hasattr(v, "tolist") else list(v) for v in result.values()]
    return [dict(zip(result, row)) for row in zip(*columns)]


def oracle(rows, fmt):
    buf = io.StringIO()
    if fmt == "json":
        json.dump(rows, buf, indent=2)
        buf.write("\\n")
    else:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue().encode()


with tempfile.TemporaryDirectory() as tmp:
    for m in ms:
        params = {"m": m, "r": 0.25, "gain": 2.0, "n0": 2, "seed": 4}
        for fmt in ("json", "csv"):
            case = f"{fmt} m={m}"
            path = os.path.join(tmp, "fraction." + fmt)
            argv = ["fraction", "--m", str(m), "--format", fmt, "--output", path]
            start = time.perf_counter()
            code = cli.main(argv)
            out["call_s"][case] = time.perf_counter() - start
            if code != 0:
                sys.exit(f"{case}: exit {code}")
            with open(path, "rb") as fh:
                written = fh.read()
            out["sha256"][case] = hashlib.sha256(written).hexdigest()
            result = cli._RUNNERS["fraction"](params)
            start = time.perf_counter()
            cli._write_rows(path + ".alone", fmt, result)  # a new file, as the call wrote
            out["write_s"][case] = time.perf_counter() - start
            if check:
                out["oracle_equal"][case] = written == oracle(rows_of(result), fmt)
print(json.dumps(out))
"""


def python(src, *args):
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


def summary(samples):
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH",
                        help="a source directory to measure, under a label")
    parser.add_argument("--m", type=int, action="append",
                        help="samples per experiment, giving m + 1 rows (repeatable; "
                        "default 10000 and 100000)")
    parser.add_argument("--runs", type=int, default=11, help="fresh interpreters per tree")
    parser.add_argument("--output", default="benchmarks/BENCH_writer.json")
    args = parser.parse_args()
    trees = dict(tree.split("=", 1) for tree in args.tree)
    ms = args.m or [10000, 100000]

    rounds = {label: [] for label in trees}
    for i in range(args.runs):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for label in order:
            child = python(trees[label], "-c", CHILD_CODE, json.dumps(ms), "1" if i == 0 else "0")
            rounds[label].append(json.loads(child.stdout))

    record = {
        "label": "writer",
        "commands": {
            "this_record": "python3 benchmarks/writer_bench.py "
            + " ".join(f"--tree {label}={{{label}}}" for label in trees)
            + "".join(f" --m {m}" for m in ms)
            + f" --runs {args.runs} --output {args.output}",
            "round": "PYTHONPATH={tree} python3 -c CHILD_CODE '[m, ...]' CHECK "
            "(CHILD_CODE as in benchmarks/writer_bench.py)",
        },
        "host": {
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
        },
        "parameters": {"m": ms, "r": 0.25, "gain": 2.0, "n0": 2, "seed": 4},
        "trees": {},
    }
    for label, samples in rounds.items():
        cases = list(samples[0]["call_s"])
        record["trees"][label] = {
            "call_s": {case: summary([s["call_s"][case] for s in samples]) for case in cases},
            "write_s": {case: summary([s["write_s"][case] for s in samples]) for case in cases},
            "sha256": samples[0]["sha256"],
            "oracle_equal": samples[0]["oracle_equal"],
        }
    trees_out = record["trees"].values()
    record["oracle_equal"] = all(all(t["oracle_equal"].values()) for t in trees_out)
    record["bytes_equal"] = len({json.dumps(t["sha256"]) for t in trees_out}) == 1
    with open(args.output, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for label, tree in record["trees"].items():
        for case in tree["call_s"]:
            print(f"{label} {case}: call {tree['call_s'][case]['median'] * 1e3:.1f} ms, "
                  f"writer {tree['write_s'][case]['median'] * 1e3:.1f} ms")
    if not record["oracle_equal"]:
        sys.exit("a tree's dataset bytes differ from the json.dump / csv.DictWriter oracle")
    if not record["bytes_equal"]:
        sys.exit("the trees' dataset bytes differ")


if __name__ == "__main__":
    main()
