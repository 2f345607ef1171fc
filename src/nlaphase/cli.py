"""Command-line front end: figure datasets, Monte Carlo driving, cost reports.

Each `run_<command>` computes its dataset from the checked parameters and nothing
else: a column table (name -> column), or for `cost` one report.  `main`
resolves and checks every value (flag, config or manifest) through one cast per
field, writes the dataset, and picks the exit code.  Every dataset
written to a file gets a sidecar `<output>.manifest.json` holding the fully
resolved parameter set; `nlaphase rerun --manifest <file>` re-executes it through
the same checks and reproduces the dataset byte for byte.  Numeric CSV/JSON
output uses the shortest representation that parses back to the exact double.

Exit codes: 0 success, 2 invalid configuration, 3 I/O failure, 4 numerical
degeneracy under --strict.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import replace
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, kernels
from .cost import CostParams, recommend_strategy
from .errors import NoBreakevenError, as_float, as_int, as_seed
from .fisher import (
    _grid_columns,
    branch_breakdown,
    default_gain_grid,
    qfi_coherent,
    sweep_fraction,
    sweep_gain,
)
from .montecarlo import SimConfig, simulate_direct, simulate_nla
from .nla import NlaParams, heralding_probabilities

class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


def _int(raw) -> int:
    """An int from flag text or a JSON number, checked by `errors.as_int`.

    Text goes through int(), and an integral float such as 300.0, a common JSON
    spelling, becomes that int; every other value is as_int's to pass or refuse,
    so bools and non-integral floats raise instead of being truncated.
    """
    if isinstance(raw, str) or (isinstance(raw, float) and raw.is_integer()):
        raw = int(raw)
    return as_int(None, raw)


def _float(raw) -> float:
    """A float from flag text or a JSON number, checked by `errors.as_float`.

    Text goes through float(); every other value is as_float's to pass or
    refuse, so a JSON true or false raises instead of becoming 1.0 or 0.0, and
    NaN or an infinity, as text or as JSON, raises before any work.
    """
    if isinstance(raw, str):
        raw = float(raw)
    return as_float(None, raw)


def _nonempty_list(cast: Callable) -> Callable:
    """Cast for a JSON list or a comma-separated string of values."""

    def parse(raw) -> list:
        if isinstance(raw, str):
            raw = [part for part in raw.split(",") if part.strip()]
        values = [cast(v) for v in raw]
        if not values:
            raise ValueError("must be nonempty")
        return values

    return parse


def _seed(raw) -> int:
    return as_seed(None, _int(raw))


def _bool(raw) -> bool:
    if not isinstance(raw, bool):
        raise ValueError(f"must be true or false, got {raw!r}")
    return raw


def _format(raw) -> str:
    if raw not in ("csv", "json"):
        raise ValueError(f"must be 'csv' or 'json', got {raw!r}")
    return raw


class _Field(NamedTuple):
    flag: str
    cast: Callable  # the one check and conversion of a flag, config or manifest value
    help: str
    default: object = None  # None: no default (format's comes from its command)


_FIELDS = {
    "r": _Field("--r", _float, "coherent amplitude", 0.25),
    "theta_true": _Field("--theta-true", _float, "true phase of the simulated state", 0.01),
    "gain": _Field("--gain", _float, "amplifier gain", 2.0),
    "n0": _Field("--n0", _int, "amplifier working cutoff", 2),
    "n0_list": _Field("--n0-list", _nonempty_list(_int), "comma-separated n0 values", [1, 2, 3]),
    "gain_grid": _Field(
        "--gains",
        _nonempty_list(_float),
        "comma-separated gain grid (default: 40 log-spaced on [1,8])",
        [float(g) for g in default_gain_grid()],
    ),
    "m": _Field("--m", _int, "samples per experiment", 1000),
    "runs": _Field("--runs", _int, "experiments per grid point", 100_000),
    "x": _Field("--x", _float, "cost per sample acquired", 1.0),
    "y": _Field("--y", _float, "cost per estimator measurement", 0.0),
    "z": _Field("--z", _float, "cost per amplification", 1.0),
    "epsilon": _Field("--epsilon", _float, "target information budget", 1.0),
    "strict": _Field("--strict", _bool, "treat no-breakeven as a hard error (exit 4)", False),
    "seed": _Field("--seed", _seed, "master 64-bit seed", 4),
    "format": _Field("--format", _format, "dataset format: csv or json"),
}


class _Command(NamedTuple):
    help: str
    params: tuple[str, ...]  # in manifest order
    hints: str  # the --gnuplot-hints text
    format: str = "csv"  # default format


_GRID_PARAMS = ("r", "n0_list", "gain_grid", "seed")
_COMMANDS = {
    "probabilities": _Command(
        "heralding probabilities over a gain grid",
        _GRID_PARAMS,
        "Heralding probabilities versus gain.\n"
        "x axis: gain (log scale recommended); y axis: probability in [0, 1].\n"
        "Plot p_s (decreasing) and p_f (increasing) per n0; the two sum to 1.\n"
        "gnuplot: plot 'FILE' using 'gain':'p_s' with lines, '' using 'gain':'p_f' with lines\n",
    ),
    "fisher-sweep": _Command(
        "branch Fisher information over a gain grid",
        _GRID_PARAMS,
        "Branch Fisher information versus gain, one block per n0.\n"
        "x axis: gain; y axis: *_norm columns are scaled so j_alpha = 1.\n"
        "At moderate amplitude j_s_norm >= 1 >= j_f_norm; j_ideal_norm = gain^2;\n"
        "j_nla_asymptotic_norm = p_s*j_s + p_f*j_f over j_alpha stays <= 1.\n",
    ),
    "fraction": _Command(
        "count-conditioned information versus success fraction",
        ("m", "r", "gain", "n0", "seed"),
        "Count-conditioned information versus success fraction at fixed gain/n0.\n"
        "x axis: fraction = n_s/m; y axis: j_nla_norm (j_alpha = 1 reference line).\n"
        "is_most_likely marks n_s = round(m*p_s); is_crossing marks the first row\n"
        "with j_nla > j_alpha; p_ns_or_more is the chance of at least that many\n"
        "successes in one experiment.\n",
    ),
    "simulate": _Command(
        "Monte Carlo estimator precision over a gain grid",
        ("r", "n0_list", "gain_grid", "theta_true", "m", "runs", "seed"),
        "Monte Carlo estimator precision versus gain, one block per n0.\n"
        "x axis: gain; y axis: precision columns are scaled so the asymptotic\n"
        "no-amplifier precision is 1 (precision = 1/(m*MSE*j_alpha)).\n"
        "Error bars: stderr_* columns.  precision_direct is gain-independent.\n"
        "Asymptotic reference lines: the j_nla_asymptotic_norm column of the\n"
        "fisher-sweep command evaluated on the same gain grid.\n",
    ),
    "cost": _Command(
        "strategy cost report for one working point",
        ("x", "y", "z", "epsilon", "r", "gain", "n0", "strict", "seed"),
        "Single cost report: route costs, break-even measurement cost, and the\n"
        "recommended strategy for the given (x, y, z, epsilon) and working point.\n",
        "json",
    ),
}


def _read_object(path, what: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{what}: {path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{what}: top level must be a JSON object")
    return data


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        flat = _read_object(path, "config")
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e}") from e
    nested = flat.pop("cost", {})
    if not isinstance(nested, dict):
        raise ConfigError("config: 'cost' must be a JSON object")
    flat.update(nested)
    return flat


def _load_manifest(path: str) -> tuple[str, dict, str | None]:
    """Command, config (the recorded parameters plus the format) and output of a manifest."""
    manifest = _read_object(path, "manifest")
    version = manifest.get("artifact_version")
    if version != __version__:
        raise ConfigError(f"artifact_version: manifest has {version!r}, this is {__version__!r}")
    command, parameters, output = (manifest.get(k) for k in ("command", "parameters", "output"))
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r} in manifest")
    if not isinstance(parameters, dict):
        raise ConfigError("parameters: must be a JSON object")
    if not isinstance(output, (str, type(None))):
        raise ConfigError(f"output: must be a path, got {output!r}")
    return command, {**parameters, "format": manifest.get("format")}, output


def _gather(command: str, flags: dict, config: dict, defaults: dict) -> tuple[dict, str]:
    """Resolve and check the command's parameters and format: flag > config > default.

    flags holds only the flags given.  A name found in none of the three is a
    configuration error; a manifest records every parameter, so `rerun` passes
    no defaults.
    """
    resolved = {}
    for name in _COMMANDS[command].params + ("format",):
        source = next((s for s in (flags, config, defaults) if name in s), None)
        if source is None:
            raise ConfigError(f"{name}: missing")
        try:
            resolved[name] = _FIELDS[name].cast(source[name])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{name}: {e}") from e
    return resolved, resolved.pop("format")


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0).isoformat()


# Rows are rendered a batch at a time: the text of a whole large dataset held at
# once would raise the peak memory of a run
_ROWS_PER_BATCH = 1024
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _batch(table: dict, lo: int) -> list:
    """Rows lo to lo + _ROWS_PER_BATCH - 1 of each column, as lists of Python scalars."""
    hi = lo + _ROWS_PER_BATCH
    return [v[lo:hi].tolist() if isinstance(v, np.ndarray) else v[lo:hi] for v in table.values()]


def _json_column(values: list) -> tuple[str, list]:
    """The %-conversion and the values that give each value's text as json.dump writes it."""
    kinds = set(map(type, values))
    if kinds == {float}:
        if all(map(math.isfinite, values)):
            return "%r", values  # float.__repr__
        return "%s", [_JSON_SPECIAL.get(t, t) for t in map(float.__repr__, values)]
    if kinds == {int}:
        return "%r", values  # int.__repr__
    return "%s", list(map(json.dumps, values))  # bools, None, strings


def _json_rows(names: list, batch: list, indent: str):
    """The JSON object text of each row of a batch, as json.dump(indent=2) writes it at indent.

    Every row fills one template: the keys and separators are fixed, and each
    column's %-conversion renders its values.
    """
    columns = [_json_column(values) for values in batch]
    items = ",\n".join(
        f"{indent}  {json.dumps(name).replace('%', '%%')}: {conversion}"
        for name, (conversion, _) in zip(names, columns)
    )
    template = f"{indent}{{\n{items}\n{indent}}}"
    return map(template.__mod__, zip(*(values for _, values in columns)))


def _write_rows(output: Path | None, fmt: str, table: dict, one_object: bool = False) -> None:
    """Write a column table as CSV or JSON to output, or to stdout when output is None.

    table maps each column name, in order, to its values, one per row: a 1-d numpy
    array or a list of Python scalars, every column of one length.  The CSV bytes are
    those of csv.DictWriter over the rows; the JSON bytes are those of
    json.dump(rows, indent=2) plus a newline, or of the one row's object when
    one_object is set.  Rows are rendered _ROWS_PER_BATCH at a time.
    """
    names = list(table)
    count = len(table[names[0]])
    if output is None:
        sink = nullcontext(sys.stdout)
    else:
        sink = open(output, "w", newline="" if fmt == "csv" else None)
    with sink as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(names)
            for lo in range(0, count, _ROWS_PER_BATCH):
                writer.writerows(zip(*_batch(table, lo)))
        elif one_object:
            fh.write(next(_json_rows(names, _batch(table, 0), "")) + "\n")
        else:
            sep = "[\n"
            for lo in range(0, count, _ROWS_PER_BATCH):
                fh.write(sep + ",\n".join(_json_rows(names, _batch(table, lo), "  ")))
                sep = ",\n"
            fh.write("\n]\n" if count else "[]\n")


def _write_sidecars(command: str, output: Path, fmt: str, params: dict, hints: bool) -> None:
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "format": fmt,
        "seed": params.get("seed"),
        "parameters": params,
        "output": str(output),
        "created_utc": _utc_now(),
    }
    with open(str(output) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    if hints:
        with open(str(output) + ".hints.txt", "w") as fh:
            fh.write(_COMMANDS[command].hints)


# ---------------------------------------------------------------------------
# command implementations (shared by direct invocation and manifest rerun)
# ---------------------------------------------------------------------------


def run_probabilities(params: dict) -> dict[str, np.ndarray]:
    points = [NlaParams(g, n0) for n0 in params["n0_list"] for g in params["gain_grid"]]
    probs = [heralding_probabilities(params["r"], point) for point in points]
    p_s, p_f = np.array(probs, dtype=np.float64).T
    return {**_grid_columns(points), "p_s": p_s, "p_f": p_f}


def run_fisher_sweep(params: dict) -> dict[str, np.ndarray]:
    return sweep_gain(params["r"], params["n0_list"], params["gain_grid"])


def run_fraction(params: dict) -> dict[str, np.ndarray]:
    breakdown = branch_breakdown(params["r"], NlaParams(params["gain"], params["n0"]))
    return sweep_fraction(params["m"], breakdown)


def run_simulate(params: dict) -> dict[str, np.ndarray]:
    j_alpha = qfi_coherent(params["r"])
    if j_alpha <= 0.0:
        raise ConfigError("r: must be > 0 for a precision simulation")
    base = SimConfig(
        r=params["r"],
        theta_true=params["theta_true"],
        gain=1.0,
        n0=1,
        m=params["m"],
        runs=params["runs"],
        seed=params["seed"],
    )
    # every grid point is checked before any experiment runs; each gets one
    # independent sub-seed derived from the master seed
    points = [
        replace(base, gain=g, n0=n0, seed=kernels.derive_key(params["seed"], idx + 1))
        for idx, (n0, g) in enumerate(product(params["n0_list"], params["gain_grid"]))
    ]
    direct = simulate_direct(base)
    reports = [simulate_nla(point) for point in points]
    count = len(points)
    return {
        **_grid_columns(points),
        "precision_direct": np.full(count, direct.precision / j_alpha),
        "stderr_direct": np.full(count, direct.stderr_precision / j_alpha),
        "runs_used_direct": np.full(count, direct.runs_used, dtype=np.int64),
        "precision_nla": np.array([nla.precision for nla in reports]) / j_alpha,
        "stderr_nla": np.array([nla.stderr_precision for nla in reports]) / j_alpha,
        "runs_used_nla": np.array([nla.runs_used for nla in reports], dtype=np.int64),
    }


def run_cost(params: dict) -> dict:
    costs = CostParams(params["x"], params["y"], params["z"], params["epsilon"])
    breakdown = branch_breakdown(params["r"], NlaParams(params["gain"], params["n0"]))
    rec = recommend_strategy(costs, breakdown)
    if params["strict"] and rec.breakeven_y is None:
        raise NoBreakevenError("no break-even cost; post-selection cannot win")
    return {
        "x": params["x"],
        "y": params["y"],
        "z": params["z"],
        "epsilon": params["epsilon"],
        "r": params["r"],
        "gain": params["gain"],
        "n0": params["n0"],
        "j_alpha": breakdown.j_alpha,
        "j_s": breakdown.j_s,
        "j_f": breakdown.j_f,
        "p_s": breakdown.p_s,
        "cost_direct": rec.cost_direct,
        "cost_postselect": rec.cost_postselect,
        "breakeven_y": rec.breakeven_y,
        "recommendation": rec.strategy,
    }


_RUNNERS = {
    "probabilities": run_probabilities,
    "fisher-sweep": run_fisher_sweep,
    "fraction": run_fraction,
    "simulate": run_simulate,
    "cost": run_cost,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlaphase",
        description="Phase-estimation workbench for coherent states with a probabilistic "
        "noiseless linear amplifier.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    hints_help = "also write <output>.hints.txt describing axes and normalization"

    for command, spec in _COMMANDS.items():
        p = subs.add_parser(command, help=spec.help)
        for name in spec.params + ("format",):
            field = _FIELDS[name]
            # values stay strings here: _gather casts them like config values
            action = "store_true" if name == "strict" else "store"
            p.add_argument(field.flag, dest=name, default=None, action=action, help=field.help)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--output", help="output dataset path")
        p.add_argument("--gnuplot-hints", action="store_true", help=hints_help)

    p = subs.add_parser("rerun", help="re-execute a manifest and reproduce its dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--output", default=None, help="override the dataset path (default: as in manifest)")
    p.add_argument("--gnuplot-hints", action="store_true", help=hints_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            command, config, output = _load_manifest(args.manifest)
            flags, defaults = {}, {}
        else:
            command, config, output = args.command, _load_config(args.config), None
            flags = {k: v for k, v in vars(args).items() if v is not None}
            defaults = {name: f.default for name, f in _FIELDS.items() if f.default is not None}
            defaults["format"] = _COMMANDS[command].format
        params, fmt = _gather(command, flags, config, defaults)
        output = args.output or output
        if command != "cost" and not output:
            raise ConfigError("output: required")
        path = Path(output) if output else None
        result = _RUNNERS[command](params)
        if command == "cost":  # one report object
            _write_rows(path, fmt, {name: [value] for name, value in result.items()}, one_object=True)
        else:
            _write_rows(path, fmt, result)
        if path is not None:
            _write_sidecars(command, path, fmt, params, args.gnuplot_hints)
        return 0
    except NoBreakevenError as e:
        print(f"numerical degeneracy: {e}", file=sys.stderr)
        return 4
    except ValueError as e:  # ConfigError included
        print(f"invalid configuration: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io failure: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
