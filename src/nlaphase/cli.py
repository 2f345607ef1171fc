"""Command-line front end: figure datasets, Monte Carlo driving, cost reports.

Every dataset-producing command writes a sidecar `<output>.manifest.json` holding
the fully resolved parameter set; `nlaphase rerun --manifest <file>` re-executes
it through the same parameter checks and reproduces the dataset byte for byte.
Numeric CSV/JSON output uses the shortest representation that parses back to the
exact double.

Exit codes: 0 success, 2 invalid configuration, 3 I/O failure, 4 numerical
degeneracy under --strict.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from contextlib import nullcontext
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__, kernels
from .cost import CostParams, recommend_strategy
from .fisher import (
    branch_breakdown,
    default_gain_grid,
    qfi_coherent,
    sweep_fraction,
    sweep_gain,
)
from .montecarlo import SimConfig, simulate_direct, simulate_nla
from .nla import NlaParams

DEFAULTS = {
    "r": 0.25,
    "theta_true": 0.01,
    "gain": 2.0,
    "n0": 2,
    "n0_list": [1, 2, 3],
    "gain_grid": [float(g) for g in default_gain_grid()],
    "m": 1000,
    "runs": 100_000,
    "seed": 4,
    "x": 1.0,
    "y": 0.0,
    "z": 1.0,
    "epsilon": 1.0,
    "strict": False,
}

_HINTS = {
    "probabilities": (
        "Heralding probabilities versus gain.\n"
        "x axis: gain (log scale recommended); y axis: probability in [0, 1].\n"
        "Plot p_s (decreasing) and p_f (increasing) per n0; the two sum to 1.\n"
        "gnuplot: plot 'FILE' using 'gain':'p_s' with lines, '' using 'gain':'p_f' with lines\n"
    ),
    "fisher-sweep": (
        "Branch Fisher information versus gain, one block per n0.\n"
        "x axis: gain; y axis: *_norm columns are scaled so j_alpha = 1.\n"
        "At moderate amplitude j_s_norm >= 1 >= j_f_norm; j_ideal_norm = gain^2;\n"
        "j_nla_asymptotic_norm = p_s*j_s + p_f*j_f over j_alpha stays <= 1.\n"
    ),
    "fraction": (
        "Count-conditioned information versus success fraction at fixed gain/n0.\n"
        "x axis: fraction = n_s/m; y axis: j_nla_norm (j_alpha = 1 reference line).\n"
        "is_most_likely marks n_s = round(m*p_s); is_crossing marks the first row\n"
        "with j_nla > j_alpha; p_ns_or_more is the chance of at least that many\n"
        "successes in one experiment.\n"
    ),
    "simulate": (
        "Monte Carlo estimator precision versus gain, one block per n0.\n"
        "x axis: gain; y axis: precision columns are scaled so the asymptotic\n"
        "no-amplifier precision is 1 (precision = 1/(m*MSE*j_alpha)).\n"
        "Error bars: stderr_* columns.  precision_direct is gain-independent.\n"
        "Asymptotic reference lines: the j_nla_asymptotic_norm column of the\n"
        "fisher-sweep command evaluated on the same gain grid.\n"
    ),
    "cost": (
        "Single cost report: route costs, break-even measurement cost, and the\n"
        "recommended strategy for the given (x, y, z, epsilon) and working point.\n"
    ),
}


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


def _int(raw) -> int:
    """int() that refuses bools and non-integral floats instead of truncating them."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError(f"must be an integer, got {raw!r}")
    return int(raw)


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
    seed = _int(raw)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"must be a 64-bit unsigned integer, got {seed}")
    return seed


def _bool(raw) -> bool:
    if not isinstance(raw, bool):
        raise ValueError(f"must be true or false, got {raw!r}")
    return raw


_FORMATS = ("csv", "json")


def _format(raw) -> str:
    if raw not in _FORMATS:
        raise ValueError(f"must be 'csv' or 'json', got {raw!r}")
    return raw


class _Field(NamedTuple):
    flag: str
    parse: dict  # argparse keywords of the flag
    cast: Callable  # checks and converts a flag, config or manifest value
    help: str


_FLOAT = {"type": float}
_INT = {"type": int}
_FIELDS = {
    "r": _Field("--r", _FLOAT, float, "coherent amplitude"),
    "theta_true": _Field("--theta-true", _FLOAT, float, "true phase of the simulated state"),
    "gain": _Field("--gain", _FLOAT, float, "amplifier gain"),
    "n0": _Field("--n0", _INT, _int, "amplifier working cutoff"),
    "n0_list": _Field("--n0-list", {}, _nonempty_list(_int), "comma-separated n0 values"),
    "gain_grid": _Field(
        "--gains", {}, _nonempty_list(float), "comma-separated gain grid (default: 40 log-spaced on [1,8])"
    ),
    "m": _Field("--m", _INT, _int, "samples per experiment"),
    "runs": _Field("--runs", _INT, _int, "experiments per grid point"),
    "x": _Field("--x", _FLOAT, float, "cost per sample acquired"),
    "y": _Field("--y", _FLOAT, float, "cost per estimator measurement"),
    "z": _Field("--z", _FLOAT, float, "cost per amplification"),
    "epsilon": _Field("--epsilon", _FLOAT, float, "target information budget"),
    "strict": _Field(
        "--strict", {"action": "store_true"}, _bool, "treat no-breakeven as a hard error (exit 4)"
    ),
    "seed": _Field("--seed", _INT, _seed, "master 64-bit seed"),
    "format": _Field("--format", {"choices": _FORMATS}, _format, "dataset format"),
}


class _Command(NamedTuple):
    help: str
    params: tuple[str, ...]  # in manifest order
    format: str = "csv"  # default format


_GRID_PARAMS = ("r", "n0_list", "gain_grid", "seed")
_COMMANDS = {
    "probabilities": _Command("heralding probabilities over a gain grid", _GRID_PARAMS),
    "fisher-sweep": _Command("branch Fisher information over a gain grid", _GRID_PARAMS),
    "fraction": _Command(
        "count-conditioned information versus success fraction", ("m", "r", "gain", "n0", "seed")
    ),
    "simulate": _Command(
        "Monte Carlo estimator precision over a gain grid",
        ("r", "n0_list", "gain_grid", "theta_true", "m", "runs", "seed"),
    ),
    "cost": _Command(
        "strategy cost report for one working point",
        ("x", "y", "z", "epsilon", "r", "gain", "n0", "strict", "seed"),
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


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def _write_rows(output: Path | None, fmt: str, rows: list[dict] | dict) -> None:
    """Write rows as CSV or JSON to output, or to stdout when output is None.

    A single report dict is one CSV row, or one JSON object.
    """
    single = isinstance(rows, dict)
    records = [{k: _jsonable(v) for k, v in row.items()} for row in ([rows] if single else rows)]
    if output is None:
        sink = nullcontext(sys.stdout)
    else:
        sink = open(output, "w", newline="" if fmt == "csv" else None)
    with sink as fh:
        if fmt == "csv":
            writer = csv.DictWriter(fh, fieldnames=list(records[0]))
            writer.writeheader()
            writer.writerows(records)
        else:
            json.dump(records[0] if single else records, fh, indent=2)
            fh.write("\n")


def _write_sidecars(command: str, output: Path, fmt: str, params: dict, hints: bool) -> None:
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "format": fmt,
        "seed": params.get("seed"),
        "parameters": {k: _jsonable(v) for k, v in params.items()},
        "output": str(output),
        "created_utc": _utc_now(),
    }
    with open(str(output) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    if hints:
        with open(str(output) + ".hints.txt", "w") as fh:
            fh.write(_HINTS[command])


# ---------------------------------------------------------------------------
# command implementations (shared by direct invocation and manifest rerun)
# ---------------------------------------------------------------------------


def run_probabilities(params: dict, output: Path, fmt: str, hints: bool) -> int:
    from .nla import failure_probability, success_probability

    rows = []
    for n0 in params["n0_list"]:
        for g in params["gain_grid"]:
            nla = NlaParams(float(g), int(n0))
            rows.append(
                {
                    "gain": float(g),
                    "n0": int(n0),
                    "p_s": success_probability(params["r"], nla),
                    "p_f": failure_probability(params["r"], nla),
                }
            )
    _write_rows(output, fmt, rows)
    _write_sidecars("probabilities", output, fmt, params, hints)
    return 0


def run_fisher_sweep(params: dict, output: Path, fmt: str, hints: bool) -> int:
    rows = sweep_gain(params["r"], params["n0_list"], params["gain_grid"])
    _write_rows(output, fmt, rows)
    _write_sidecars("fisher-sweep", output, fmt, params, hints)
    return 0


def run_fraction(params: dict, output: Path, fmt: str, hints: bool) -> int:
    from .fisher import binomial_tail

    breakdown = branch_breakdown(params["r"], NlaParams(params["gain"], params["n0"]))
    rows = sweep_fraction(params["m"], breakdown)
    for row in rows:
        # chance of seeing at least this many successes in one experiment
        row["p_ns_or_more"] = binomial_tail(params["m"], breakdown.p_s, row["n_s"])
    _write_rows(output, fmt, rows)
    _write_sidecars("fraction", output, fmt, params, hints)
    return 0


def run_simulate(params: dict, output: Path, fmt: str, hints: bool) -> int:
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
    direct = simulate_direct(base)
    rows = []
    for idx, (n0, g) in enumerate(product(params["n0_list"], params["gain_grid"])):
        # one independent sub-seed per grid point, derived from the master seed
        point = SimConfig(
            r=params["r"],
            theta_true=params["theta_true"],
            gain=float(g),
            n0=int(n0),
            m=params["m"],
            runs=params["runs"],
            seed=kernels.derive_key(params["seed"], idx + 1),
        )
        nla = simulate_nla(point)
        rows.append(
            {
                "gain": float(g),
                "n0": int(n0),
                "precision_direct": direct.precision / j_alpha,
                "stderr_direct": direct.stderr_precision / j_alpha,
                "runs_used_direct": direct.runs_used,
                "precision_nla": nla.precision / j_alpha,
                "stderr_nla": nla.stderr_precision / j_alpha,
                "runs_used_nla": nla.runs_used,
            }
        )
    _write_rows(output, fmt, rows)
    _write_sidecars("simulate", output, fmt, params, hints)
    return 0


def run_cost(params: dict, output: Path | None, fmt: str, hints: bool) -> int:
    costs = CostParams(params["x"], params["y"], params["z"], params["epsilon"])
    breakdown = branch_breakdown(params["r"], NlaParams(params["gain"], params["n0"]))
    rec = recommend_strategy(costs, breakdown)
    if params["strict"] and rec.breakeven_y is None:
        print("numerical degeneracy: no break-even cost; post-selection cannot win", file=sys.stderr)
        return 4
    report = {
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
    _write_rows(output, fmt, report)
    if output is not None:
        _write_sidecars("cost", output, fmt, params, hints)
    return 0


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
            p.add_argument(field.flag, dest=name, default=None, help=field.help, **field.parse)
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
            defaults = {**DEFAULTS, "format": _COMMANDS[command].format}
        params, fmt = _gather(command, flags, config, defaults)
        output = args.output or output
        if command != "cost" and not output:
            raise ConfigError("output: required")
        return _RUNNERS[command](params, Path(output) if output else None, fmt, args.gnuplot_hints)
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
