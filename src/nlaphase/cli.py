"""Command-line front end: figure datasets, Monte Carlo driving, cost reports.

Every dataset-producing command writes a sidecar `<output>.manifest.json` holding
the fully resolved parameter set; `nlaphase rerun --manifest <file>` re-executes
it and reproduces the dataset byte for byte.  Numeric CSV/JSON output uses the
shortest representation that parses back to the exact double.

Exit codes: 0 success, 2 invalid configuration, 3 I/O failure, 4 numerical
degeneracy under --strict.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from itertools import product
from pathlib import Path

from . import __version__, kernels
from .cost import CostParams, breakeven_y, cost_direct, cost_postselect, recommend_strategy
from .errors import NoBreakevenError
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
    "gain_grid": None,  # None -> default_gain_grid()
    "m": 1000,
    "runs": 100_000,
    "seed": 4,
    "x": 1.0,
    "y": 0.0,
    "z": 1.0,
    "epsilon": 1.0,
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


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a JSON object")
    flat = dict(cfg)
    nested = flat.pop("cost", {})
    if not isinstance(nested, dict):
        raise ConfigError("config: 'cost' must be a JSON object")
    flat.update(nested)
    return flat


def _resolve(name: str, cli_value, config: dict, cast):
    """Precedence: explicit flag > config file > built-in default."""
    if cli_value is not None:
        raw = cli_value
    elif name in config:
        raw = config[name]
    else:
        raw = DEFAULTS[name]
    try:
        return None if raw is None else cast(raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{name}: {e}") from e


def _float_list(raw) -> list[float]:
    if isinstance(raw, str):
        raw = [part for part in raw.split(",") if part.strip()]
    return [float(v) for v in raw]


def _int_list(raw) -> list[int]:
    if isinstance(raw, str):
        raw = [part for part in raw.split(",") if part.strip()]
    return [int(v) for v in raw]


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0).isoformat()


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def _write_rows(output: Path, fmt: str, fieldnames: list[str], rows: list[dict]) -> None:
    if fmt == "csv":
        with open(output, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _jsonable(row[k]) for k in fieldnames})
    else:
        payload = [{k: _jsonable(row[k]) for k in fieldnames} for row in rows]
        with open(output, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _write_report(output: Path | None, fmt: str, report: dict) -> None:
    if fmt == "csv":
        fieldnames = list(report)
        if output is None:
            writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerow({k: _jsonable(report[k]) for k in fieldnames})
        else:
            with open(output, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=fieldnames)
                writer.writeheader()
                writer.writerow({k: _jsonable(report[k]) for k in fieldnames})
        return
    text = json.dumps({k: _jsonable(v) for k, v in report.items()}, indent=2) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


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
    _write_rows(output, fmt, ["gain", "n0", "p_s", "p_f"], rows)
    _write_sidecars("probabilities", output, fmt, params, hints)
    return 0


def run_fisher_sweep(params: dict, output: Path, fmt: str, hints: bool) -> int:
    rows = sweep_gain(params["r"], params["n0_list"], params["gain_grid"])
    fieldnames = list(rows[0])
    _write_rows(output, fmt, fieldnames, rows)
    _write_sidecars("fisher-sweep", output, fmt, params, hints)
    return 0


def run_fraction(params: dict, output: Path, fmt: str, hints: bool) -> int:
    from .fisher import binomial_tail

    breakdown = branch_breakdown(params["r"], NlaParams(params["gain"], params["n0"]))
    rows = sweep_fraction(params["m"], breakdown)
    for row in rows:
        # chance of seeing at least this many successes in one experiment
        row["p_ns_or_more"] = binomial_tail(params["m"], breakdown.p_s, row["n_s"])
    _write_rows(output, fmt, list(rows[0]), rows)
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
    _write_rows(output, fmt, list(rows[0]), rows)
    _write_sidecars("simulate", output, fmt, params, hints)
    return 0


def run_cost(params: dict, output: Path | None, fmt: str, hints: bool) -> int:
    costs = CostParams(params["x"], params["y"], params["z"], params["epsilon"])
    breakdown = branch_breakdown(params["r"], NlaParams(params["gain"], params["n0"]))
    strict = bool(params.get("strict", False))
    try:
        y_star = breakeven_y(params["x"], params["z"], breakdown.j_alpha, breakdown.j_s, breakdown.p_s)
    except NoBreakevenError as e:
        if strict:
            print(f"numerical degeneracy: {e}", file=sys.stderr)
            return 4
        y_star = None
    rec = recommend_strategy(costs, breakdown)
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
        "cost_direct": cost_direct(costs, breakdown.j_alpha),
        "cost_postselect": rec.cost_postselect,
        "breakeven_y": y_star,
        "recommendation": rec.strategy,
    }
    _write_report(output, fmt, report)
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


def _add_common(sub: argparse.ArgumentParser, output_required: bool = True) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--seed", type=int, default=None, help="master 64-bit seed")
    sub.add_argument("--output", required=output_required, help="output dataset path")
    sub.add_argument("--format", choices=("csv", "json"), default=None, help="dataset format")
    sub.add_argument(
        "--gnuplot-hints",
        action="store_true",
        help="also write <output>.hints.txt describing axes and normalization",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlaphase",
        description="Phase-estimation workbench for coherent states with a probabilistic "
        "noiseless linear amplifier.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("probabilities", help="heralding probabilities over a gain grid")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--n0-list", default=None, help="comma-separated n0 values")
    p.add_argument("--gains", default=None, help="comma-separated gain grid (default: 40 log-spaced on [1,8])")
    _add_common(p)

    p = subs.add_parser("fisher-sweep", help="branch Fisher information over a gain grid")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--n0-list", default=None)
    p.add_argument("--gains", default=None)
    _add_common(p)

    p = subs.add_parser("fraction", help="count-conditioned information versus success fraction")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--gain", type=float, default=None)
    p.add_argument("--n0", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("simulate", help="Monte Carlo estimator precision over a gain grid")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--theta-true", type=float, default=None)
    p.add_argument("--gains", default=None)
    p.add_argument("--n0-list", default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--runs", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("cost", help="strategy cost report for one working point")
    p.add_argument("--x", type=float, default=None, help="cost per sample acquired")
    p.add_argument("--y", type=float, default=None, help="cost per estimator measurement")
    p.add_argument("--z", type=float, default=None, help="cost per amplification")
    p.add_argument("--epsilon", type=float, default=None, help="target information budget")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--gain", type=float, default=None)
    p.add_argument("--n0", type=int, default=None)
    p.add_argument("--strict", action="store_true", help="treat no-breakeven as a hard error (exit 4)")
    _add_common(p, output_required=False)

    p = subs.add_parser("rerun", help="re-execute a manifest and reproduce its dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--output", default=None, help="override the dataset path (default: as in manifest)")
    p.add_argument(
        "--gnuplot-hints",
        action="store_true",
        help="also write <output>.hints.txt describing axes and normalization",
    )

    return parser


def _gather(args: argparse.Namespace) -> tuple[str, dict, Path | None, str, bool]:
    config = _load_config(args.config)
    command = args.command
    params: dict = {}
    if command in ("probabilities", "fisher-sweep", "simulate"):
        params["r"] = _resolve("r", args.r, config, float)
        params["n0_list"] = _resolve("n0_list", getattr(args, "n0_list"), config, _int_list)
        grid = _resolve("gain_grid", getattr(args, "gains"), config, _float_list)
        params["gain_grid"] = [float(g) for g in (grid if grid is not None else default_gain_grid())]
        if not params["gain_grid"]:
            raise ConfigError("gain_grid: must be nonempty")
        if not params["n0_list"]:
            raise ConfigError("n0_list: must be nonempty")
    if command == "fraction":
        params["m"] = _resolve("m", args.m, config, int)
        params["r"] = _resolve("r", args.r, config, float)
        params["gain"] = _resolve("gain", args.gain, config, float)
        params["n0"] = _resolve("n0", args.n0, config, int)
    if command == "simulate":
        params["theta_true"] = _resolve("theta_true", args.theta_true, config, float)
        params["m"] = _resolve("m", args.m, config, int)
        params["runs"] = _resolve("runs", args.runs, config, int)
    if command == "cost":
        for field in ("x", "y", "z", "epsilon", "r", "gain"):
            params[field] = _resolve(field, getattr(args, field), config, float)
        params["n0"] = _resolve("n0", args.n0, config, int)
        params["strict"] = bool(args.strict)
    params["seed"] = _resolve("seed", args.seed, config, int)
    if not 0 <= params["seed"] < 1 << 64:
        raise ConfigError(f"seed: must be a 64-bit unsigned integer, got {params['seed']}")

    default_fmt = "json" if command == "cost" else "csv"
    fmt = args.format or config.get("format") or default_fmt
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: must be 'csv' or 'json', got {fmt!r}")
    output = Path(args.output) if args.output else None
    return command, params, output, fmt, bool(args.gnuplot_hints)


def _load_manifest(args: argparse.Namespace) -> tuple[str, dict, Path | None, str, bool]:
    with open(args.manifest) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"manifest is not valid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise ConfigError("manifest: top level must be a JSON object")
    command = manifest.get("command")
    if command not in _RUNNERS:
        raise ConfigError(f"unknown command {command!r} in manifest")
    params = manifest.get("parameters", {})
    fmt = manifest.get("format", "csv")
    output = args.output or manifest.get("output")
    return command, params, Path(output) if output else None, fmt, bool(args.gnuplot_hints)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        load = _load_manifest if args.command == "rerun" else _gather
        command, params, output, fmt, hints = load(args)
        if command != "cost" and output is None:
            raise ConfigError("output: required")
        return _RUNNERS[command](params, output, fmt, hints)
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
