"""Quantum Fisher information of the heralded branches and the post-selection bookkeeping.

For a pure state family the information is J = 4(<dpsi|dpsi> - |<psi|dpsi>|^2),
evaluated after checking that the state--derivative overlap is purely imaginary
(it is i*<n> for every family handled here).  Branch values J_s, J_f combine into
the count-conditioned average J_nla = (n_s J_s + n_f J_f) / m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import NoCrossingError, as_float, as_int
from .fock import (
    CoherentParams,
    FockVector,
    _branch_cutoff,
    choose_cutoff,
    inner_product,
    phase_derivative,
)
from .nla import NlaParams, apply_branch, heralding_probabilities

__all__ = [
    "FisherBreakdown",
    "qfi_pure",
    "qfi_coherent",
    "branch_breakdown",
    "j_nla_conditional",
    "min_ns_exceeding",
    "binomial_tail",
    "sweep_gain",
    "sweep_fraction",
]

_IMAG_OVERLAP_TOL = 1e-10
# entries per 2-d block of the binomial tail walk, so its memory stays flat at any m;
# the first block walks about _FIRST_TERMS entries, at least _FIRST_WIDTH per row,
# so a single row (a scalar k) needs few blocks and a whole column starts narrow
_BLOCK_TERMS = 1 << 16
_FIRST_TERMS = 1 << 10
_FIRST_WIDTH = 16


@dataclass(frozen=True)
class FisherBreakdown:
    """Per-sample information of every route: no amplifier, both branches, ideal limit."""

    j_alpha: float
    j_s: float
    j_f: float
    j_ideal: float
    p_s: float
    p_f: float
    j_nla_asymptotic: float


def qfi_pure(psi: FockVector, dpsi: FockVector) -> float:
    """Fisher information 4(<dpsi|dpsi> - |<psi|dpsi>|^2) of a normalized pure state.

    Raises ValueError when <psi|dpsi> has a real part above 1e-10, which signals a
    derivative that does not come from a pure phase factor.
    """
    overlap = inner_product(psi, dpsi)
    if abs(overlap.real) >= _IMAG_OVERLAP_TOL:
        raise ValueError(
            f"state-derivative overlap must be purely imaginary, got real part {overlap.real:.3e}"
        )
    value = 4.0 * (inner_product(dpsi, dpsi).real - abs(overlap) ** 2)
    return max(0.0, value)


def qfi_coherent(r: float) -> float:
    """Closed form 4 r^2 for a coherent state of amplitude r >= 0 (`errors.as_float`)."""
    r = as_float("r", r, minimum=0)
    return 4.0 * r * r


def branch_breakdown(r: float, params: NlaParams) -> FisherBreakdown:
    """Evaluate every information figure for one (r, gain, n0) working point.

    The failure branch of the identity device (gain = 1) never occurs; its
    information is reported as 0 with p_f = 0 so the probability-weighted sum
    stays well-defined.

    The cutoff from `choose_cutoff` bounds the truncation.  The branch states
    are built only on the levels below it where the input's amplitude can be
    nonzero, padded to a multiple of 64, and on at least 0..n0
    (`fock._branch_cutoff`): every level above is 0.0 in both branches, and the
    figures are the doubles that the states on the whole cutoff give.
    """
    input = CoherentParams(r, 0.0)
    cutoff = choose_cutoff(input, params.n0, params.gain)
    p_s, p_f = heralding_probabilities(r, params)

    succ, fail = apply_branch(input, params, _branch_cutoff(input, cutoff, params.n0))
    j_s = qfi_pure(succ, phase_derivative(succ))
    j_f = 0.0 if fail is None else qfi_pure(fail, phase_derivative(fail))

    return FisherBreakdown(
        j_alpha=qfi_coherent(r),
        j_s=j_s,
        j_f=j_f,
        j_ideal=4.0 * (params.gain * r) ** 2,
        p_s=p_s,
        p_f=p_f,
        j_nla_asymptotic=p_s * j_s + p_f * j_f,
    )


def j_nla_conditional(n_s: int, n_f: int, breakdown: FisherBreakdown) -> float:
    """Count-weighted information (n_s J_s + n_f J_f) / (n_s + n_f).

    The counts are integers >= 0 by `errors.as_int`: a bool or a float, integral
    ones such as 3.0 included, raises a ValueError naming the count.
    """
    n_s, n_f = as_int("n_s", n_s, minimum=0), as_int("n_f", n_f, minimum=0)
    m = n_s + n_f
    if m == 0:
        raise ValueError("need at least one event")
    return (n_s * breakdown.j_s + n_f * breakdown.j_f) / m


def min_ns_exceeding(m: int, breakdown: FisherBreakdown) -> int:
    """Smallest success count for which the conditional information beats j_alpha.

    Requires j_s > j_alpha; otherwise no count can cross and NoCrossingError is
    raised.  m is an integer >= 1 by `errors.as_int`: a bool or a float, integral
    ones such as 1000.0 included, raises a ValueError naming m.
    """
    m = as_int("m", m, minimum=1)
    if not breakdown.j_s > breakdown.j_alpha:
        raise NoCrossingError(
            f"j_s = {breakdown.j_s:.6g} does not exceed j_alpha = {breakdown.j_alpha:.6g}"
        )
    span = breakdown.j_s - breakdown.j_f
    n = max(0, min(m, int(math.floor(m * (breakdown.j_alpha - breakdown.j_f) / span)) + 1))
    # guard the floor against rounding at the boundary
    while n > 0 and j_nla_conditional(n - 1, m - (n - 1), breakdown) > breakdown.j_alpha:
        n -= 1
    while n <= m and j_nla_conditional(n, m - n, breakdown) <= breakdown.j_alpha:
        n += 1
    return n


def binomial_tail(m: int, p: float, k):
    """Upper tail P[X >= k] of a Binomial(m, p) count at one level or at many.

    k is an int, giving a float, or a 1-d integer array of levels in [0, m], giving
    a float64 array; a scalar is computed as a one-row array.  m must be an integer
    in [0, 2**53) (`errors.as_int`: a bool or a float, integral ones such as 1000.0
    included, raises) and p a finite float in [0, 1] (`errors.as_float`).  Each row
    sums from an lgamma-based anchor term with the
    exact term-ratio recurrence, on the side where the anchor is representable:
    above the mode (m + 1) p directly, below it through the complement.  A row stops once a term falls below 1e-18 of
    its running sum or is exactly 0.0.  All rows walk at once in numpy blocks (see
    `_tail_sums`) that keep a scalar loop's operation order, so each value is the
    double that walking the row alone gives.  Far from the mode the anchor
    underflows to 0.0 and stays 0.0 further out, so those rows are 0.0 sums
    without a walk: an upper tail of 0.0, or a complement of exactly 1.0.
    """
    m, p = as_int("m", m, minimum=0), as_float("p", p, minimum=0)
    if not p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not m < 2**53:  # above it int64 levels no longer convert to exact doubles
        raise ValueError(f"m must be below 2**53, got {m}")
    ks = np.asarray(k)
    if ks.ndim > 1 or ks.dtype.kind not in "iu":
        raise ValueError(f"k must be an integer or a 1-d integer array, got {ks.dtype} {ks.shape}")
    levels = ks.reshape(-1)
    order = levels.argsort()
    levels = levels[order]
    for level in levels[:1].tolist() + levels[-1:].tolist():  # the smallest and largest
        if not 0 <= level <= m:
            raise ValueError(f"k must lie in [0, m], got k={level}, m={m}")
    levels = levels.astype(np.int64)
    tails = np.ones(levels.size)  # k = 0, and every level when p = 1
    low = int(levels.searchsorted(0, side="right"))  # levels from here on are above 0
    if p == 0.0:
        tails[low:] = 0.0
    elif p < 1.0:
        # levels above the mode sum upward; those at or below it through the complement
        high = max(low, int(levels.searchsorted((m + 1) * p, side="right")))
        if high < levels.size:
            tails[high:] = np.minimum(1.0, _tail_sums(m, p, levels[high:], 1))
        if low < high:
            below = _tail_sums(m, p, levels[low:high][::-1] - 1, -1)[::-1]
            tails[low:high] = np.maximum(0.0, 1.0 - below)
    out = np.empty(levels.size)
    out[order] = tails
    return float(out[0]) if ks.ndim == 0 else out


def _tail_sums(m: int, p: float, starts: np.ndarray, step: int) -> np.ndarray:
    """pmf sums from each start level outward: up to m (step 1) or down to 0 (step -1).

    starts lie on the side of the mode that step walks away from, nearest the mode
    first.  Row by row this is the loop `total += term; stop if term == 0.0, term <
    total * 1e-18 or j is the last level; term *= factor(j); j += step` from the
    anchor exp(log pmf(start)), taken through math.lgamma and math.exp.  The factor
    is (m - j) / (j + 1) * ratio upward and j / (m - j + 1) * ratio downward,
    computed from int64 levels below 2**53, so each is the loop's double.  At the
    last level (m or 0) the factor is 0.0, so the term after it is 0.0 and stops
    the row with its sum unchanged: the walk needs no check of its own for the end.
    The pmf falls away from the mode, so from the first anchor that underflows on
    every row is a 0.0 sum with no walk.

    A block walks `width` levels of every pending row: np.multiply.accumulate gives
    the terms from the carried term and np.add.accumulate the running sums from the
    carried sum, each in sequence along the row as the loop does.  Rows that do not
    stop carry on into a block twice as wide; blocks hold about _BLOCK_TERMS
    entries.  Entries past a row's stop may overflow and are discarded.
    """
    log_m, log_p, log_q = math.lgamma(m + 1), math.log(p), math.log1p(-p)
    anchors = []
    for j in starts.tolist():
        anchor = math.exp(
            log_m - math.lgamma(j + 1) - math.lgamma(m - j + 1) + j * log_p + (m - j) * log_q
        )
        if anchor == 0.0:
            break
        anchors.append(anchor)
    ratio = p / (1.0 - p) if step > 0 else (1.0 - p) / p
    sums = np.zeros(starts.size)
    rows = np.arange(len(anchors))
    term, total, j = np.array(anchors), np.zeros(rows.size), starts[: rows.size]
    width = max(_FIRST_WIDTH, _FIRST_TERMS // max(1, rows.size))
    while rows.size:
        height = max(1, _BLOCK_TERMS // width)
        carried = []
        for lo in range(0, rows.size, height):
            block = slice(lo, lo + height)
            # levels of the block; the last column only feeds the carried term
            levels = j[block, None] + step * np.arange(width + 1)
            at = levels[:, :-1]
            factors = np.empty(levels.shape)
            factors[:, 0] = term[block]
            running = np.empty(levels.shape)
            running[:, 0] = total[block]
            with np.errstate(over="ignore", invalid="ignore"):
                if step > 0:
                    factors[:, 1:] = (m - at) / (at + 1) * ratio
                else:
                    factors[:, 1:] = at / (m - at + 1) * ratio
                terms = np.multiply.accumulate(factors, axis=1)
                running[:, 1:] = terms[:, :-1]
                np.add.accumulate(running, axis=1, out=running)
                stop = (terms[:, :-1] == 0.0) | (terms[:, :-1] < running[:, 1:] * 1e-18)
            done = stop.any(axis=1)
            first = stop.argmax(axis=1)[done]
            sums[rows[block][done]] = running[done, first + 1]
            going = ~done
            carried.append(
                (rows[block][going], terms[going, -1], running[going, -1], levels[going, -1])
            )
        rows, term, total, j = (np.concatenate(parts) for parts in zip(*carried))
        width = min(2 * width, _BLOCK_TERMS)
    return sums


def default_gain_grid(count: int = 40, g_max: float = 8.0) -> np.ndarray:
    """Log-spaced gain grid on [1, g_max]; log spacing resolves the steep small-g region."""
    return np.geomspace(1.0, g_max, count)


def _grid_columns(points: list) -> dict[str, np.ndarray]:
    # the gain (float64) and n0 (int64) columns of grid points, one entry per point
    gains = np.array([point.gain for point in points], dtype=np.float64)
    return {"gain": gains, "n0": np.array([point.n0 for point in points], dtype=np.int64)}


def sweep_gain(r: float, n0_list, gains=None) -> dict[str, np.ndarray]:
    """The breakdown figures as columns: name -> numpy array, one entry per (n0, gain)
    grid point in n0-major order.

    n0 is int64 and every other column float64.  ps_js and pf_jf are p_s * j_s and
    p_f * j_f, and each *_norm column is its figure over j_alpha = qfi_coherent(r),
    all NaN when j_alpha is 0.0.  Each gain and n0 goes to `NlaParams` as given.
    """
    gains = default_gain_grid() if gains is None else gains
    if len(gains) == 0:
        raise ValueError("gain grid must be nonempty")
    # NlaParams checks every point before the first breakdown runs
    points = [NlaParams(g, n0) for n0 in n0_list for g in gains]
    figures = attrgetter("j_s", "j_f", "j_ideal", "p_s", "p_f", "j_nla_asymptotic")
    gathered = np.array([figures(branch_breakdown(r, params)) for params in points])
    j_s, j_f, j_ideal, p_s, p_f, j_nla = gathered.reshape(-1, 6).T
    j_alpha = qfi_coherent(r)
    columns = _grid_columns(points)
    columns.update(j_alpha=np.full(len(points), j_alpha), j_s=j_s, j_f=j_f, j_ideal=j_ideal)
    columns.update(p_s=p_s, p_f=p_f, ps_js=p_s * j_s, pf_jf=p_f * j_f, j_nla_asymptotic=j_nla)
    for name in ("j_s", "j_f", "j_ideal", "ps_js", "pf_jf", "j_nla_asymptotic"):
        norm = columns[name] / j_alpha if j_alpha > 0.0 else np.full(len(points), math.nan)
        columns[f"{name}_norm"] = norm
    return columns


def sweep_fraction(m: int, breakdown: FisherBreakdown) -> dict[str, np.ndarray]:
    """The fraction figure as columns: name -> numpy array with one entry per n_s = 0..m.

    Row n_s holds the conditional information at n_s and, last, p_ns_or_more =
    binomial_tail(m, p_s, n_s), the chance of at least n_s successes in one
    experiment.  The marker columns flag the most likely count round(m * p_s) and
    the first count whose conditional information exceeds j_alpha (all zero when
    there is no crossing).  n_s and the markers are int64, every other column is
    float64.  The tail column is one binomial_tail call over every n_s, through this
    module's global name.  m is an integer >= 1 by `errors.as_int`: a bool or a
    float, integral ones such as 1000.0 included, raises a ValueError naming m.
    """
    m = as_int("m", m, minimum=1)
    most_likely = int(round(m * breakdown.p_s))
    try:
        crossing = min_ns_exceeding(m, breakdown)
    except NoCrossingError:
        crossing = None
    # column by column, with the double operations of j_nla_conditional: every
    # operand is an integer below 2**53 or a double, so each value is the same double
    ns = np.arange(m + 1)
    ns_js = ns * breakdown.j_s
    nf_jf = (m - ns) * breakdown.j_f
    j = (ns_js + nf_jf) / m
    ja = breakdown.j_alpha
    columns = {
        "n_s": ns,
        "fraction": ns / m,
        "ns_js_over_m": ns_js / m,
        "nf_jf_over_m": nf_jf / m,
        "j_nla": j,
        "j_nla_norm": j / ja if ja > 0.0 else np.full(m + 1, math.nan),
        "is_most_likely": (ns == most_likely).astype(int),
        "is_crossing": (ns == (-1 if crossing is None else crossing)).astype(int),
    }
    columns["p_ns_or_more"] = binomial_tail(m, breakdown.p_s, ns)  # the whole column in one walk
    return columns
