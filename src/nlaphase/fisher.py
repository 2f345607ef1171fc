"""Quantum Fisher information of the heralded branches and the post-selection bookkeeping.

For a pure state family the information is J = 4(<dpsi|dpsi> - |<psi|dpsi>|^2),
evaluated after checking that the state--derivative overlap is purely imaginary
(it is i*<n> for every family handled here).  Branch values J_s, J_f combine into
the count-conditioned average J_nla = (n_s J_s + n_f J_f) / m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoCrossingError
from .fock import CoherentParams, FockVector, choose_cutoff, inner_product, phase_derivative
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
    """Closed form 4 r^2 for a coherent state of amplitude r."""
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"r must be finite and >= 0, got {r}")
    return 4.0 * r * r


def branch_breakdown(r: float, params: NlaParams) -> FisherBreakdown:
    """Evaluate every information figure for one (r, gain, n0) working point.

    The failure branch of the identity device (gain = 1) never occurs; its
    information is reported as 0 with p_f = 0 so the probability-weighted sum
    stays well-defined.
    """
    input = CoherentParams(r, 0.0)
    cutoff = choose_cutoff(input, params.n0, params.gain)
    p_s, p_f = heralding_probabilities(r, params)

    succ, fail = apply_branch(input, params, cutoff)
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
    """Count-weighted information (n_s J_s + n_f J_f) / (n_s + n_f)."""
    if n_s < 0 or n_f < 0:
        raise ValueError("counts must be nonnegative")
    m = n_s + n_f
    if m < 1:
        raise ValueError("need at least one event")
    return (n_s * breakdown.j_s + n_f * breakdown.j_f) / m


def min_ns_exceeding(m: int, breakdown: FisherBreakdown) -> int:
    """Smallest success count for which the conditional information beats j_alpha.

    Requires j_s > j_alpha; otherwise no count can cross and NoCrossingError is
    raised.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
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


def binomial_tail(m: int, p: float, k: int) -> float:
    """Upper tail P[X >= k] of a Binomial(m, p) count.

    The sum starts from an lgamma-based anchor term and walks with the exact
    term-ratio recurrence.  Sums that start deep in a tail are taken on the side
    where the anchor term is representable: above the mode directly, below the
    mode through the complement.  The walk stops once a term falls below 1e-18
    of the running sum or reaches exactly 0.0.  Far from the mode the anchor
    term underflows to 0.0; every later term is then 0.0 times a finite ratio,
    so the sum cannot change and stopping returns the same double as walking
    on to the end.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not 0 <= k <= m:
        raise ValueError(f"k must lie in [0, m], got k={k}, m={m}")
    if k == 0:
        return 1.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    mode = (m + 1) * p
    if k > mode:
        return min(1.0, _binom_sum_up(m, p, k))
    return max(0.0, 1.0 - _binom_sum_down(m, p, k - 1))


def _binom_log_pmf(m: int, p: float, j: int) -> float:
    return (
        math.lgamma(m + 1)
        - math.lgamma(j + 1)
        - math.lgamma(m - j + 1)
        + j * math.log(p)
        + (m - j) * math.log1p(-p)
    )


def _binom_sum_up(m: int, p: float, k: int) -> float:
    term = math.exp(_binom_log_pmf(m, p, k))
    ratio = p / (1.0 - p)
    total = 0.0
    for j in range(k, m + 1):
        total += term
        if term == 0.0 or term < total * 1e-18:
            break
        term *= (m - j) / (j + 1) * ratio
    return total


def _binom_sum_down(m: int, p: float, k: int) -> float:
    # sum of pmf(0..k), walking downward from j = k
    term = math.exp(_binom_log_pmf(m, p, k))
    ratio = (1.0 - p) / p
    total = 0.0
    for j in range(k, -1, -1):
        total += term
        if term == 0.0 or term < total * 1e-18:
            break
        if j > 0:
            term *= j / (m - j + 1) * ratio
    return total


def default_gain_grid(count: int = 40, g_max: float = 8.0) -> np.ndarray:
    """Log-spaced gain grid on [1, g_max]; log spacing resolves the steep small-g region."""
    return np.geomspace(1.0, g_max, count)


def sweep_gain(r: float, n0_list, gains=None) -> list[dict]:
    """One row of breakdown figures per (n0, gain) grid point, n0-major order.

    Each row also carries copies normalized to j_alpha = 1 (NaN when r = 0).
    """
    gains = default_gain_grid() if gains is None else np.asarray(gains, dtype=float)
    if gains.size == 0:
        raise ValueError("gain grid must be nonempty")
    # NlaParams checks every point before the first breakdown runs
    points = [NlaParams(float(g), int(n0)) for n0 in n0_list for g in gains]
    rows = []
    for params in points:
        b = branch_breakdown(r, params)
        ja = b.j_alpha
        norm = (lambda v: v / ja) if ja > 0.0 else (lambda v: float("nan"))
        rows.append(
            {
                "gain": params.gain,
                "n0": params.n0,
                "j_alpha": b.j_alpha,
                "j_s": b.j_s,
                "j_f": b.j_f,
                "j_ideal": b.j_ideal,
                "p_s": b.p_s,
                "p_f": b.p_f,
                "ps_js": b.p_s * b.j_s,
                "pf_jf": b.p_f * b.j_f,
                "j_nla_asymptotic": b.j_nla_asymptotic,
                "j_s_norm": norm(b.j_s),
                "j_f_norm": norm(b.j_f),
                "j_ideal_norm": norm(b.j_ideal),
                "ps_js_norm": norm(b.p_s * b.j_s),
                "pf_jf_norm": norm(b.p_f * b.j_f),
                "j_nla_asymptotic_norm": norm(b.j_nla_asymptotic),
            }
        )
    return rows


def sweep_fraction(m: int, breakdown: FisherBreakdown) -> list[dict]:
    """The fraction figure: one row per success count n_s = 0..m.

    Each row holds the conditional information at n_s and, last, p_ns_or_more =
    binomial_tail(m, p_s, n_s), the chance of at least n_s successes in one
    experiment.  Marker columns flag the most likely count round(m * p_s) and the
    first count whose conditional information exceeds j_alpha (all zero when there
    is no crossing).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
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
    # above the mode binomial_tail is 0.0 exactly where its lgamma anchor underflows,
    # and the anchor falls with n_s there, so after the first such 0.0 every row is 0.0
    mode = (m + 1) * breakdown.p_s
    tails = []
    for n_s in range(m + 1):
        tails.append(binomial_tail(m, breakdown.p_s, n_s))
        if tails[-1] == 0.0 and n_s > mode:
            tails += [0.0] * (m - n_s)
            break
    names = [*columns, "p_ns_or_more"]
    values = [c.tolist() for c in columns.values()] + [tails]
    return [dict(zip(names, row)) for row in zip(*values)]
