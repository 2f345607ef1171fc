"""The references the tests check the package against, one place per figure.

A figure has at most one float reference and at most one mpmath reference:

- a float reference is the expression the package must reproduce bit for bit, and
  is named after the package function whose doubles it pins; two are independent
  float computations checked to a tolerance instead, `qfi_finite_difference` and
  `observable_matrix`;
- an mpmath reference (name ending in `_mp`) is summed at a stated precision,
  independent of the package's floating-point path, and checks accuracy.

Figures: the coherent state; the Poisson tail and the cutoff; p_s and p_f; the
branch states; J_s and J_f; the binomial tail; the observable and the estimators;
the sampling kernel; the dataset writers.
"""

import csv
import functools
import io
import json
import math

import mpmath as mp
import numpy as np

import nlaphase
from nlaphase import FockVector
from nlaphase.kernels import uniform_stream

# -- coherent state -----------------------------------------------------------


def coherent_state(r, theta, cutoff):
    """The recurrence as one call ran it before amplitudes were reused across calls."""
    vacuum = math.exp(-0.5 * r**2)
    alpha = r * np.exp(1j * theta)
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[0] = vacuum
    for n in range(cutoff):
        amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1)
    return amps


# -- Poisson tail and the cutoff ----------------------------------------------


def _far_side_sum(term, level, step, end, ratio):
    """term + term * ratio(level) + ..., stepping toward `end` (None: no end), until a
    term is below 2**-60 of the sum."""
    total = mp.mpf(0)
    while True:
        total += term
        if term < total * mp.mpf(2) ** -60 or level == end:
            return total
        term *= ratio(level)
        level += step


def poisson_sides_mp(n, mu, dps=30):
    """(P[N <= n], P[N > n], pmf at n) for N ~ Poisson(mu), finite mu >= 0, as mpf values.

    The side away from the mode is summed term by term from its first term, whose
    logarithm mpmath evaluates; the other side is the complement.  No gammainc:
    mpmath's raised NoConvergence near mu = 1.2e7.
    """
    with mp.workdps(dps):
        if mu == 0:
            return mp.mpf(1), mp.mpf(0), mp.mpf(n == 0)
        m = mp.mpf(mu)
        if n < mu:
            first, step, end, ratio = n, -1, 0, lambda k: k / m
        else:
            first, step, end, ratio = n + 1, 1, None, lambda k: m / (k + 1)
        anchor = mp.exp(-m + first * mp.log(m) - mp.loggamma(first + 1))
        side = anchor * _far_side_sum(mp.mpf(1), first, step, end, ratio)
        pmf = mp.exp(-m + n * mp.log(m) - mp.loggamma(n + 1))
        return (side, 1 - side, pmf) if step < 0 else (1 - side, side, pmf)


@functools.cache
def cutoff_contract_holds(n, r, n0, g):
    """choose_cutoff's contract for the cutoff n, at 30 digits: P[N > n] < 1e-12 for
    N ~ Poisson((g r)^2), and P[N > n - 1] >= 1e-12 unless n is the floor n0 + 1."""
    _, above, pmf = poisson_sides_mp(n, (g * r) ** 2)
    with mp.workdps(30):
        bound = mp.mpf("1e-12")
        return above < bound and (n == n0 + 1 or above + pmf >= bound)


# -- heralding probabilities p_s, p_f -----------------------------------------


def heralding_probabilities(r, g, n0):
    """The running-term loop that the probabilities are kept bit-identical to."""
    w = math.exp(-r * r)
    g2 = g**2
    term, gfac = 1.0, g2 ** (-n0)
    head = plain = fail = 0.0
    for n in range(n0 + 1):
        head += term * gfac
        plain += term
        fail += term * (1.0 - gfac)
        term *= r * r / (n + 1)
        gfac *= g2
    return w * head + (1.0 - w * plain), w * fail


def heralding_probabilities_mp(r, g, n0, dps=60):
    """(p_s, p_f) as floats: the Poisson(r^2) head n <= n0 weighted by g^(2(n - n0))
    and by 1 - g^(2(n - n0)), and the Poisson tail above n0, at `dps` digits."""
    with mp.workdps(dps):
        mu, g = mp.mpf(r) ** 2, mp.mpf(g)
        terms = [mp.exp(-mu) * mu**n / mp.factorial(n) for n in range(n0 + 1)]
        ratio = [g ** (2 * (n - n0)) for n in range(n0 + 1)]
        head = mp.fsum(t * w for t, w in zip(terms, ratio))
        fail = mp.fsum(t * (1 - w) for t, w in zip(terms, ratio))
        tail = poisson_sides_mp(n0, mu, dps)[1]
        return float(head + tail), float(fail)


# -- branch states: weights, normalized states, phase derivatives -------------


def arm_weights(params, cutoff):
    """(w_s, w_f) on levels 0..cutoff, each by one formula over all levels."""
    n = np.arange(cutoff + 1, dtype=np.float64)
    ratio = np.power(params.gain, np.minimum(n - params.n0, 0.0))
    head = n <= params.n0
    return np.where(head, ratio, 1.0), np.where(head, np.sqrt(np.maximum(0.0, 1.0 - ratio**2)), 0.0)


def apply_branch(input, params, cutoff):
    """Both branch states as weights * amplitudes / sqrt(p), each a new vector; None
    for an arm whose probability is 0.0."""
    alpha = nlaphase.coherent_state(input, cutoff).amplitudes
    probabilities = nlaphase.heralding_probabilities(input.r, params)
    return tuple(
        FockVector(w * alpha / math.sqrt(p)) if p > 0.0 else None
        for w, p in zip(arm_weights(params, cutoff), probabilities)
    )


def phase_derivative(v):
    """phase_derivative as it was written, building its factors on every call."""
    n = np.arange(v.cutoff + 1)
    return FockVector(1j * n * v.amplitudes)


# -- branch information J_s, J_f ----------------------------------------------


def qfi_finite_difference(r, g, n0, arm, hi_cutoff=60, h=1e-5):
    """Brute-force branch QFI: explicit amplitudes in a large basis, numerically
    normalized, differentiated by central differences.  Independent of the
    production path (no recurrence, no closed-form probability, no i*n rule)."""

    def normalized(theta):
        alpha = r * np.exp(1j * theta)
        n = np.arange(hi_cutoff + 1, dtype=float)
        log_fact = np.cumsum(np.log(np.maximum(n, 1.0)))
        amps = np.exp(-r**2 / 2) * alpha ** n * np.exp(-log_fact / 2)
        if arm == "success":
            w = np.where(n <= n0, float(g) ** (n - n0), 1.0)
        else:
            w = np.where(n <= n0, np.sqrt(np.maximum(0.0, 1.0 - float(g) ** (2 * (n - n0)))), 0.0)
        v = w * amps
        return v / np.linalg.norm(v)

    psi = normalized(0.0)
    dpsi = (normalized(h) - normalized(-h)) / (2 * h)
    overlap = np.vdot(psi, dpsi)
    return 4.0 * (np.vdot(dpsi, dpsi).real - abs(overlap) ** 2)


def arm_information_mp(r, g, n0, arm, dps=60):
    """4 Var(n) under one arm's law, as a float, summed at `dps` digits: no state
    vector, no double that can underflow.

    The failure law is Poisson(r^2) times 1 - g^(2(n - n0)) on levels 0..n0-1; the
    success law is the Poisson law less the failure law, so its moments are the
    Poisson moments (1, mu, mu + mu^2) less the failure law's.
    """
    with mp.workdps(dps):
        mu, g = mp.mpf(r) ** 2, mp.mpf(g)
        w = [mp.exp(-mu) * mu**n / mp.factorial(n) * (1 - g ** (2 * (n - n0))) for n in range(n0)]
        moments = [mp.fsum(n**k * x for n, x in enumerate(w)) for k in range(3)]
        if arm == "success":
            moments = [a - b for a, b in zip((1, mu, mu + mu**2), moments)]
        total, first, second = moments
        return float(4 * (second / total - (first / total) ** 2))


# -- binomial tail P[X >= k], X ~ Binomial(m, p) ------------------------------


def binomial_tail(m, p, k):
    """binomial_tail for one level as the float loop of `fisher._tail_sums`' docstring:
    (tail, the walk's sum, the terms it added).

    Above the mode (m + 1) p the walk starts at k and the tail is min(1, sum); at or
    below it the walk starts at k - 1, runs down, and the tail is max(0, 1 - sum).  The
    walk stops at a 0.0 term, at a term below 1e-18 of the sum, or at the end level;
    terms shrink away from the mode, so the stop at 0.0 changes the count, never the
    sum.  The trivial levels add no term and have no sum.
    """
    if k == 0 or p == 1.0:
        return 1.0, None, 0
    if p == 0.0:
        return 0.0, None, 0
    up = k > (m + 1) * p
    j, step, end = (k, 1, m) if up else (k - 1, -1, 0)
    term = math.exp(
        math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
        + j * math.log(p) + (m - j) * math.log1p(-p)
    )
    ratio = p / (1.0 - p) if up else (1.0 - p) / p
    total, added = 0.0, 0
    while True:
        total += term
        added += 1
        if term == 0.0 or term < total * 1e-18 or j == end:
            break
        term *= (m - j) / (j + 1) * ratio if up else j / (m - j + 1) * ratio
        j += step
    return (min(1.0, total) if up else max(0.0, 1.0 - total)), total, added


def binomial_tail_mp(m, p, k, dps=30):
    """P[X >= k] as a float, summed at `dps` digits on the side of the mode away from it:
    up from k above the mode (m + 1) p, else 1 less the sum down from k - 1."""
    if k == 0:
        return 1.0
    with mp.workdps(dps):
        p = mp.mpf(p)
        odds = p / (1 - p)
        up = k > (m + 1) * p
        j = k if up else k - 1
        term = mp.binomial(m, j) * p**j * (1 - p) ** (m - j)
        if up:
            return float(_far_side_sum(term, j, 1, m, lambda i: (m - i) * odds / (i + 1)))
        return float(1 - _far_side_sum(term, j, -1, 0, lambda i: i / (odds * (m - i + 1))))


# -- observable and estimators ------------------------------------------------


def observable_matrix(lam, psi0, dpsi0):
    """Independent reconstruction of the observable as a dense matrix."""
    outer = np.outer(psi0.amplitudes, dpsi0.amplitudes.conj())
    return 2.0 * lam**2 * (outer + outer.conj().T)


def mle(counts, lambda_s, lambda_f=None):
    """(estimates, has_data) of each run: the estimators as whole-array expressions,
    in the package's operation order.

    counts[..., 0:2] is the (+, -) pair of the success arm, or of the direct
    measurement; counts[..., 2:4] that of the failure arm, read only when lambda_f
    is given (lambda_f None is mle_direct, or mle_nla with a degenerate failure arm).
    A run without an informative count has no data; its estimate is a placeholder.
    """
    s_plus, s_minus = counts[..., 0], counts[..., 1]
    n_s = s_plus + s_minus
    theta_s = lambda_s * (s_plus - s_minus) / np.maximum(n_s, 1)
    if lambda_f is None:
        return theta_s, n_s >= 1
    f_plus, f_minus = counts[..., 2], counts[..., 3]
    n_f = f_plus + f_minus
    theta_f = lambda_f * (f_plus - f_minus) / np.maximum(n_f, 1)
    w_s = n_s * lambda_f**2
    w_f = n_f * lambda_s**2
    with np.errstate(invalid="ignore"):  # 0/0 on runs without data, discarded below
        combined = (w_s * theta_s + w_f * theta_f) / (w_s + w_f)
    return np.where(n_f == 0, theta_s, np.where(n_s == 0, theta_f, combined)), n_s + n_f >= 1


# -- sampling kernel ----------------------------------------------------------


def hash64(key, counter):
    """The 64-bit hash behind one draw, on masked python ints."""
    mask = (1 << 64) - 1
    z = (key + ((counter + 1) * 0x9E3779B97F4A7C15 & mask)) & mask
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def categorical_counts(key, run0, runs, m, probs):
    """Per-row bincount of searchsorted over the raw uniforms: the float categorization."""
    probs = np.asarray(probs, dtype=np.float64)
    cdf = np.cumsum(probs[:-1])
    cat = np.searchsorted(cdf, uniform_stream(key, run0 * m, runs * m), side="right")
    out = np.zeros((runs, probs.size), dtype=np.int64)
    for i, row in enumerate(cat.reshape(runs, m)):
        out[i] = np.bincount(row, minlength=probs.size)
    return out


# -- dataset writers ----------------------------------------------------------


def json_text(obj):
    """obj as json.dump(indent=2) writes it with the pure-Python encoder, plus a newline."""
    buf = io.StringIO()
    json.dump(obj, buf, indent=2)
    return buf.getvalue() + "\n"


def csv_bytes(rows, names=None):
    """The rows as csv.DictWriter writes them, header first; the header is the
    first row's keys unless names are given."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]) if names is None else names)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode()
