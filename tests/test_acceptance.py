"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion lines
and timings.  Seeded statistical criteria are pinned to ACCEPTANCE_SEED so the
whole gate is deterministic.
"""

import math
import time
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from nlaphase import (
    CoherentParams,
    CostParams,
    NlaParams,
    SimConfig,
    apply_branch,
    arm_weights,
    binomial_tail,
    branch_breakdown,
    breakeven_y,
    build_observable,
    choose_cutoff,
    coherent_state,
    cost_direct,
    cost_postselect,
    derive_key,
    heralding_probabilities,
    min_ns_exceeding,
    outcome_probabilities,
    phase_derivative,
    qfi_coherent,
    qfi_pure,
    simulate_direct,
    simulate_nla,
)
from nlaphase.cli import main as cli_main

ACCEPTANCE_SEED = 4

GRID_R = [0.0, 0.1, 0.25, 0.5, 1.0]
GRID_G = [1.0, 1.5, 2.0, 4.0, 8.0]
GRID_N0 = [1, 2, 3, 4, 5]


@contextmanager
def criterion(num: int, desc: str, time_limit: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} FAIL: {desc}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < time_limit
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc} [{elapsed:.2f}s / {time_limit:.0f}s]")
    assert ok, f"runtime {elapsed:.2f}s exceeded the {time_limit}s limit"


def test_criterion_01_analytic_qfi():
    with criterion(1, "coherent-family QFI equals 4r^2 within 1e-9", 1.0):
        for r in (0.1, 0.25, 0.5, 1.0):
            cutoff = choose_cutoff(CoherentParams(r), 1, 1.0)
            psi = coherent_state(CoherentParams(r), cutoff)
            got = qfi_pure(psi, phase_derivative(psi))
            assert abs(got - 4 * r**2) < 1e-9, f"r={r}: {got} vs {4 * r**2}"


def test_criterion_02_probability_completeness():
    with criterion(2, "p_s + p_f = 1 (1e-12) and E_s^2 + E_f^2 = 1 (1e-14) on the grid", 1.0):
        for r, g, n0 in product(GRID_R, GRID_G, GRID_N0):
            params = NlaParams(g, n0)
            p_s, p_f = heralding_probabilities(r, params)
            assert abs(p_s + p_f - 1.0) < 1e-12
            es, ef = arm_weights(params, n0 + 3)
            assert float(np.max(np.abs(es**2 + ef**2 - 1.0))) < 1e-14


def test_criterion_03_degenerate_failure():
    with criterion(3, "n0 = 1 failure branch: J_f < 1e-12 and a vacuum state for g > 1", 1.0):
        for r, g in product((0.1, 0.25, 0.5), (1.5, 2.0, 4.0, 8.0)):
            b = branch_breakdown(r, NlaParams(g, 1))
            assert b.j_f < 1e-12
            cutoff = choose_cutoff(CoherentParams(r), 1, g)
            _, state = apply_branch(CoherentParams(r), NlaParams(g, 1), cutoff)
            vacuum = np.zeros(cutoff + 1)
            vacuum[0] = 1.0
            assert float(np.max(np.abs(state.amplitudes - vacuum))) < 1e-12


def test_criterion_04_information_ordering():
    with criterion(4, "J_s >= J_alpha >= J_f and p_s J_s + p_f J_f <= J_alpha on the grid", 5.0):
        # comparisons carry a 1e-9 margin, the truncation accuracy of the QFI
        # itself (criterion 1)
        violations = []
        for r, g, n0 in product(GRID_R, GRID_G, GRID_N0):
            b = branch_breakdown(r, NlaParams(g, n0))
            if not b.j_s >= b.j_alpha - 1e-9:
                violations.append(f"J_s < J_alpha at r={r} g={g} n0={n0}: {b.j_s:.6f} < {b.j_alpha:.4f}")
            assert b.j_alpha >= b.j_f - 1e-9
            assert b.j_nla_asymptotic <= b.j_alpha + 1e-12
            if r > 0.0:
                if g == 1.0:
                    assert abs(b.j_nla_asymptotic - b.j_alpha) < 1e-9
                else:
                    # equality only at the identity device
                    assert b.j_nla_asymptotic < b.j_alpha
        # Unattainable as specified: J_s >= J_alpha is the figures' moderate-r
        # behavior and genuinely reverses at large r*g, where the level filter
        # narrows an already broad photon distribution (J = 4 Var(n)).  Verified
        # against the independent brute-force oracle; see the decisions ledger.
        assert not violations, "J_s >= J_alpha fails on the stated grid:\n  " + "\n  ".join(violations)


def test_criterion_05_paper_numbers():
    with criterion(5, "min_ns_exceeding = 90 and binomial tail 0.0468 +- 0.0005", 1.0):
        b = branch_breakdown(0.25, NlaParams(2.0, 2))
        assert min_ns_exceeding(1000, b) == 90
        assert abs(binomial_tail(1000, b.p_s, 90) - 0.0468) < 0.0005


def test_criterion_06_observable_correctness():
    with criterion(6, "observable: lambda, trace, second moment, bias-ratio window", 1.0):
        r = 0.25
        cutoff = choose_cutoff(CoherentParams(r), 1, 1.0)
        psi0 = coherent_state(CoherentParams(r), cutoff)
        dpsi0 = phase_derivative(psi0)
        obs = build_observable(psi0, dpsi0)
        j = qfi_pure(psi0, dpsi0)
        assert abs(obs.lam - 1.0 / math.sqrt(j)) < 1e-10

        outer = np.outer(psi0.amplitudes, dpsi0.amplitudes.conj())
        mat = 2.0 * obs.lam**2 * (outer + outer.conj().T)
        cp, cm = obs.c_plus.amplitudes, obs.c_minus.amplitudes
        trace = np.vdot(cp, mat @ cp).real + np.vdot(cm, mat @ cm).real
        assert abs(trace) < 1e-10

        p0 = outcome_probabilities(obs, psi0)
        assert abs(obs.lam**2 * (p0[0] + p0[1]) - obs.lam**2) < 1e-10

        def mean(th):
            state = coherent_state(CoherentParams(r, th), cutoff)
            p = outcome_probabilities(obs, state)
            return obs.lam * (p[0] - p[1])

        for theta in (5e-4, 1e-3):
            ratio = abs(mean(2 * theta) - 2 * theta) / abs(mean(theta) - theta)
            # The residual e(theta) = mean(theta) - theta is cubic by parity.  At
            # theta = 0 the amplitudes are real and the derivative is imaginary,
            # so c_minus = conj(c_plus); conjugation maps |r e^{i theta}> to
            # |r e^{-i theta}>, hence p_plus(theta) = p_minus(-theta) and the mean
            # is odd in theta.  With no even terms e(theta) = -k theta^3 + O(theta^5)
            # and the ratio is 8 + O(theta^2).  The half-width 0.5 still rejects a
            # quadratic (ratio 4) or linear (ratio 2) residual.  See the decisions
            # ledger in the README.
            assert 7.5 <= ratio <= 8.5, (
                f"bias scaling ratio e(2*theta)/e(theta) = {ratio:.6f} at theta={theta}; "
                "parity makes the mean residual odd in theta, so its leading term is "
                "cubic and the ratio must lie in [7.5, 8.5] (8 + O(theta^2))"
            )


def _simulate_grid(seed: int, runs: int):
    j_alpha = qfi_coherent(0.25)
    direct_cfg = SimConfig(r=0.25, theta_true=0.01, gain=1.0, n0=1, m=1000, runs=runs, seed=seed)
    direct = simulate_direct(direct_cfg)
    points = {}
    for idx, (n0, g) in enumerate(product((1, 2, 3), (1.5, 2.0, 3.0))):
        cfg = SimConfig(
            r=0.25, theta_true=0.01, gain=g, n0=n0, m=1000, runs=runs,
            seed=derive_key(seed, idx + 1),
        )
        points[(g, n0)] = simulate_nla(cfg)
    return j_alpha, direct, points


def test_criterion_07_precision_simulation():
    with criterion(7, "desk-scale precision: direct at 1, amplifier below it everywhere", 300.0):
        j_alpha, direct, points = _simulate_grid(ACCEPTANCE_SEED, runs=100_000)
        norm_direct = direct.precision / j_alpha
        norm_se = direct.stderr_precision / j_alpha
        assert abs(norm_direct - 1.0) < 3 * norm_se, f"direct {norm_direct} +- {norm_se}"
        for (g, n0), report in points.items():
            assert report.precision < direct.precision, (
                f"g={g} n0={n0}: nla {report.precision / j_alpha:.4f} "
                f"vs direct {norm_direct:.4f}"
            )


def test_criterion_08_identity_device_equivalence():
    with criterion(8, "gain 1: heralded and direct experiments agree within 3 sigma", 60.0):
        cfg = SimConfig(r=0.25, theta_true=0.01, gain=1.0, n0=1, m=1000, runs=100_000,
                        seed=ACCEPTANCE_SEED)
        direct = simulate_direct(cfg)
        nla = simulate_nla(cfg)
        spread = math.hypot(direct.stderr_precision, nla.stderr_precision)
        assert abs(direct.precision - nla.precision) < 3 * spread


def test_criterion_09_cost_breakeven():
    with criterion(9, "break-even equality on 1000 draws and the worked example", 1.0):
        y_star = breakeven_y(1.0, 1.0, 0.25, 0.5, 0.1)
        assert abs(y_star - 18.0) < 1e-12
        for eps in (1.0, 3.5):
            params = CostParams(1.0, y_star, 1.0, eps)
            assert abs(cost_direct(params, 0.25) - 76.0 * eps) < 1e-10
            assert abs(cost_postselect(params, 0.5, 0.1) - 76.0 * eps) < 1e-10

        rng = np.random.default_rng(90210)
        checked = 0
        while checked < 1000:
            j_alpha = rng.uniform(0.05, 2.0)
            j_s = j_alpha * rng.uniform(1.01, 8.0)
            p_s = rng.uniform(0.01, 0.99)
            x, z = rng.uniform(0, 5), rng.uniform(0, 5)
            y = breakeven_y(x, z, j_alpha, j_s, p_s)
            if y < 0:
                continue
            params = CostParams(x, y, z, 1.0)
            a, b = cost_direct(params, j_alpha), cost_postselect(params, j_s, p_s)
            assert abs(a - b) < 1e-10 * max(1.0, a)
            checked += 1


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "identical manifests reproduce identical bytes", 60.0):
        out = tmp_path / "sim.csv"
        args = ["simulate", "--gains", "1,2", "--n0-list", "2", "--runs", "2000",
                "--seed", str(ACCEPTANCE_SEED), "--output", str(out)]
        assert cli_main(args) == 0
        first = out.read_bytes()

        again = tmp_path / "again.csv"
        assert cli_main(args[:-1] + [str(again)]) == 0
        assert again.read_bytes() == first

        rerun = tmp_path / "rerun.csv"
        assert cli_main(["rerun", "--manifest", str(out) + ".manifest.json",
                         "--output", str(rerun)]) == 0
        assert rerun.read_bytes() == first

