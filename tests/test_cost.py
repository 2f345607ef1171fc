"""Tests for the abstention cost model."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nlaphase import (
    CostParams,
    FisherBreakdown,
    NlaParams,
    branch_breakdown,
    breakeven_y,
    cost_direct,
    cost_postselect,
    recommend_strategy,
)
from nlaphase.errors import NoBreakevenError


def make_breakdown(j_alpha, j_s, p_s, j_f=0.0):
    p_f = 1.0 - p_s
    return FisherBreakdown(
        j_alpha=j_alpha,
        j_s=j_s,
        j_f=j_f,
        j_ideal=4 * j_s,
        p_s=p_s,
        p_f=p_f,
        j_nla_asymptotic=p_s * j_s + p_f * j_f,
    )


class TestCostDirect:
    def test_substitution(self):
        assert cost_direct(CostParams(1, 0, 0, 1), 0.25) == pytest.approx(4.0, abs=0)

    def test_linear_in_epsilon(self):
        c1 = cost_direct(CostParams(1, 2, 0, 1), 0.25)
        c2 = cost_direct(CostParams(1, 2, 0, 2), 0.25)
        assert c2 == pytest.approx(2 * c1, abs=0)

    def test_free_measurement_and_samples(self):
        assert cost_direct(CostParams(0, 0, 5, 1), 0.25) == 0.0

    def test_invalid_j(self):
        with pytest.raises(ValueError):
            cost_direct(CostParams(1, 1, 1, 1), 0.0)


class TestCostPostselect:
    def test_substitution(self):
        got = cost_postselect(CostParams(1, 18, 1, 1), 0.5, 0.1)
        assert got == pytest.approx(76.0, rel=1e-12)

    def test_identity_device_equals_direct(self):
        params = CostParams(1, 3, 0, 1)
        assert cost_postselect(params, 0.25, 1.0) == cost_direct(params, 0.25)

    def test_free_measurement_always_worse(self):
        # with y = 0, p_s*j_s < j_alpha makes post-selection strictly costlier
        params = CostParams(1, 0, 0, 1)
        for g in (1.5, 2.0, 4.0, 8.0):
            for n0 in (1, 2, 3):
                b = branch_breakdown(0.25, NlaParams(g, n0))
                assert cost_postselect(params, b.j_s, b.p_s) > cost_direct(params, b.j_alpha)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            cost_postselect(CostParams(1, 1, 1, 1), 0.5, 0.0)
        with pytest.raises(ValueError):
            cost_postselect(CostParams(1, 1, 1, 1), 0.0, 0.5)


class TestBreakeven:
    def test_worked_example(self):
        y_star = breakeven_y(1.0, 1.0, 0.25, 0.5, 0.1)
        assert y_star == pytest.approx(18.0, abs=1e-12)
        params = CostParams(1.0, y_star, 1.0, 1.0)
        assert cost_direct(params, 0.25) == pytest.approx(76.0, abs=1e-10)
        assert cost_postselect(params, 0.5, 0.1) == pytest.approx(76.0, abs=1e-10)

    def test_equality_on_random_draws(self):
        rng = np.random.default_rng(424242)
        checked = 0
        while checked < 1000:
            j_alpha = rng.uniform(0.05, 2.0)
            j_s = j_alpha * rng.uniform(1.01, 8.0)
            p_s = rng.uniform(0.01, 0.99)
            x, z = rng.uniform(0, 5), rng.uniform(0, 5)
            y_star = breakeven_y(x, z, j_alpha, j_s, p_s)
            if y_star < 0:  # p_s*j_s > j_alpha regime: post-selection always wins
                continue
            params = CostParams(x, y_star, z, 1.0)
            a = cost_direct(params, j_alpha)
            b = cost_postselect(params, j_s, p_s)
            assert abs(a - b) < 1e-10 * max(1.0, abs(a))
            checked += 1

    def test_difference_changes_sign_once(self):
        x, z, j_alpha, j_s, p_s = 1.0, 1.0, 0.25, 0.5, 0.1
        y_star = breakeven_y(x, z, j_alpha, j_s, p_s)
        ys = np.linspace(0, 3 * y_star, 400)
        diff = [
            cost_postselect(CostParams(x, y, z, 1.0), j_s, p_s)
            - cost_direct(CostParams(x, y, z, 1.0), j_alpha)
            for y in ys
        ]
        signs = np.sign(diff)
        flips = np.count_nonzero(signs[:-1] != signs[1:])
        assert flips == 1
        assert all(d > 0 for d, y in zip(diff, ys) if y < y_star)
        # both costs increase monotonically in y
        costs_d = [cost_direct(CostParams(x, y, z, 1.0), j_alpha) for y in ys]
        costs_p = [cost_postselect(CostParams(x, y, z, 1.0), j_s, p_s) for y in ys]
        assert all(a < b for a, b in zip(costs_d, costs_d[1:]))
        assert all(a < b for a, b in zip(costs_p, costs_p[1:]))

    def test_no_breakeven_when_success_branch_is_weaker(self):
        with pytest.raises(NoBreakevenError):
            breakeven_y(1.0, 1.0, 0.5, 0.5, 0.1)
        with pytest.raises(NoBreakevenError):
            breakeven_y(1.0, 1.0, 0.5, 0.4, 0.1)

    def test_grows_as_scaled_success_info_approaches_j_alpha(self):
        # shrink p_s at fixed (j_s - j_alpha): the x-term numerator grows while the
        # denominator shrinks, so the break-even cost climbs
        ys = [breakeven_y(1.0, 0.0, 0.25, 0.5, p) for p in (0.4, 0.2, 0.1, 0.05)]
        assert all(a < b for a, b in zip(ys, ys[1:]))


class TestRecommendStrategy:
    def test_free_measurement_prefers_direct(self):
        params = CostParams(1, 0, 1, 1)
        b = branch_breakdown(0.25, NlaParams(2.0, 2))
        assert recommend_strategy(params, b).strategy == "direct"

    def test_expensive_measurement_prefers_postselect(self):
        b = branch_breakdown(0.25, NlaParams(2.0, 2))
        y_star = breakeven_y(1.0, 1.0, b.j_alpha, b.j_s, b.p_s)
        report = recommend_strategy(CostParams(1.0, 2 * y_star, 1.0, 1.0), b)
        assert report.strategy == "postselect"
        assert report.breakeven_y == pytest.approx(y_star, abs=0)

    def test_weak_success_branch_prefers_direct(self):
        b = make_breakdown(j_alpha=0.5, j_s=0.4, p_s=0.3)
        report = recommend_strategy(CostParams(1, 100, 1, 1), b)
        assert report.strategy == "direct"
        assert report.breakeven_y is None

    def test_exact_tie_goes_direct(self):
        # identity device with free amplification: both expressions coincide
        b = make_breakdown(j_alpha=0.25, j_s=0.25, p_s=1.0)
        report = recommend_strategy(CostParams(1, 3, 0, 1), b)
        assert report.cost_direct == report.cost_postselect
        assert report.strategy == "direct"

    def test_epsilon_scaling_preserves_choice(self):
        b = branch_breakdown(0.25, NlaParams(2.0, 2))
        for y in (0.0, 5.0, 20.0, 100.0):
            small = recommend_strategy(CostParams(1, y, 1, 1), b)
            large = recommend_strategy(CostParams(1, y, 1, 250), b)
            assert small.strategy == large.strategy

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
    @pytest.mark.parametrize("field", ["j_alpha", "j_s", "p_s"])
    def test_bad_breakdown_field_raises(self, field, value):
        # a NaN fails every comparison, and a negative p_s or j_s fails the > 0
        # guards: neither may pass for a missing route or a missing break-even cost
        b = replace(branch_breakdown(0.25, NlaParams(2.0, 2)), **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            recommend_strategy(CostParams(1, 18, 1, 1), b)


class TestCostParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostParams(-1, 0, 0, 1)
        with pytest.raises(ValueError):
            CostParams(0, 0, 0, 0)
