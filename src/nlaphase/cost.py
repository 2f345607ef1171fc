"""Abstention economics: when is amplify-and-post-select cheaper than measuring everything?

Costs: x per sample acquired, y per estimator measurement, z per amplification,
with epsilon the total information budget (so a route with per-sample information
J needs epsilon/J measured samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoBreakevenError, as_float
from .fisher import FisherBreakdown

__all__ = [
    "CostParams",
    "StrategyReport",
    "cost_direct",
    "cost_postselect",
    "breakeven_y",
    "recommend_strategy",
]


@dataclass(frozen=True)
class CostParams:
    """Per-sample costs (x acquire, y measure, z amplify) and precision budget epsilon.

    Each is a finite float by `errors.as_float`: x, y and z >= 0, epsilon > 0.
    """

    x: float
    y: float
    z: float
    epsilon: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, as_float(name, getattr(self, name), minimum=0))
        object.__setattr__(self, "epsilon", _positive("epsilon", self.epsilon))


@dataclass(frozen=True)
class StrategyReport:
    """Cheaper strategy plus both route costs and the break-even measurement cost."""

    strategy: str  # "direct" | "postselect"
    cost_direct: float
    cost_postselect: float
    breakeven_y: float | None


def _positive(name: str, value) -> float:
    value = as_float(name, value)
    if value <= 0.0:
        raise ValueError(f"{name} must be a finite number > 0, got {value}")
    return value


def _success_probability(p_s) -> float:
    p_s = as_float("p_s", p_s)
    if not 0.0 < p_s <= 1.0:
        raise ValueError(f"p_s must lie in (0, 1], got {p_s}")
    return p_s


def cost_direct(params: CostParams, j_alpha: float) -> float:
    """Cost epsilon*(x + y)/j_alpha of measuring every acquired sample (j_alpha > 0)."""
    return params.epsilon * (params.x + params.y) / _positive("j_alpha", j_alpha)


def cost_postselect(params: CostParams, j_s: float, p_s: float) -> float:
    """Cost epsilon*(x + z + p_s*y)/(p_s*j_s) of measuring only heralded successes.

    The budget needs epsilon/j_s measured samples, hence epsilon/(p_s*j_s)
    acquisitions and amplifications, of which the fraction p_s is measured.
    j_s > 0 and p_s in (0, 1] are finite floats by `errors.as_float`.
    """
    j_s, p_s = _positive("j_s", j_s), _success_probability(p_s)
    return params.epsilon * (params.x + params.z + p_s * params.y) / (p_s * j_s)


def breakeven_y(x: float, z: float, j_alpha: float, j_s: float, p_s: float) -> float:
    """Measurement cost y* at which both strategies cost the same.

    y* = ((j_alpha - p_s*j_s)*x + j_alpha*z) / (p_s*(j_s - j_alpha)); above it,
    post-selection wins.  Requires j_s > j_alpha, otherwise post-selection can
    never win and NoBreakevenError is raised.  Every argument is a finite float
    by `errors.as_float`: x and z >= 0, j_alpha > 0 and p_s in (0, 1].
    """
    x, z = as_float("x", x, minimum=0), as_float("z", z, minimum=0)
    j_alpha, j_s = _positive("j_alpha", j_alpha), as_float("j_s", j_s)
    p_s = _success_probability(p_s)
    if not j_s > j_alpha:
        raise NoBreakevenError(
            f"j_s = {j_s:.6g} does not exceed j_alpha = {j_alpha:.6g}; post-selection cannot win"
        )
    return ((j_alpha - p_s * j_s) * x + j_alpha * z) / (p_s * (j_s - j_alpha))


def recommend_strategy(params: CostParams, breakdown: FisherBreakdown) -> StrategyReport:
    """Pick the cheaper strategy; ties go to direct (no amplifier hardware needed).

    The breakdown's j_alpha, j_s and p_s are finite floats by `errors.as_float`,
    j_s and p_s >= 0.
    """
    c_direct = cost_direct(params, breakdown.j_alpha)
    j_s = as_float("j_s", breakdown.j_s, minimum=0)
    p_s = as_float("p_s", breakdown.p_s, minimum=0)
    c_post = cost_postselect(params, j_s, p_s) if p_s > 0.0 and j_s > 0.0 else math.inf
    y_star = None
    if p_s > 0.0 and j_s > breakdown.j_alpha:
        y_star = breakeven_y(params.x, params.z, breakdown.j_alpha, j_s, p_s)
    strategy = "postselect" if c_post < c_direct else "direct"
    return StrategyReport(strategy, c_direct, c_post, y_star)
