"""Exponentially tilted step measure and the product-measure identity.

At the root exponent alpha the weighted expectation
E[sum_i C_i^alpha g(log C_i)] defines a probability measure eta on the
log-weight line, and the generation-n weighted measure factorizes as the
n-fold convolution of eta.  This module builds eta in closed form for
the supported weight families and verifies the factorization by two
independent Monte Carlo routes: a tree side grown as one forest from the
shared generator, and a convolution-side sum of iid tilted draws.

The verification is the numerical heart of the tail analysis: the
plateau constant and the tilted mean both stand on this identity.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (LognormalValue, ModelError, UniformValue, dominance_ratio,
                    mean_se, moment_function, moment_function_deriv, verdict)
from .engine import DEFAULT_BUDGET, generation_frontier

_MASS_TOL = 1e-10
_MAX_CONVOLUTION = 4


class TiltError(ModelError):
    """The tilted measure is unavailable or ill-normalized."""


@dataclass(frozen=True)
class TiltedMeasure:
    """One-step tilted log-weight measure at the root exponent.

    ``total_mass`` is the closed-form normalization E[N] E[C^alpha]
    and must sit within 1e-10 of 1; ``mean`` is the closed-form mean,
    which equals the derivative of the moment function at alpha.
    """

    alpha: float
    total_mass: float
    mean: float
    family: str
    loc: float
    scale: float

    def sample(self, rng, size):
        """Draw iid log-weight increments."""
        if self.family == "lognormal":
            return rng.normal(self.loc, self.scale, size)
        # uniform(0, b): density proportional to c^alpha below b
        u = rng.random(size)
        return self.loc + np.log(u) / (self.alpha + 1.0)


def make_tilted(model, alpha):
    """Construct the tilted measure for a model at its root exponent.

    Closed-form tilts exist for the lognormal and uniform weight
    families: a lognormal log-weight is shifted by alpha times its
    variance, and a uniform weight tilts to the density proportional
    to c^alpha on its support.  Other families raise.

    Raises
    ------
    TiltError
        Unsupported family, or total mass off 1 by more than 1e-10
        (alpha is not the root).
    """
    if alpha <= 0:
        raise TiltError("alpha must be positive")
    total = moment_function(model, alpha).value
    if abs(total - 1.0) > _MASS_TOL:
        raise TiltError(
            f"moment function at alpha is {total!r}; the tilted measure "
            "is a probability measure only at the root"
        )
    mean = moment_function_deriv(model, alpha).value
    log_scale = math.log(model.c_scale)
    c_law = model.c_law
    if isinstance(c_law, LognormalValue):
        loc = c_law.mu + log_scale + alpha * c_law.sigma2
        return TiltedMeasure(alpha, total, mean, "lognormal", loc,
                             math.sqrt(c_law.sigma2))
    if isinstance(c_law, UniformValue):
        top = math.log(c_law.b) + log_scale
        return TiltedMeasure(alpha, total, mean, "uniform", top, 0.0)
    raise TiltError(
        f"no closed-form tilt for weight family {c_law.family!r}"
    )


def _g_constant(u):
    return np.ones_like(u)


def _g_identity(u):
    return u


def _g_exp_bounded(u):
    return np.exp(-np.abs(u))


TEST_FUNCTIONS = ("constant-1", "identity-u", "indicator", "exp-bounded")


def _resolve_g(name, threshold):
    if name == "constant-1":
        return _g_constant, "constant-1"
    if name == "identity-u":
        return _g_identity, "identity-u"
    if name == "exp-bounded":
        return _g_exp_bounded, "exp-bounded"
    if name == "indicator":
        def g(u):
            return (u <= threshold).astype(float)
        return g, f"indicator(u<={threshold:g})"
    raise TiltError(f"unknown test function {name!r}; pick from {TEST_FUNCTIONS}")


@dataclass(frozen=True)
class DualEstimateReport:
    """Tree-side versus convolution-side estimate of one functional.

    ``agree`` is ``model.verdict(|lhs - rhs|, 0, hypot(lhs_se, rhs_se))``.
    ``heavy_flag`` warns that the tree-side sum was dominated by a few
    replications (alpha-th powers are heavy); the report stands but its
    SE deserves suspicion.
    """

    n: int
    g_name: str
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    agree: bool
    heavy_flag: bool
    rhs_method: str

    def to_dict(self):
        return {
            "n": self.n,
            "g": self.g_name,
            "tree_side": self.lhs,
            "tree_side_se": self.lhs_se,
            "convolution_side": self.rhs,
            "convolution_side_se": self.rhs_se,
            "agree": self.agree,
            "heavy_flag": self.heavy_flag,
            "convolution_method": self.rhs_method,
        }


def verify_product_measure(model, alpha, n, g, reps, rng, threshold=0.0,
                           budget=DEFAULT_BUDGET):
    """Check the n-fold factorization of the weighted generation measure.

    Tree side: Monte Carlo mean over ``reps`` independent trees of
    sum_i Pi_i^alpha g(log Pi_i) over each tree's generation-n path
    products Pi_i; the trees are grown as one forest drawn from the
    shared ``rng`` (``engine.generation_frontier``), whose generation n
    is the tree side's input.  A tree over ``budget`` raises TiltError,
    so every tree counts.  Convolution side:
    E[g(U_1 + ... + U_n)] with iid tilted increments, in closed form
    for the constant function (the n-th power of the total mass) and by
    Monte Carlo otherwise.

    Parameters
    ----------
    model : VectorModel
    alpha : float
        Root exponent (the tilt must normalize).
    n : int
        Generation, 1 to 4 (tree cost grows geometrically).
    g : str
        One of TEST_FUNCTIONS; ``threshold`` configures the indicator.
    reps : int
        Replications per side.
    rng : numpy Generator

    Returns
    -------
    DualEstimateReport
    """
    if n not in range(1, _MAX_CONVOLUTION + 1):
        raise TiltError(f"n must be in 1..{_MAX_CONVOLUTION}")
    if reps < 2:
        raise TiltError("reps must be >= 2")
    g_fn, g_name = _resolve_g(g, threshold)
    tilted = make_tilted(model, alpha)

    for pi, owner, alive in generation_frontier(model, n, reps, budget, rng):
        if not alive.all():
            raise TiltError("node budget hit while folding the tree side")
    powered = pi ** alpha
    masses = np.bincount(owner, powered, minlength=reps)
    contributions = np.bincount(owner, powered * g_fn(np.log(pi)),
                                minlength=reps)
    lhs, lhs_se = mean_se(contributions)
    heavy = dominance_ratio(masses) > 0.05

    if g == "constant-1":
        rhs = tilted.total_mass ** n
        rhs_se = 0.0
        rhs_method = "closed-form"
    else:
        walks = tilted.sample(rng, (reps, n)).sum(axis=1)
        rhs, rhs_se = mean_se(g_fn(walks))
        rhs_method = "monte-carlo"

    agree = verdict(abs(lhs - rhs), 0.0, math.hypot(lhs_se, rhs_se))
    return DualEstimateReport(n, g_name, lhs, lhs_se, rhs, rhs_se,
                              agree, bool(heavy), rhs_method)
