"""Exponentially tilted step measure and the product-measure identity.

At the root exponent alpha the weighted expectation
E[sum_i C_i^alpha g(log C_i)] defines a probability measure eta on the
log-weight line, and the generation-n weighted measure factorizes as the
n-fold convolution of eta.  This module builds eta in closed form for
the supported weight families and verifies the factorization by two
independent Monte Carlo routes: a tree side at each generation n of one
forest grown from the shared generator, and a convolution side from the
prefix sums of one block of iid tilted steps.

The verification is the numerical heart of the tail analysis: the
plateau constant and the tilted mean both stand on this identity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import (LognormalValue, ModelError, UniformValue, dominated,
                    fold_by_owner, mean_se, moment_function,
                    moment_function_deriv, verdict)
from .engine import DEFAULT_BUDGET, _WidthError, generation_frontier

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


# the test functions g of the factorization check, by name
_G_FNS = {"constant-1": np.ones_like, "identity-u": lambda u: u,
          "indicator": lambda u: (u <= 0.0).astype(float)}
TEST_FUNCTIONS = tuple(_G_FNS)


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


def factorization_checks(model, alpha, ns, gs, reps, rng,
                         budget=DEFAULT_BUDGET):
    """Check the n-fold factorization of the weighted generation measure.

    Tree side: Monte Carlo mean over ``reps`` independent trees of
    sum_i Pi_i^alpha g(log Pi_i) over each tree's generation-n path
    products Pi_i; the trees are one forest grown from the shared ``rng``
    to the largest n (``engine.generation_frontier``).  A tree over
    ``budget`` raises TiltError, so every tree counts.  Convolution side:
    E[g(U_1 + ... + U_n)] with iid tilted increments, in closed form for
    the constant function (the n-th power of the total mass) and by Monte
    Carlo otherwise, from the prefix sums of one block of steps drawn
    after the forest.  A forest that fails at some generation yields the
    reports of the n before it, then raises.

    Parameters
    ----------
    model : VectorModel
    alpha : float
        Root exponent (the tilt must normalize).
    ns : collection of int
        Generations, each 1 to 4 (tree cost grows geometrically).
    gs : collection of str
        Names in TEST_FUNCTIONS; ``indicator`` is 1{u <= 0}.
    reps : int
        Replications per side.
    rng : numpy Generator

    Yields
    ------
    DualEstimateReport
        One for each n in ``ns``, ascending, and each g in ``gs``.
    """
    if not set(ns) <= set(range(1, _MAX_CONVOLUTION + 1)):
        raise TiltError(f"n must be in 1..{_MAX_CONVOLUTION}")
    if reps < 2:
        raise TiltError("reps must be >= 2")
    if not set(gs) <= set(_G_FNS):
        raise TiltError(f"unknown test function in {list(gs)}; "
                        f"pick from {TEST_FUNCTIONS}")
    tilted = make_tilted(model, alpha)
    grown, failure = {}, None
    try:
        for k, (pi, owner, alive) in enumerate(generation_frontier(
                model, max(ns, default=0), reps, budget, rng)):
            if not alive.all():
                raise TiltError("node budget hit while folding the tree side")
            if k in ns:
                grown[k] = pi, owner
    except (TiltError, _WidthError) as err:
        failure = err
    if any(g != "constant-1" for g in gs):
        walks = tilted.sample(rng, (reps, max(grown, default=0))).cumsum(1)
    for n, (pi, owner) in grown.items():
        powered = pi ** alpha
        masses = fold_by_owner(np.add, owner, powered, reps)
        heavy = dominated(masses)
        for g in gs:
            lhs, lhs_se = mean_se(fold_by_owner(
                np.add, owner, powered * _G_FNS[g](np.log(pi)), reps))
            rhs, rhs_se, rhs_method = tilted.total_mass**n, 0.0, "closed-form"
            if g != "constant-1":
                rhs, rhs_se = mean_se(_G_FNS[g](walks[:, n - 1]))
                rhs_method = "monte-carlo"
            agree = verdict(abs(lhs - rhs), 0.0, math.hypot(lhs_se, rhs_se))
            g_name = "indicator(u<=0)" if g == "indicator" else g
            yield DualEstimateReport(n, g_name, lhs, lhs_se, rhs, rhs_se,
                                     agree, heavy, rhs_method)
    if failure is not None:
        raise failure
