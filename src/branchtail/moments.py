"""Exact moment identities and constructive moment bounds.

The beta-moments of the generation sums W_n of a weighted branching
process admit explicit geometric bounds.  For beta <= 1 the bound is
subadditive and needs no contraction assumption; for beta > 1 it relies
on a constructive constant K_beta built by one induction over the moment
orders.  This module computes the exact mean of the fixed point and
transcribes the constant literally (no sharpening).

All bounds are one-sided; ``verify`` judges them by ``model.verdict``.
A divergent bound is ``inf``.
"""

import math

import numpy as np

from .model import ModelError, MomentValue, moment_function, sum_moment

# Contraction factors within float noise of 1 make the geometric series
# closures meaningless (the bound blows past 1e20); treat them as divergent.
ETA_TOL = 1e-12


def contractive(eta):
    """Whether a contraction factor is usably below 1."""
    return eta < 1.0 - ETA_TOL


class BoundError(ModelError):
    """A bound was requested outside its regime of validity."""


def fixed_point_mean_exact(model):
    """E[R] = E[Q] / (1 - rho) for the additive fixed point.

    Returns ``inf`` when rho >= 1: the mean series diverges there,
    consistent with a tail index at or below one.
    """
    rho = moment_function(model, 1.0).value
    if not contractive(rho):
        # a rho within one ulp of 1 would turn into a 2^53-sized "mean"
        return math.inf
    return model.q_mean() / (1.0 - rho)


def constructive_constant(model, beta, rng=None):
    """The proof constant K_beta with E[W_n^beta] <= K_beta (rho v rho_beta)^n.

    Transcribed literally from the inductive proof as one induction from
    K_1 = E[Q] over the orders x = 2, ..., ceil(beta) - 1 and then beta.
    Order x builds on below = ceil(x) - 1 with eta = rho_x v rho:
    K_x = E[Q^x] + E[(sum C)^x] K_below^(x/below) / eta
    / (1 - eta^((x - below)/below)), finite only while eta < 1.  At
    eta = 0 the weights sum to 0 almost surely, the second term vanishes
    and K_x = E[Q^x].  The constant is not optimized; it makes
    truncation certificates explicit.

    Parameters
    ----------
    model : VectorModel
    beta : float
        Moment order, >= 1.
    rng : numpy Generator, optional
        Needed only when E[(sum C)^x] has no closed form.

    Returns
    -------
    MomentValue
        Infinite outside the contractive regime.
    """
    if beta < 1.0:
        raise BoundError("constructive constant is defined for beta >= 1")
    orders = [float(x) for x in range(2, math.ceil(beta))]
    if beta > 1.0:
        orders.append(float(beta))
    rho = moment_function(model, 1.0).value
    k = model.q_mean()
    method = "closed-form"
    suspect = False
    for x in orders:
        below = math.ceil(x) - 1
        eta = max(moment_function(model, x).value, rho)
        if not contractive(eta):
            return MomentValue(math.inf, method)
        if eta == 0.0:
            k = model.q_moment(x)
            continue
        csum = sum_moment(model, x, rng=rng)
        if csum.method == "monte-carlo":
            method = "monte-carlo"
            suspect = suspect or csum.suspect
        big_k = csum.value * k ** (x / below)
        series = 1.0 / (1.0 - eta ** ((x - below) / below))
        k = model.q_moment(x) + big_k / eta * series
    return MomentValue(k, method, suspect=suspect)


def generation_moment_bound(model, beta, n, rng=None):
    """Analytic upper bound on E[W_n^beta].

    beta <= 1: E[Q^beta] rho_beta^n by subadditivity, valid with no
    contraction assumption.  beta > 1: K_beta (rho v rho_beta)^n, which
    is ``inf`` outside the contractive regime.  A NaN bound, such as an
    infinite E[Q^beta] times rho_beta^n = 0, raises BoundError.

    Returns
    -------
    MomentValue
        ``method`` names the bound that produced the value.
    """
    if n < 0:
        raise BoundError("generation index must be >= 0")
    if beta <= 0:
        raise BoundError("moment order must be positive")
    rho_beta = moment_function(model, beta).value
    if beta <= 1.0:
        bound = MomentValue(model.q_moment(beta) * rho_beta ** n,
                            "generation-subadditive")
    else:
        k_beta = constructive_constant(model, beta, rng=rng)
        if math.isinf(k_beta.value):
            return MomentValue(math.inf, "generation-constructive")
        eta = max(moment_function(model, 1.0).value, rho_beta)
        bound = MomentValue(k_beta.value * eta ** n, "generation-constructive",
                            k_beta.std_error, suspect=k_beta.suspect)
    if not bound.value >= 0.0:
        raise BoundError("moment bounds are nonnegative")
    return bound


def _sum_interpolation_bound(model, beta, y_values, rng=None):
    """Bound on E[(sum C_i Y_i)^beta - sum (C_i Y_i)^beta], Y iid, Y >= 0.

    (E[Y^(p-1)])^(beta/(p-1)) * E[(sum C)^beta] with p = ceil(beta) and
    E[Y^(p-1)] the mean over ``y_values``; only for beta > 1.  ``rng`` is
    needed only when E[(sum C)^beta] has no closed form.
    """
    if beta <= 1.0:
        raise BoundError("the sum inequality applies for beta > 1")
    p = math.ceil(beta)
    y_moment = float(np.mean(np.asarray(y_values, dtype=float) ** (p - 1)))
    csum = sum_moment(model, beta, rng=rng)
    return y_moment ** (beta / (p - 1.0)) * csum.value

