"""Tail-constant computation by every available route.

The survival function of the fixed point obeys P(R > t) ~ H t^(-alpha),
and H is computable several ways: closed forms at integer root
exponents (1 and 2 for the additive kind, 2 for the martingale kind), a
general Monte Carlo expression valid for any root exponent, and
one-sided bounds that need only component moments.  Each route is
independent of the others, so their agreement is a meaningful check of
the whole pipeline; the report type collects all of them side by side.

Component expectations are expanded under the iid-independent coupling:
the toll is independent of the offspring vector, and pair terms reduce
to E[N(N-1)/2] times the squared weight mean.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import recursion
from .model import (ModelError, MomentValue, dominated, fold_by_owner,
                    mean_se, moment_function, moment_function_deriv)
from .moments import _sum_interpolation_bound, fixed_point_mean_exact

_MC_SEED = 0x7C057A17
_MIN_BATCH = 100_000
_MIN_REPS = 10_000
_INTEGER_TOL = 1e-9


class ConstantError(ModelError):
    """No tail-constant route is available for the request."""


def _alpha_integer(alpha):
    rounded = round(alpha)
    if abs(alpha - rounded) <= _INTEGER_TOL:
        return int(rounded)
    return None


def _pair_moment(model):
    """E[sum over unordered child pairs of C_i C_j]."""
    return model.n_law.pair_mean() * model.c_moment(1.0) ** 2


def tail_constant_closed_form(model, alpha, kind):
    """Closed-form H at integer root exponents.

    Additive kind at alpha 1: E[Q] / mu.  Additive kind at alpha 2:
    (E[Q^2] + 2 E[R] E[Q] E[sum C] + 2 E[R]^2 E[pair sum]) / (2 mu),
    with E[R] from the exact mean formula (never a batch).  Martingale
    kind at alpha 2: the same with the toll terms at 0 and E[R] the mean
    mark, since its batch tends to E[mark] times the martingale limit,
    whose mean is 1.  Here mu is the derivative of the moment function
    at alpha.

    Raises
    ------
    ConstantError
        Unsupported (kind, alpha) pair, or a divergent mean where the
        formula needs E[R].
    """
    children, toll = recursion(kind)
    if children is not np.add:
        raise ConstantError(f"no closed form for kind {kind!r}")
    a = _alpha_integer(alpha)
    if toll is None and a != 2:
        raise ConstantError(
            "martingale closed form is available at alpha = 2 only")
    if a == 1:
        mu = moment_function_deriv(model, 1.0).value
        return model.q_mean() / mu
    if a != 2:
        raise ConstantError("closed forms exist at alpha in {1, 2} only")
    if toll is None:
        toll_second = cross = 0.0
        mean_r = model.mark_law.mean()
    else:
        mean_r = fixed_point_mean_exact(model)
        if not math.isfinite(mean_r):
            raise ConstantError(
                "additive alpha=2 closed form needs a finite mean, "
                "so the mean weight sum must contract")
        toll_second = model.q_moment(2.0)
        # E[Q] E[sum C], toll independent
        cross = model.q_mean() * moment_function(model, 1.0).value
    mu = moment_function_deriv(model, 2.0).value
    second = (toll_second
              + 2.0 * mean_r * cross
              + 2.0 * mean_r ** 2 * _pair_moment(model))
    return second / (2.0 * mu)


def tail_constant_mc(model, sol, kind, r_batch, reps=_MIN_REPS, rng=None,
                     min_batch=_MIN_BATCH):
    """General Monte Carlo estimate of H, any root exponent.

    Draws fresh (Q, N, C) vectors and resamples R-values with
    replacement from ``r_batch``, forms the kind's integrand
    toll(children-fold of x_i, Q)^alpha - sum_i x_i^alpha, x_i = C_i R_i,
    and divides its mean by alpha times mu.  The resampling bias is
    second-order in the batch size, hence the default floor of 1e5
    batch values.  Max-plus takes the linear kind's conditions, and they
    suffice: M = max_i x_i <= R <= sum_i x_i + Q pathwise puts
    P(R > t) - sum_i P(x_i > t) between the max and linear kinds', and
    R <= R_linear tree by tree bounds R's moments below alpha.  With two
    children of positive weight and alpha > 1 the stated SE is not a
    calibrated error, for any kind (ROADMAP item 15).

    Parameters
    ----------
    model : VectorModel
    sol : CramerSolution
        Supplies alpha and mu.
    kind : a name in ``engine.KINDS``
    r_batch : SampleBatch or array_like
        Sample of the fixed-point law for the same model and kind.
    reps : int
        Fresh vectors to draw, >= 1e4.
    rng : numpy Generator, optional
        Fixed internal seed when omitted, for reproducible reports.
    min_batch : int
        Floor on the batch size.

    Returns
    -------
    MomentValue
        ``suspect`` set when alpha >= 2 and a few replications dominate
        the integrand sum (second-moment instability).
    """
    children, toll = recursion(kind)
    if reps < _MIN_REPS:
        raise ConstantError(f"reps must be >= {_MIN_REPS}")
    r_values = np.asarray(getattr(r_batch, "values", r_batch), dtype=float)
    if r_values.size < min_batch:
        raise ConstantError(
            f"fixed-point batch has {r_values.size} values; "
            f"need >= {min_batch} to keep resampling bias second-order")
    fp = getattr(r_batch, "model_fingerprint", None)
    if fp is not None and fp != model.fingerprint():
        raise ConstantError("fixed-point batch comes from a different model")
    if rng is None:
        rng = np.random.default_rng(_MC_SEED)
    alpha, mu = sol.alpha, sol.mu

    # no toll adds Q = 0: R = toll(children_i C_i R_i, Q) for every kind
    q = np.zeros(reps) if toll is None else model.draw_q(rng, reps)
    counts, weights = model.draw_offspring(rng, reps)
    terms = weights * r_values[rng.integers(0, r_values.size, weights.size)]
    owner = np.repeat(np.arange(reps), counts)
    power_sums = fold_by_owner(np.add, owner, terms ** alpha, reps)
    outer = (toll or np.add)(fold_by_owner(children, owner, terms, reps), q)
    integrand = (outer ** alpha - power_sums) / (alpha * mu)
    value, se = mean_se(integrand)
    suspect = alpha >= 2.0 and dominated(integrand)
    return MomentValue(value, "monte-carlo", se, suspect=suspect)


def tail_constant_bounds(model, sol, kind, r_batch=None, rng=None):
    """One-sided bounds on H from component moments.

    The bounds compare the H integrand, E[R^alpha - sum_i (C_i R_i)^alpha]
    over alpha mu, with E[Q^alpha] / (alpha mu) pointwise.  Linear kind:
    a lower bound when alpha >= 1 (t^alpha is superadditive) and an upper
    bound when alpha <= 1 (subadditive); at alpha = 1 the two collapse
    and pin H exactly.  Max kind: an upper bound for every alpha, since
    (Q v max_i x_i)^alpha <= Q^alpha + sum_i x_i^alpha.  Max-plus kind:
    an upper bound when alpha <= 1, since (Q + max_i x_i)^alpha <=
    Q^alpha + max_i x_i^alpha there; above 1 no bound.  For the
    martingale kind with non-integer alpha > 1, an upper bound uses the
    (p-1)-th fixed-point moment estimated from a batch, p = ceil(alpha);
    below 1 there is no such moment (p - 1 = 0) and no bound.

    Returns
    -------
    (lower, upper) : pair of float or None
        None marks a side with no applicable bound.
    """
    children, toll = recursion(kind)
    alpha, mu = sol.alpha, sol.mu
    lower = upper = None
    toll_bound = model.q_moment(alpha) / (alpha * mu)
    if children is np.add and toll is np.add and alpha >= 1.0 - _INTEGER_TOL:
        lower = toll_bound
    if toll is None:
        if (alpha > 1.0 and _alpha_integer(alpha) is None
                and r_batch is not None):
            r_values = getattr(r_batch, "values", r_batch)
            upper = (_sum_interpolation_bound(model, alpha, r_values, rng)
                     / (alpha * mu))
    elif toll is np.maximum or alpha <= 1.0 + _INTEGER_TOL:
        upper = toll_bound
    return lower, upper


@dataclass(frozen=True)
class TailConstantReport:
    """All computed routes to H for one (model, kind, alpha).

    Absent routes are None.  Route agreement is a test-level property,
    not enforced here: the report records what each route said.
    """

    kind: str
    alpha: float
    mu: float
    closed_form: Optional[float]
    mc_value: Optional[float]
    mc_std_error: Optional[float]
    mc_suspect: bool
    lower_bound: Optional[float]
    upper_bound: Optional[float]

    def to_dict(self):
        return {
            "kind": self.kind,
            "alpha": self.alpha,
            "mu": self.mu,
            "closed_form": self.closed_form,
            "mc_general": self.mc_value,
            "mc_std_error": self.mc_std_error,
            "mc_suspect": self.mc_suspect,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
        }


def tail_constant_report(model, sol, kind, r_batch=None, reps=_MIN_REPS,
                         rng=None, min_batch=_MIN_BATCH):
    """Assemble every applicable H route into one report."""
    closed = None
    try:
        closed = tail_constant_closed_form(model, sol.alpha, kind)
    except ConstantError:
        pass
    mc = None
    if r_batch is not None:
        try:
            mc = tail_constant_mc(model, sol, kind, r_batch, reps=reps,
                                  rng=rng, min_batch=min_batch)
        except ConstantError:
            # too few reps, or a batch too small or of another model
            mc = None
    lower, upper = tail_constant_bounds(model, sol, kind, r_batch=r_batch,
                                        rng=rng)
    return TailConstantReport(
        kind=kind,
        alpha=sol.alpha,
        mu=sol.mu,
        closed_form=closed,
        mc_value=None if mc is None else mc.value,
        mc_std_error=None if mc is None else mc.std_error,
        mc_suspect=False if mc is None else mc.suspect,
        lower_bound=lower,
        upper_bound=upper,
    )
