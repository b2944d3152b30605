"""Root solving for the branching moment function and theorem-condition checks.

The tail exponent alpha is the positive solution of
``moment_function(model, alpha) = 1`` whose derivative there is positive.
Roots with a nonpositive derivative belong to the contractive regime and
carry no power tail; the solver still locates them precisely but refuses
to return them as solutions (ContractionRootError carries the root so
callers can inspect it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ModelError,
    _power_sum_moment,
    moment_function,
    moment_function_deriv,
    sum_moment,
)
from .engine import recursion
from .moments import contractive

__all__ = [
    "SolverError",
    "NoSignChangeError",
    "ContractionRootError",
    "CramerSolution",
    "ConditionEntry",
    "ConditionReport",
    "solve_alpha",
    "check_conditions",
    "DEFAULT_BRACKET",
]

DEFAULT_BRACKET = (0.1, 8.0)
_CRITICAL_TOL = 1e-9  # |moment_function(1) - 1| below this flags the critical pair


class SolverError(RuntimeError):
    """Operational failure of the root search."""


class NoSignChangeError(SolverError):
    pass


class ContractionRootError(SolverError):
    """The located root has nonpositive derivative: no power tail.

    Attributes ``alpha`` and ``residual`` expose the root anyway.
    """

    def __init__(self, alpha, mu, residual):
        super().__init__(
            f"contraction root at alpha = {alpha:.12g}: derivative of the "
            f"moment function is {mu:.6g} <= 0 there, so no power tail exists"
        )
        self.alpha = alpha
        self.mu = mu
        self.residual = residual


@dataclass
class CramerSolution:
    """Root of the moment function with its diagnostics."""

    alpha: float
    mu: float          # derivative of the moment function at alpha
    residual: float    # |moment_function(alpha) - 1|
    root_kind: str     # "unique-root" | "second-root-of-critical-pair"
    bracket: tuple


@dataclass
class ConditionEntry:
    name: str
    status: str  # "pass" | "fail" | "unknown"
    evidence: str
    value: float | None = None
    std_error: float = 0.0


@dataclass
class ConditionReport:
    entries: list = field(default_factory=list)

    @property
    def overall_pass(self):
        return all(e.status == "pass" for e in self.entries)

    def entry(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def solve_alpha(model, bracket=DEFAULT_BRACKET, tol=1e-12):
    """Locate alpha with moment_function(model, alpha) = 1, derivative > 0.

    Bisection on the sign of the moment function minus 1, halving the
    bracket until no double lies strictly between its ends; alpha is the
    end with the smaller residual, so it is resolved to the last bit.
    ``tol`` is the largest residual |moment_function(alpha) - 1| accepted.
    The moment function E[N] E[C^theta] is log-convex (Hoelder), so it
    crosses 1 at most twice, rising only past its minimum.  The bracket
    must contain alpha but need not straddle it: when the moment function
    is at least 1 at ``lo`` and above 1 at ``hi``, its minimum (the sign
    change of its derivative, found by the same bisection) replaces
    ``lo``.  ``bracket`` in the result holds the ends the final bisection
    started from.

    Raises
    ------
    NoSignChangeError
        The moment function does not cross 1 on the bracket.
    ContractionRootError
        The root exists but the derivative there is nonpositive.
    SolverError
        Invalid bracket or tol, or the best double's residual exceeds tol.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0 < lo < hi):
        raise SolverError(f"invalid bracket {bracket!r}")
    if tol <= 0:
        raise SolverError("tol must be positive")

    def f(theta):
        return moment_function(model, theta).value - 1.0

    def df(theta):
        return moment_function_deriv(model, theta).value

    flo, fhi = f(lo), f(hi)
    if flo >= 0 and fhi > 0 and df(lo) < 0 < df(hi):
        # the log-convex moment function can only rise through 1 past its
        # least point, the sign change of its derivative
        lo = _bisect(df, lo, hi, df(lo), df(hi))[0]
        flo = f(lo)
    if flo == 0.0:
        root, residual = lo, 0.0
    elif fhi == 0.0:
        root, residual = hi, 0.0
    else:
        if flo * fhi > 0:
            raise NoSignChangeError(
                f"moment function minus 1 has no sign change on "
                f"[{lo:g}, {hi:g}] (values {flo:.3g}, {fhi:.3g})"
            )
        root, residual = _bisect(f, lo, hi, flo, fhi)
        if residual > tol:
            raise SolverError(
                f"no double within tol of the root: residual {residual:.3g} "
                f"at alpha = {root!r}")
    mu = df(root)
    if mu <= 0:
        raise ContractionRootError(root, mu, residual)
    second = abs(f(1.0)) <= _CRITICAL_TOL and root > 1.0 + 1e-6
    return CramerSolution(
        alpha=root,
        mu=mu,
        residual=residual,
        root_kind="second-root-of-critical-pair" if second else "unique-root",
        bracket=(lo, hi),
    )


def _bisect(f, lo, hi, flo, fhi):
    """Halve a sign change of f until its ends are adjacent doubles.

    Takes the end with the smaller |f|, then steps to a neighbouring
    double while that has a strictly smaller |f|: near the root the
    computed f need not be monotone at the scale of one ulp, so the best
    double can lie just outside the last sign change.  Returns that
    double and its |f|.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        fm = f(mid)
        if fm == 0.0:
            return mid, 0.0
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    best, residual = (lo, abs(flo)) if abs(flo) <= abs(fhi) else (hi, abs(fhi))
    for direction in (-math.inf, math.inf):
        while residual > 0.0:
            step = float(np.nextafter(best, direction))
            r_step = abs(f(step))
            if not r_step < residual:
                break
            best, residual = step, r_step
    return best, residual


# ---------------------------------------------------------------------------
# theorem-condition checks


_CONDITION_SEED = 0x5EEDC04D  # MC-backed entries must be deterministic


def _mc_entry_rng():
    return np.random.default_rng(_CONDITION_SEED)


def check_conditions(model, sol, kind, epsilon=0.5):
    """Evaluate every hypothesis of the tail theorem for this recursion kind.

    Failures become report entries, never exceptions.  Monte Carlo backed
    entries (finiteness of composite moments) use an internal fixed-seed
    stream and mark themselves ``unknown`` when the sample maxima dominate
    the mean.
    """
    if not 0 < epsilon < 1:
        raise ModelError("epsilon must lie in (0, 1)")
    _, toll = recursion(kind)
    alpha = sol.alpha
    entries = []

    # toll positivity / moments of the law the kind draws: a kind without a
    # toll marks its last generation instead of charging tolls
    q_law = model.mark_law if toll is None else model.q_law
    p_pos = q_law.prob_positive()
    entries.append(
        ConditionEntry(
            "toll-positive",
            "pass" if p_pos > 0 else "fail",
            f"P(Q > 0) = {p_pos:g}",
            p_pos,
        )
    )
    qa = q_law.moment(alpha)
    entries.append(
        ConditionEntry(
            "toll-moment-finite",
            "pass" if math.isfinite(qa) else "fail",
            f"E[Q^alpha] = {qa:.6g}",
            qa,
        )
    )

    mu_ok = 0.0 < sol.mu < math.inf
    entries.append(
        ConditionEntry(
            "tilted-mean-positive",
            "pass" if mu_ok else "fail",
            f"derivative at the root = {sol.mu:.6g}",
            sol.mu,
        )
    )

    entries.append(
        ConditionEntry(
            "nonarithmetic",
            "pass" if model.nonarithmetic else "fail",
            f"weight family {model.c_law.family!r} is "
            + ("continuous" if model.nonarithmetic else "lattice-supported"),
        )
    )

    # a root solved to machine precision can land a few ulp above 1; such a
    # root is the alpha = 1 case and must take the epsilon branch
    if alpha > 1.0 + _CRITICAL_TOL:
        if toll is np.add:
            rho = moment_function(model, 1.0).value
            # strict guard: a rho within an ulp of 1 is the critical case,
            # where the additive fixed point has no finite mean
            entries.append(
                ConditionEntry(
                    "mean-contraction",
                    "pass" if contractive(rho) else "fail",
                    f"moment function at 1 = {rho:.6g}",
                    rho,
                )
            )
        sm = sum_moment(model, alpha, reps=200_000, rng=_mc_entry_rng())
        if not math.isfinite(sm.value):
            status = "fail"
        elif sm.suspect:
            status = "unknown"
        else:
            status = "pass"
        entries.append(
            ConditionEntry(
                "sum-moment-finite",
                status,
                f"E[(sum C)^alpha] ~ {sm.value:.6g} ({sm.method})",
                sm.value,
                sm.std_error,
            )
        )
    else:
        em = _power_sum_moment(model, alpha, 1 + epsilon, 200_000,
                               _mc_entry_rng())
        entries.append(
            ConditionEntry(
                "moment-condition-eps",
                "pass" if math.isfinite(em.value) else "fail",
                f"E[(sum C^(a/(1+eps)))^(1+eps)] ~ {em.value:.6g} "
                f"(eps = {epsilon:g}, {em.method})",
                em.value,
                em.std_error,
            )
        )

    if toll is None:
        rho = moment_function(model, 1.0).value
        crit = abs(rho - 1.0) <= _CRITICAL_TOL
        entries.append(
            ConditionEntry(
                "critical-mean",
                "pass" if crit else "fail",
                f"moment function at 1 = {rho:.12g}",
                rho,
            )
        )
        spread = _prob_two_positive_children(model)
        entries.append(
            ConditionEntry(
                "branching-spread",
                "pass" if spread > 0 else "fail",
                f"P(at least two positive child weights) = {spread:g}",
                spread,
            )
        )

    return ConditionReport(entries)


def _prob_two_positive_children(model):
    # our weight families put mass at 0 only in the degenerate deterministic
    # case, so the count law carries the whole answer
    if model.c_law.prob_positive() == 0.0:
        return 0.0
    return model.n_law.prob_at_least_two()
