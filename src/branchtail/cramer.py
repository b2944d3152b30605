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

from .model import _moment_function, _moment_function_deriv, moment_function
from .engine import recursion
from .moments import contractive

# alpha is sought on [_FLOOR, _CEILING]; every count and weight family here
# has E[C^theta] finite for all theta > 0, so the ends bound only the search
_FLOOR = 2.0 ** -6
_CEILING = 2.0 ** 10
# the largest residual |moment_function(alpha) - 1| of a returned root
_TOL = 1e-12
# the canonical last step scans the doubles with residual at most _ZONE,
# up to _ZONE_STEPS of them each way from where the bisection stopped; the
# zone has holes, so only more than _ZONE_GAP doubles outside it end a scan
_ZONE = 64 * np.finfo(float).eps
_ZONE_STEPS = 2 ** 14
_ZONE_GAP = 256
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


@dataclass
class ConditionEntry:
    name: str
    status: str  # "pass" | "fail"
    evidence: str
    value: float | None = None


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


def solve_alpha(model):
    """Locate alpha with moment_function(model, alpha) = 1, derivative > 0.

    alpha is a function of the model alone.  The moment function
    E[N] E[C^theta] is log-convex (Hoelder), so it crosses 1 at most twice
    and rises through 1 only past its least point.  The solver bisects that
    rise between the least point and _CEILING down to adjacent doubles,
    then returns the canonical double of ``_least_residual``.

    Raises
    ------
    NoSignChangeError
        The moment function does not cross 1 on [_FLOOR, _CEILING].
    ContractionRootError
        It crosses 1 only while falling; the error carries that root.
    SolverError
        The best double's residual exceeds _TOL.
    """

    def f(theta):
        return _moment_function(model, theta) - 1.0

    def df(theta):
        return _moment_function_deriv(model, theta)

    least = _least_point(df)
    f_least, f_ceiling, f_floor = f(least), f(_CEILING), f(_FLOOR)
    if f_least < 0 <= f_ceiling:
        root = _bisect(f, least, _CEILING, f_least, f_ceiling)
    elif f_least < 0 <= f_floor:
        root = _bisect(f, _FLOOR, least, f_floor, f_least)
    else:  # a least value of exactly 1 touches 1 without crossing it
        raise NoSignChangeError(
            f"moment function does not cross 1 on [{_FLOOR:g}, "
            f"{_CEILING:g}]: its least value there is {f_least + 1.0:.6g}, "
            f"at theta = {least:.6g}")
    residual, root = _least_residual(f, root)
    if residual > _TOL:
        raise SolverError(
            f"no double within {_TOL:g} of the root: residual {residual:.3g} "
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
    )


def _least_point(df):
    """The least point on [_FLOOR, _CEILING], where the derivative df
    changes sign: bisected between the floor and the first of 1, 2, 4, ...
    where df is not negative."""
    lo, hi = _FLOOR, 1.0
    while df(hi) < 0 and hi < _CEILING:
        lo, hi = hi, 2.0 * hi
    dlo, dhi = df(lo), df(hi)
    if dlo < 0 <= dhi:
        return _bisect(df, lo, hi, dlo, dhi)
    return lo if dhi >= 0 else hi


def _bisect(f, lo, hi, flo, fhi):
    """Halve a sign change of f until its ends are adjacent doubles; return
    the end with the smaller |f|."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo if abs(flo) <= abs(fhi) else hi
        fm = f(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm


def _least_residual(f, theta):
    """(|f|, double): the least |f|, the lower double on ties, over the run
    of doubles around theta where |f| <= _ZONE, holes of up to _ZONE_GAP
    doubles included.

    Where f rises slowly through 0 the computed f is not monotone at the
    scale of one ulp, and its sign changes spread over many doubles;
    scanning the whole run makes the answer independent of the one the
    bisection stopped at.
    """
    best = (abs(f(theta)), theta)
    for direction in (-math.inf, math.inf):
        step, outside = theta, 0
        for _ in range(_ZONE_STEPS):
            step = math.nextafter(step, direction)
            here = (abs(f(step)), step)
            outside = 0 if here[0] <= _ZONE else outside + 1
            if outside > _ZONE_GAP:
                break
            best = min(best, here)
    return best


# ---------------------------------------------------------------------------
# theorem-condition checks


def check_conditions(model, sol, kind):
    """Evaluate every hypothesis of the tail theorem for this recursion kind.

    Failures become report entries, never exceptions.  Every entry is a
    closed form.  The moment hypotheses, E[(sum C)^alpha] < inf for
    alpha > 1 and E[(sum C^(alpha/(1+eps)))^(1+eps)] < inf for some eps
    in (0, 1) for alpha <= 1, are one entry, ``weight-moment-finite``:
    N is independent of the iid C, so either moment lies between
    E[N] E[C^alpha] and E[N^p] E[C^alpha], p = alpha or 1 + eps, and
    every count family has finite moments of every order.  So both hold
    exactly when E[C^alpha] is finite, and no eps needs choosing.
    """
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

    # a root solved to machine precision can land a few ulp above 1; such
    # a root is the alpha = 1 case, where the mean need not contract
    if alpha > 1.0 + _CRITICAL_TOL and toll is np.add:
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
    ca = model.c_moment(alpha)
    entries.append(
        ConditionEntry(
            "weight-moment-finite",
            "pass" if math.isfinite(ca) else "fail",
            f"E[C^alpha] = {ca:.6g}; the theorem's weight-sum moment lies "
            f"between E[N] and E[N^p] times it, p = alpha or 1 + eps, "
            f"so no eps needs choosing",
            ca,
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
