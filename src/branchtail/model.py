"""Parametric families for the node vector of a weighted branching tree.

A model describes the joint law of one node's data: an offspring count N,
iid child weights C_1..C_N (independent of N), and a nonnegative toll Q.
Everything downstream (root solving, sampling, moment bounds, tail
constants) consumes models only through the interface defined here, so the
closed-form moment algebra lives in one place.

Supported count families: deterministic, two-point, geometric (on
{0,1,2,...}), Poisson.  Supported weight/toll families: deterministic,
lognormal, uniform(0,b), beta-scaled.  Deterministic laws consume no
randomness when sampled; this keeps replication streams aligned across
runs that only differ in depth.  Every law's ``sample(rng, size)`` also
takes ``size=None``, numpy's convention for one draw: it returns a scalar
read from the same stream words as ``size=1``, a numpy integer for a
count law.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np


class ModelError(ValueError):
    """Invalid family name, invalid parameter, or unusable model."""


def _pow(base, theta):
    """base ** theta, saturating at inf where the double overflows."""
    try:
        return base ** theta
    except OverflowError:
        return math.inf


def _exp(x):
    """math.exp, saturating at inf where the double overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# count laws (offspring distribution); binomial_moment(k) is E[C(N, k)],
# the u^k coefficient of the generating function G_N(1 + u)


def _comb(n, k):
    """C(n, k) as a float, saturating at inf where the double overflows."""
    try:
        return float(math.comb(n, k))
    except OverflowError:
        return math.inf


def _count_point(value, what):
    """``value`` as an int, if int64, the dtype of every count, holds it."""
    if _finite_number(value) and value == int(value) and 0 <= value < 2 ** 63:
        return int(value)
    raise ModelError(f"{what} must be a nonnegative integer below 2^63")


class DeterministicCount:
    family = "deterministic"

    def __init__(self, value):
        self.value = _count_point(value, "deterministic count")
        self._one = np.array([self.value], dtype=np.int64)

    def sample(self, rng, size):
        return self._one[0] if size is None else self._one.repeat(size)

    def mean(self):
        return float(self.value)

    def binomial_moment(self, k):
        return _comb(self.value, k)

    def prob_zero(self):
        return 1.0 if self.value == 0 else 0.0

    def prob_at_least_two(self):
        return 1.0 if self.value >= 2 else 0.0

    def max_value(self):
        return self.value

    def params(self):
        return {"family": self.family, "value": self.value}


class TwoPointCount:
    """Count supported on two integers, P(N=a) = p, P(N=b) = 1-p."""

    family = "two-point"

    def __init__(self, values):
        if not isinstance(values, dict) or len(values) != 2:
            raise ModelError("two-point count needs exactly two support points")
        if not all(_finite_number(p) for p in values.values()):
            raise ModelError("two-point probabilities must be finite numbers")
        # float() also reads the string keys that params() writes
        pts = sorted((float(k), float(p)) for k, p in values.items())
        (a, self.pa), (b, self.pb) = pts
        self.a, self.b = (_count_point(k, "two-point support point")
                          for k in (a, b))
        if not (0.0 <= self.pa <= 1.0 and 0.0 <= self.pb <= 1.0):
            raise ModelError("two-point probabilities must lie in [0, 1]")
        if abs(self.pa + self.pb - 1.0) > 1e-12:
            raise ModelError("two-point probabilities must sum to 1")
        self._support = np.array([self.a, self.b], dtype=np.int64)
        self._pair = tuple(self._support)  # a tuple indexes faster

    def sample(self, rng, size):
        # a where u < pa, b otherwise
        if size is None:
            return self._pair[rng.random() >= self.pa]
        return self._support.take(rng.random(size) >= self.pa)

    def mean(self):
        return self.a * self.pa + self.b * self.pb

    def binomial_moment(self, k):
        return self.pa * _comb(self.a, k) + self.pb * _comb(self.b, k)

    def prob_zero(self):
        return self.pa * (self.a == 0) + self.pb * (self.b == 0)

    def prob_at_least_two(self):
        return self.pa * (self.a >= 2) + self.pb * (self.b >= 2)

    def max_value(self):
        return self.b

    def params(self):
        return {"family": self.family, "values": {str(self.a): self.pa, str(self.b): self.pb}}


class GeometricCount:
    """P(N=k) = (1-p)^k p on {0, 1, 2, ...}."""

    family = "geometric"

    def __init__(self, p):
        if not 0.0 < p <= 1.0:
            raise ModelError("geometric success probability must be in (0, 1]")
        self.p = float(p)

    def sample(self, rng, size):
        if size is None:
            n = rng.geometric(self.p) - 1
            return _SMALL_COUNTS[n] if n < 32 else np.int64(n)
        return rng.geometric(self.p, size) - 1

    def mean(self):
        return (1.0 - self.p) / self.p

    def binomial_moment(self, k):
        return _pow(self.mean(), k)

    def prob_zero(self):
        return self.p

    def prob_at_least_two(self):
        return (1.0 - self.p) ** 2

    def max_value(self):
        return None

    def params(self):
        return {"family": self.family, "p": self.p}


# numpy's poisson refuses a larger mean: its draws would overflow int64
_POISSON_MAX_MEAN = float(np.iinfo(np.int64).max
                          - 10 * math.sqrt(np.iinfo(np.int64).max))
# a scalar draw returns these int64 scalars, which np.int64(n) would build
_SMALL_COUNTS = tuple(np.arange(32, dtype=np.int64))


class PoissonCount:
    family = "poisson"

    def __init__(self, mean):
        if mean <= 0:
            raise ModelError("poisson mean must be positive")
        if mean > _POISSON_MAX_MEAN:
            raise ModelError(f"poisson mean must be at most "
                             f"{_POISSON_MAX_MEAN!r}, numpy's sampling limit")
        self.lam = float(mean)

    def sample(self, rng, size):
        if size is None:
            n = rng.poisson(self.lam)
            return _SMALL_COUNTS[n] if n < 32 else np.int64(n)
        return rng.poisson(self.lam, size)

    def mean(self):
        return self.lam

    def binomial_moment(self, k):
        # lam^k / k! as a running product, finite where k! overflows
        return math.prod(self.lam / j for j in range(1, k + 1))

    def prob_zero(self):
        return math.exp(-self.lam)

    def prob_at_least_two(self):
        return 1.0 - math.exp(-self.lam) * (1.0 + self.lam)

    def max_value(self):
        return None

    def params(self):
        return {"family": self.family, "mean": self.lam}


# ---------------------------------------------------------------------------
# value laws (weights and tolls)


class DeterministicValue:
    family = "deterministic"
    arithmetic = True

    def __init__(self, value):
        if value < 0:
            raise ModelError("deterministic value must be nonnegative")
        self.value = float(value)
        self._one = np.array([self.value])

    def sample(self, rng, size):
        return self.value if size is None else self._one.repeat(size)

    def moment(self, theta):
        # 0^0 = 1 convention so theta = 0 returns total mass
        if self.value == 0.0:
            return 1.0 if theta == 0 else 0.0
        return _pow(self.value, theta)

    def log_weighted_moment(self, theta):
        # E[X^theta log X]
        if self.value == 0.0:
            return 0.0
        return _pow(self.value, theta) * math.log(self.value)

    def mean(self):
        return self.value

    def scaled(self, factor):
        return DeterministicValue(self.value * factor)

    def prob_positive(self):
        return 1.0 if self.value > 0 else 0.0

    def params(self):
        return {"family": self.family, "value": self.value}


class LognormalValue:
    """log X ~ Normal(mu, sigma2)."""

    family = "lognormal"
    arithmetic = False

    def __init__(self, mu, sigma2):
        if sigma2 <= 0:
            raise ModelError("lognormal variance must be positive")
        self.mu = float(mu)
        self.sigma2 = float(sigma2)
        self.sigma = math.sqrt(self.sigma2)

    def sample(self, rng, size):
        return rng.lognormal(self.mu, self.sigma, size)

    def moment(self, theta):
        return _exp(theta * self.mu + theta * theta * self.sigma2 / 2.0)

    def log_weighted_moment(self, theta):
        return (self.mu + theta * self.sigma2) * self.moment(theta)

    def mean(self):
        return self.moment(1.0)

    def scaled(self, factor):
        return LognormalValue(self.mu + math.log(factor), self.sigma2)

    def prob_positive(self):
        return 1.0

    def params(self):
        return {"family": self.family, "mu": self.mu, "sigma2": self.sigma2}


class UniformValue:
    """Uniform on (0, b)."""

    family = "uniform"
    arithmetic = False

    def __init__(self, b):
        if b <= 0:
            raise ModelError("uniform upper endpoint must be positive")
        self.b = float(b)

    def sample(self, rng, size):
        return rng.uniform(0.0, self.b, size)

    def moment(self, theta):
        return _pow(self.b, theta) / (theta + 1.0)

    def log_weighted_moment(self, theta):
        return _pow(self.b, theta) * (math.log(self.b) - 1.0 / (theta + 1.0)) / (theta + 1.0)

    def mean(self):
        return self.b / 2.0

    def scaled(self, factor):
        return UniformValue(self.b * factor)

    def prob_positive(self):
        return 1.0

    def params(self):
        return {"family": self.family, "b": self.b}


class BetaScaledValue:
    """X = scale * Beta(a, b), support (0, scale)."""

    family = "beta-scaled"
    arithmetic = False

    def __init__(self, a, b, scale=1.0):
        if a <= 0 or b <= 0 or scale <= 0:
            raise ModelError("beta-scaled parameters must be positive")
        self.a = float(a)
        self.b = float(b)
        self.scale = float(scale)

    def sample(self, rng, size):
        return self.scale * rng.beta(self.a, self.b, size)

    def moment(self, theta):
        from scipy.special import betaln  # scipy loads only for this family

        return _pow(self.scale, theta) * _exp(
            betaln(self.a + theta, self.b) - betaln(self.a, self.b)
        )

    def log_weighted_moment(self, theta):
        # d/dtheta of moment: m(theta) * (log scale + psi(a+theta) - psi(a+b+theta))
        from scipy.special import digamma

        # a float, as every law returns: inf - inf in numpy would warn
        return self.moment(theta) * float(
            math.log(self.scale)
            + digamma(self.a + theta)
            - digamma(self.a + self.b + theta)
        )

    def mean(self):
        return self.scale * self.a / (self.a + self.b)

    def scaled(self, factor):
        return BetaScaledValue(self.a, self.b, self.scale * factor)

    def prob_positive(self):
        return 1.0

    def params(self):
        return {"family": self.family, "a": self.a, "b": self.b, "scale": self.scale}


# a family's constructor arguments are the parameters its section takes
_COUNT_FAMILIES = {law.family: law for law in (
    DeterministicCount, TwoPointCount, GeometricCount, PoissonCount)}

_VALUE_FAMILIES = {law.family: law for law in (
    DeterministicValue, LognormalValue, UniformValue, BetaScaledValue)}

def _finite_number(value):
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _build_law(section, families, what):
    if not isinstance(section, dict) or "family" not in section:
        raise ModelError(f"{what} law needs a 'family' entry")
    name = section["family"]
    if not isinstance(name, str) or name not in families:
        raise ModelError(f"unknown {what} family: {name!r}")
    spec = {key: value for key, value in section.items() if key != "family"}
    params = inspect.signature(families[name]).parameters
    for key in spec:
        if key not in params:
            raise ModelError(f"{what} family {name!r} takes no parameter {key!r}")
    for key, param in params.items():
        if key not in spec:
            if param.default is param.empty:
                raise ModelError(f"{what} family {name!r} missing parameter {key!r}")
        elif key != "values" and not _finite_number(spec[key]):
            raise ModelError(f"{what} family {name!r} parameter {key!r} must be "
                             f"a finite number, got {spec[key]!r}")
    try:
        return families[name](**spec)
    except ModelError:
        raise
    except (TypeError, ValueError) as exc:
        # a two-point support point that is not a number
        raise ModelError(f"{what} family {name!r}: {exc}") from None


# ---------------------------------------------------------------------------


@dataclass
class MomentValue:
    """A moment functional value with its estimation provenance.

    ``std_error`` is exactly 0 for closed-form values.  A divergent
    quantity has an infinite ``value``; ``suspect`` marks Monte Carlo
    estimates whose sample maxima dominate the mean, a symptom of an
    infinite-variance (or infinite-mean) integrand.
    """

    value: float
    method: str  # "closed-form" | "monte-carlo" | "interpolation-bound"
    std_error: float = 0.0
    suspect: bool = False

    def __post_init__(self):
        if self.std_error < 0:
            raise ModelError("std_error must be nonnegative")
        if self.method == "closed-form" and self.std_error != 0.0:
            raise ModelError("closed-form values carry zero std_error")


_NO_WEIGHTS = np.empty(0)
_NO_WEIGHTS.flags.writeable = False


@dataclass
class VectorModel:
    """Validated law of one node vector (Q, N, C_1..C_N).

    Child weights are iid, independent of N, and multiplied by ``c_scale``.
    """

    n_law: object
    c_law: object
    q_law: object
    c_scale: float = 1.0
    _fingerprint: str = field(default="", repr=False, compare=False)
    # law of the martingale kind's final-generation marks: q_law, or unit
    # marks when the toll is fixed at 0
    mark_law: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.c_scale <= 0:
            raise ModelError("c_scale must be positive")
        zero_toll = (isinstance(self.q_law, DeterministicValue)
                     and self.q_law.value == 0.0)
        self.mark_law = DeterministicValue(1.0) if zero_toll else self.q_law

    # -- sampling ----------------------------------------------------------

    def draw_q(self, rng, size):
        return self.q_law.sample(rng, size)

    def draw_mark(self, rng, size):
        """Final-generation marks, drawn from ``mark_law``."""
        return self.mark_law.sample(rng, size)

    def draw_offspring(self, rng, size, limit=None):
        """Draw counts for ``size`` nodes, then all child weights flat.

        Draw order (counts first, then weights) is part of the replication
        stream contract; changing it breaks cross-depth coupling.  When
        more than ``limit`` children are born, returns ``(counts, None)``
        without drawing their weights.  Without children no weight is
        drawn either, as a draw of none uses no randomness.  A total of
        2^53 children or more within the limit raises ModelError.

        ``size=None`` draws for one node from the same stream words as
        ``size=1``: the count is a numpy integer scalar, and the weight a
        float for one child, an array for two or more.  Every childless
        draw returns the same read-only empty array.
        """
        counts = self.n_law.sample(rng, size)
        # one node skips the call, about 4% of a model_b exact replication
        total = int(counts) if size is None else self.child_total(counts, size)
        if limit is not None and total > limit:
            return counts, None
        if total == 0:
            return counts, _NO_WEIGHTS
        if total >= 2.0 ** 53:
            raise ModelError(f"{total:.4g} children are too many to draw")
        weights = self.c_law.sample(rng, None if size is None and total == 1
                                    else int(total))
        if self.c_scale != 1.0:
            weights = weights * self.c_scale
        return counts, weights

    def child_total(self, counts, size):
        """Sum of ``counts`` for ``size`` nodes, never wrapped around: an int
        where it is bounded below 2^63, else a float, exact below 2^53."""
        if size is None:
            return int(counts)
        if size * (self.n_law.max_value() or 2 ** 63) < 2 ** 63:
            return int(counts.sum())
        return counts.sum(dtype=float)

    # -- closed-form moment helpers ---------------------------------------

    def c_moment(self, theta):
        """E[(c_scale * C)^theta].

        Where ``c_scale^theta`` underflows and E[C^theta] overflows, the
        product 0 * inf is NaN: then the law of ``c_scale * C`` itself
        gives the moment.
        """
        value = _pow(self.c_scale, theta) * self.c_law.moment(theta)
        if math.isnan(value):
            return self.c_law.scaled(self.c_scale).moment(theta)
        return value

    def c_log_weighted_moment(self, theta):
        """E[(c_scale * C)^theta * log(c_scale * C)], NaN mended as in
        ``c_moment``."""
        s = self.c_scale
        value = _pow(s, theta) * (
            math.log(s) * self.c_law.moment(theta) + self.c_law.log_weighted_moment(theta)
        )
        if math.isnan(value):
            return self.c_law.scaled(s).log_weighted_moment(theta)
        return value

    def q_moment(self, beta):
        return self.q_law.moment(beta)

    def q_mean(self):
        return self.q_law.mean()

    @property
    def nonarithmetic(self):
        return not self.c_law.arithmetic

    # -- provenance --------------------------------------------------------

    def describe(self):
        """Config-shaped description; round-trips through make_model."""
        out = {
            "n": self.n_law.params(),
            "c": self.c_law.params(),
            "q": self.q_law.params(),
        }
        if self.c_scale != 1.0:
            out["c_scale"] = self.c_scale
        return out

    def fingerprint(self):
        if not self._fingerprint:
            blob = json.dumps(self.describe(), sort_keys=True)
            self._fingerprint = hashlib.sha256(blob.encode()).hexdigest()[:16]
        return self._fingerprint


def fold_by_owner(ufunc, owner, values, size, out=None):
    """Fold ``values[j]`` into slot ``owner[j]`` by ``ufunc``, in index order.

    Folds into ``out`` in place when given, else into ``size`` new
    slots that start at 0, and returns the slots.  New sums take
    ``np.bincount``, with the bits of ``np.add.at`` and faster at about
    one value per slot; the rest ``ufunc.at``.
    """
    if out is None and ufunc is np.add:
        return np.bincount(owner, values, minlength=size)
    if out is None:
        out = np.zeros(size)
    ufunc.at(out, owner, values)
    return out


def make_model(spec):
    """Build a validated VectorModel from a config section.

    ``spec`` holds the keys ``n``, ``c``, ``q`` (each a family section)
    and an optional ``c_scale``.
    """
    if not isinstance(spec, dict):
        raise ModelError("model section must be a mapping")
    unknown = set(spec) - {"n", "c", "q", "c_scale"}
    if unknown:
        raise ModelError(f"unknown model keys: {sorted(unknown)}")
    for key in ("n", "c", "q"):
        if key not in spec:
            raise ModelError(f"model section missing {key!r} law")
    c_scale = spec.get("c_scale", 1.0)
    if not _finite_number(c_scale):
        raise ModelError(f"c_scale must be a finite number, got {c_scale!r}")
    return VectorModel(
        n_law=_build_law(spec["n"], _COUNT_FAMILIES, "count"),
        c_law=_build_law(spec["c"], _VALUE_FAMILIES, "weight"),
        q_law=_build_law(spec["q"], _VALUE_FAMILIES, "toll"),
        c_scale=float(c_scale),
    )


# ---------------------------------------------------------------------------
# moment functionals


def moment_function(model, theta):
    """E[sum_i C_i^theta], the branching moment function, in closed form.

    Factorizes as E[N] * E[C^theta] under the iid-independent coupling.
    theta = 0 is allowed and returns E[N].
    """
    if theta < 0:
        raise ModelError("moment order must be nonnegative")
    return MomentValue(_moment_function(model, theta), "closed-form")


def moment_function_deriv(model, theta):
    """E[sum_i C_i^theta log C_i], the derivative of the moment function."""
    if theta <= 0:
        raise ModelError("moment order must be positive")
    return MomentValue(_moment_function_deriv(model, theta), "closed-form")


# The float formulas alone: the root solver evaluates them about a
# thousand times per solve, and a MomentValue costs 40% of a call.


def _moment_function(model, theta):
    value = model.n_law.mean() * model.c_moment(theta)
    return value if math.isfinite(value) else math.inf


def _moment_function_deriv(model, theta):
    value = model.n_law.mean() * model.c_log_weighted_moment(theta)
    return value if math.isfinite(value) else math.inf


def dominated(samples):
    """Whether the single largest term carries more than 5% of the total
    absolute mass, the one rule for "a few draws dominate".

    On a big sample this suggests the underlying moment may be infinite
    (the usual heavy-tail failure mode of naive averaging).
    """
    magnitudes = np.abs(samples)
    total = magnitudes.sum()
    return bool(total != 0.0 and magnitudes.max() / total > 0.05)


def mean_se(samples):
    """Sample mean and its standard error, the one rule for every MC mean.

    The error is the iid std(ddof=1) / sqrt(n), never below
    eps * log2(n) * mean|x|, and 0 for n = 1.  The floor states the
    rounding of the mean itself: a pairwise sum of n terms errs by at
    most about log2(n) * u * sum|x| with unit roundoff u = eps / 2
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, §4.2).
    Taking eps for u doubles that bound, a margin for numpy's leaf
    blocks of up to 128 terms, summed with eight running accumulators,
    and for the division by n.  The floor binds only on a near-constant
    sample, whose iid error would otherwise undercut its own rounding.
    """
    n = samples.size
    se = 0.0
    if n > 1:
        rounding = np.finfo(float).eps * math.log2(n) * np.abs(samples).mean()
        se = float(max(samples.std(ddof=1) / math.sqrt(n), rounding))
    return float(samples.mean()), se


Z_VERDICT = 3.0  # standard errors a verdict allows above its limit


def verdict(value, limit, std_error=0.0):
    """The one rule of every ``verify`` check: value <= limit + 3 SE."""
    return bool(value <= limit + Z_VERDICT * std_error)


# A moment past the double range (inf, or NaN of inf times 0) enters the
# series as e^(1e300): vast, yet finite in log form, so an empty term
# (log 0 = -inf) meets it as 0 and never as NaN
_LOG_OVERFLOW = 1e300


def _log_sum(terms):
    """log of sum(exp(terms)), shifted by the top term; -inf if all are."""
    top = terms.max()
    if top == -np.inf:
        return top
    return top + np.log(np.exp(terms - top).sum())


@np.errstate(all="ignore")
def log_sum_moments(n_law, x_moments):
    """log E[(X_1 + ... + X_N)^m] for m < len(x_moments), X_i iid of N
    with E[X^a] = ``x_moments[a]``; at m = 0, log P(N > 0).

    E[S^m] is m! times the t^m coefficient of G_N(1 + u(t)), with u(t) =
    sum_(a >= 1) E[X^a] t^a / a! and G_N(1 + u) = sum_k E[C(N, k)] u^k.
    No term is negative, so log-sum-exp cancels nothing and no order
    leaves the double range before its own value does.  Poisson and
    geometric counts take the recurrences of exp(lam u) and
    1 / (1 - E[N] u); a bounded N expands the powers of u.  A longer
    series repeats every coefficient of a shorter one bit for bit.
    """
    top = len(x_moments) - 1
    log_factorial = np.array([math.lgamma(m + 1.0) for m in range(top + 1)])
    log_u = np.fmin(np.log(x_moments), _LOG_OVERFLOW) - log_factorial
    log_u[0] = -np.inf
    f = np.full(top + 1, -np.inf)
    f[0] = 0.0
    n_max = n_law.max_value()
    if n_max is not None:
        power = f  # u^0, then u^k: its t^m term sums u^(k-1)_j u_(m-j)
        for k in range(1, min(top, n_max) + 1):
            power = np.array([-np.inf] + [_log_sum(power[:m] + log_u[m:0:-1])
                                          for m in range(1, top + 1)])
            weight = np.log(n_law.binomial_moment(k))
            f = np.logaddexp(f, np.fmin(weight, _LOG_OVERFLOW) + power)
    else:
        steps = np.arange(1, top + 1)
        if isinstance(n_law, PoissonCount):  # m f_m = lam sum_a a u_a f_(m-a)
            scale, w = np.log(n_law.lam / steps), log_u[1:] + np.log(steps)
        else:  # geometric: f_m = E[N] sum_a u_a f_(m-a)
            scale, w = np.full(top, np.log(n_law.mean())), log_u[1:]
        for m in steps:
            f[m] = scale[m - 1] + _log_sum(w[:m] + f[m - 1::-1])
    f[0] = np.log(1.0 - n_law.prob_zero())
    return f + log_factorial


def sum_moments(model, betas):
    """E[(sum_i c_scale C_i)^beta] for every beta, from one series.

    Closed form when N <= 1 almost surely; else exact at integer orders
    (``log_sum_moments``), and at beta = a + theta Hoelder's upper bound
    E[S^a]^(1 - theta) E[S^(a+1)]^theta, E[S^0] read as P(N > 0).  A
    value above the double range is inf, never 0 or NaN.
    """
    if min(betas, default=1.0) <= 0:
        raise ModelError("moment order must be positive")
    n_max = model.n_law.max_value()
    if n_max is not None and n_max <= 1:
        p_one = 1.0 - model.n_law.prob_zero()
        return [MomentValue(p_one * model.c_moment(beta), "closed-form")
                for beta in betas]
    top = math.ceil(max(betas, default=0.0))
    log_s = log_sum_moments(model.n_law, [model.c_moment(float(a))
                                          for a in range(top + 1)])
    out = []
    for beta in betas:
        a, theta = int(beta), beta % 1.0
        log_value = log_s[a] if theta == 0.0 else (
            (1.0 - theta) * log_s[a] + theta * log_s[a + 1])
        out.append(MomentValue(_exp(log_value), "interpolation-bound"
                               if theta else "closed-form"))
    return out


def sum_moment(model, beta):
    """E[(sum_i c_scale C_i)^beta], exact or bounded above, as in
    ``sum_moments``; it draws nothing."""
    return sum_moments(model, [beta])[0]
