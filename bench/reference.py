"""Exact reference sampler for the model_b family of perpetuities.

The model_b family has offspring count N in {0, 1} with probability 1/2
each, lognormal weights C = c_scale * exp(Normal(ln 2 - 1/2, 1)) and a
unit toll.  Every tree is then a chain whose length G (nodes) is
geometric with P(G = g) = 2^-g, and the fixed points are explicit
functions of the chain:

    linear:  R = 1 + C_1 + C_1 C_2 + ... + C_1 ... C_{G-1}
    max:     R = max(1, C_1, C_1 C_2, ..., C_1 ... C_{G-1})

This module samples them with numpy alone, generation by generation over
all live chains at once, so it shares no code with branchtail.  It is the
KS reference for exact sampling and the source of the analyze workload's
input batch.
"""

import math

import numpy as np

LOG_MU = math.log(2.0) - 0.5  # lognormal location of model_b weights
LOG_SIGMA = 1.0               # lognormal scale (variance 1)


def perpetuity(rng, reps, c_scale=1.0, depth=None):
    """Sample ``reps`` chains; return (linear, peak, nodes) arrays.

    ``linear`` and ``peak`` are the linear and max fixed points of each
    chain, ``nodes`` its node count.  With ``depth`` set, generations
    past ``depth`` are cut off, which gives the depth-truncated sums.
    """
    linear = np.ones(reps)
    peak = np.ones(reps)
    path = np.ones(reps)
    nodes = np.ones(reps, dtype=np.int64)
    alive = np.arange(reps)
    level = 0
    while alive.size and (depth is None or level < depth):
        alive = alive[rng.random(alive.size) < 0.5]
        path[alive] *= c_scale * rng.lognormal(LOG_MU, LOG_SIGMA, alive.size)
        linear[alive] += path[alive]
        peak[alive] = np.maximum(peak[alive], path[alive])
        nodes[alive] += 1
        level += 1
    return linear, peak, nodes


def tail_index(c_scale):
    """Exact root alpha of E[N] E[C^alpha] = 1 for the family.

    ln E[N C^t] = ln(1/2) + t ln(c_scale) + t (ln 2 - 1/2) + t^2 / 2, a
    quadratic in t whose positive root is the tail index.
    """
    b = math.log(c_scale) + LOG_MU
    return -b + math.sqrt(b * b + 2.0 * math.log(2.0))
