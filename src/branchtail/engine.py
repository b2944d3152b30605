"""Depth-recursive sampling of weighted branching recursions.

Each replication grows the tree one generation at a time, holding only
the current generation's path weights (and, for max-plus, path sums), so
memory is linear in the width of the widest generation rather than the
tree size, for every kind.  The tree itself is never materialized.

``generation_frontier`` instead grows a whole forest from one shared
generator and yields every generation, each path product with its
tree, for checks that need generation-level quantities of many trees
(the weighted generation measure, W_n for several n from one forest).
It is outside the per-replication stream contract below.

Reproducibility contract
------------------------
Replication ``i`` of a batch owns the counter-based Philox stream keyed
by the two uint64 words ``(seed, i)``, read from counter 0.  A chunk of
replications holds one generator and re-keys it to ``(seed, i)`` with
counter 0 before replication ``i``, so it draws exactly what a fresh
generator of that key would.  Within a replication the draw order per
generation is fixed: toll values first, then offspring counts, then all
child weights flat.  Two consequences are load-bearing and tested: runs
of the same seed at different depths share every draw on the common
prefix of generations (sample-path monotonicity), and the max kind is
coupled below the linear kind replication by replication.

Replications whose node count exceeds the budget are abandoned and
counted, never clipped; their values are excluded from estimates.
"""

import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import make_value_law, moment_function
from .moments import constructive_constant, contractive

DEFAULT_BUDGET = 10 ** 7
_CHUNK = 2048  # fixed so reductions associate identically for any worker count

_KINDS = ("linear", "homogeneous-martingale", "max", "max-plus")
_ITERATE_BASE_KINDS = ("linear", "max")


class EngineError(ValueError):
    """Invalid sampling request or a batch with no usable replications."""


@dataclass(frozen=True)
class SampleBatch:
    """Immutable result of a batch of replications.

    ``kind`` names one of the recursion kinds, or iterate-from over a
    linear or max base kind.  ``values`` holds the completed replications
    in replication order, finite and nonnegative; budget-hit
    replications are excluded from it but counted.  Level statistics
    summarize generation sizes Z_k over completed replications (absent
    generations count as size 0).
    """

    kind: str
    depth: Optional[int]
    values: np.ndarray
    seed: int
    stream_count: int
    budget: int
    total_nodes: int
    truncated_replications: int
    level_mean: np.ndarray
    level_max: np.ndarray
    model_fingerprint: str
    node_counts: Optional[np.ndarray] = field(default=None, repr=False)
    truncated: Optional[np.ndarray] = field(default=None, repr=False)
    base_kind: Optional[str] = None
    r0: Optional[dict] = None

    def __post_init__(self):
        if self.kind not in _KINDS and not (
                self.kind == "iterate-from"
                and self.base_kind in _ITERATE_BASE_KINDS):
            raise EngineError(f"unknown recursion kind: {self.kind!r}")
        if not (np.isfinite(self.values) & (self.values >= 0.0)).all():
            raise EngineError("batch values must be finite and nonnegative")
        if self.values.size != self.stream_count - self.truncated_replications:
            raise EngineError("batch values disagree with the count of "
                              "completed replications")
        if self.truncated is not None:
            if int(self.truncated.sum()) != self.truncated_replications:
                raise EngineError("truncation mask disagrees with its count")

    @property
    def completed(self):
        return int(self.values.size)


def _validate_seed(seed):
    if not isinstance(seed, (int, np.integer)) or seed < 0 or seed >= 2 ** 64:
        raise EngineError("seed must be an integer in [0, 2^64)")
    return int(seed)


def _validate_depth(model, depth):
    if depth is None:
        if model.n_law.prob_zero() <= 0.0:
            raise EngineError(
                "exact mode needs P(N = 0) > 0 so the tree can terminate"
            )
        return None
    if not isinstance(depth, (int, np.integer)) or depth < 0:
        raise EngineError("depth must be an integer >= 0 (or None for exact)")
    return int(depth)


def _validate_kind(model, kind):
    if kind not in _KINDS:
        raise EngineError(f"unknown recursion kind: {kind!r}")
    if kind != "homogeneous-martingale" and model.q_law.prob_positive() == 0.0:
        raise EngineError(f"kind {kind!r} requires P(Q > 0) > 0")


def _draw_tolls(model, kind, last, boundary, rng, size):
    """Generation tolls: martingale marks, the r0 boundary, or Q."""
    if kind == "homogeneous-martingale":
        return model.draw_mark(rng, size) if last else None
    if last and boundary is not None:
        return boundary.sample(rng, size)
    return model.draw_q(rng, size)


def _replicate(model, kind, depth, budget, rng, boundary=None):
    """One replication, grown generation by generation; returns (value, nodes, z).

    This is the one place that encodes the stream order: generation k
    draws its tolls, then its counts, then its child weights.  The tolls
    fold by sum (linear, martingale) or by max (max); max-plus carries
    each node's path sum S_v = sum of Pi_u Q_u over u on root..v and
    takes their max, which is R because the weights are nonnegative.
    The martingale kind draws marks at generation ``depth`` only; a
    ``boundary`` law replaces Q at generation ``depth`` (iterate-from).

    A None value means the node budget was hit and the replication
    abandoned; ``z`` lists the generation sizes grown so far.
    """
    pi = np.ones(1)
    nodes = 1
    z = [1]
    level = 0
    acc = 0.0
    path = 0.0  # the root's path sum before its toll
    while True:
        last = level == depth
        tolls = _draw_tolls(model, kind, last, boundary, rng, pi.size)
        if kind == "max":
            acc = max(acc, float((tolls * pi).max()))
        elif kind == "max-plus":
            path = path + tolls * pi
            acc = max(acc, float(path.max()))
        elif tolls is not None:
            acc += float(tolls @ pi)
        if last:
            break
        counts, weights = model.draw_offspring(rng, pi.size)
        nodes += weights.size
        if nodes > budget:
            return None, nodes, z
        if weights.size == 0:
            break  # the tree died
        if kind == "max-plus":
            path = np.repeat(path, counts)
        pi = np.repeat(pi, counts) * weights
        z.append(weights.size)
        level += 1
    return acc, nodes, z


def generation_frontier(model, depth, trees, budget, rng):
    """Yield each generation 0..``depth`` of a forest of ``trees`` trees.

    Yields ``(pi, owner, alive)``: the generation's path products, the
    tree each belongs to (nondecreasing), and which trees are still
    grown.  Advancing past a generation draws the counts of its whole
    frontier from the shared ``rng``, then all child weights flat; a
    caller may draw its own per-generation values in between.  A tree
    whose node count through a generation exceeds ``budget`` is dropped
    from then on, as ``run_batch`` abandons a replication.  Memory is
    linear in the widest generation of the forest.
    """
    if not isinstance(depth, (int, np.integer)) or depth < 0:
        raise EngineError("depth must be an integer >= 0")
    pi = np.ones(trees)
    owner = np.arange(trees)
    nodes = np.ones(trees, dtype=np.int64)
    alive = np.ones(trees, dtype=bool)
    yield pi, owner, alive
    for _ in range(depth):
        counts, weights = model.draw_offspring(rng, pi.size)
        owner = np.repeat(owner, counts)
        pi = np.repeat(pi, counts) * weights
        nodes += np.bincount(owner, minlength=trees)
        dropped = alive & (nodes > budget)
        if dropped.any():
            alive = alive & ~dropped
            keep = alive[owner]
            pi, owner = pi[keep], owner[keep]
        yield pi, owner, alive


def _require_completed(truncated, budget):
    """Raise unless some replication stayed within the node budget."""
    if truncated.all():
        raise EngineError(f"all {truncated.size} replications exceeded "
                          f"the node budget {budget}")


def _run_chunk(model, kind, depth, budget, seed, start, count,
               base_kind=None, r0_params=None):
    """Replications [start, start+count); picklable worker task.

    Returns plain arrays only.  Level sums are integers so chunk merges
    are exact and independent of chunk execution order.
    """
    boundary = make_value_law(r0_params) if r0_params is not None else None
    fold = base_kind or kind
    # one generator per chunk, re-keyed per replication: building a Philox
    # costs far more than a small tree's draws
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    key = np.array([seed, 0], dtype=np.uint64)
    fresh = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    values = []
    node_counts = np.empty(count, dtype=np.int64)
    truncated = np.zeros(count, dtype=bool)
    level_sums = []
    level_maxes = []
    for j in range(count):
        key[1] = start + j
        bit_generator.state = fresh
        value, nodes, z = _replicate(model, fold, depth, budget, rng, boundary)
        node_counts[j] = nodes
        if value is None:
            truncated[j] = True
            continue
        values.append(value)
        if len(z) > len(level_sums):
            grow = len(z) - len(level_sums)
            level_sums.extend([0] * grow)
            level_maxes.extend([0] * grow)
        for k, zk in enumerate(z):
            level_sums[k] += zk
            if zk > level_maxes[k]:
                level_maxes[k] = zk
    return (np.asarray(values, dtype=float), node_counts, truncated,
            np.asarray(level_sums, dtype=np.int64),
            np.asarray(level_maxes, dtype=np.int64))


def _merge_chunks(results):
    values = np.concatenate([r[0] for r in results])
    node_counts = np.concatenate([r[1] for r in results])
    truncated = np.concatenate([r[2] for r in results])
    depth_top = max(r[3].size for r in results)
    level_sums = np.zeros(depth_top, dtype=np.int64)
    level_maxes = np.zeros(depth_top, dtype=np.int64)
    for r in results:
        level_sums[: r[3].size] += r[3]
        np.maximum(level_maxes[: r[4].size], r[4], out=level_maxes[: r[4].size])
    return values, node_counts, truncated, level_sums, level_maxes


def _batch_common(model, kind, depth, reps, budget, seed, workers,
                  base_kind=None, r0_params=None):
    seed = _validate_seed(seed)
    if reps < 1:
        raise EngineError("reps must be >= 1")
    if workers < 1:
        raise EngineError("workers must be >= 1")
    if budget < 1:
        raise EngineError("budget must be >= 1")
    tasks = [(start, min(_CHUNK, reps - start))
             for start in range(0, reps, _CHUNK)]
    if workers == 1:
        results = [
            _run_chunk(model, kind, depth, budget, seed, start, count,
                       base_kind, r0_params)
            for start, count in tasks
        ]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_chunk, model, kind, depth, budget, seed,
                            start, count, base_kind, r0_params)
                for start, count in tasks
            ]
            results = [f.result() for f in futures]
    values, node_counts, truncated, level_sums, level_maxes = _merge_chunks(results)
    _require_completed(truncated, budget)
    n_truncated = int(truncated.sum())
    level_mean = level_sums / float(reps - n_truncated)
    return SampleBatch(
        kind=kind,
        depth=depth,
        values=values,
        seed=seed,
        stream_count=reps,
        budget=int(budget),
        total_nodes=int(node_counts.sum()),
        truncated_replications=n_truncated,
        level_mean=level_mean,
        level_max=level_maxes,
        model_fingerprint=model.fingerprint(),
        node_counts=node_counts,
        truncated=truncated,
        base_kind=base_kind,
        r0=r0_params,
    )


def run_batch(model, kind, depth, reps, budget=DEFAULT_BUDGET, seed=0,
              workers=1):
    """Sample ``reps`` independent replications into a SampleBatch.

    ``kind`` is linear (R = sum_i C_i R_i + Q), max (R = max(max_i C_i R_i,
    Q)), max-plus (R = max_i C_i R_i + Q) or homogeneous-martingale (the
    generation-``depth`` path weights summed against marks).

    The output is a deterministic function of (model, kind, depth, reps,
    budget, seed): replication i derives its stream from (seed, i), so
    the worker count changes wall time only.  Raises when every
    replication hits the budget.
    """
    _validate_kind(model, kind)
    depth = _validate_depth(model, depth)
    return _batch_common(model, kind, depth, reps, budget, seed, workers)


def iterate_from(model, kind, r0, n, reps, seed, budget=DEFAULT_BUDGET,
                 workers=1):
    """Sample the n-step iterate of the recursion started from law r0.

    For the linear kind this is the (n-1)-generation partial sum plus
    the generation-n boundary term; for the max kind the analogous
    maximum.  With r0 fixed at 0 the boundary vanishes and the sample
    paths coincide with the plain depth-(n-1) recursion.

    Parameters
    ----------
    model : VectorModel
    kind : {"linear", "max"}
    r0 : dict
        Family section for the initial-value law.
    n : int
        Iteration count, >= 0.
    reps, seed, budget, workers : as run_batch
    """
    if kind not in _ITERATE_BASE_KINDS:
        raise EngineError(f"iterate-from supports kinds {_ITERATE_BASE_KINDS}")
    _validate_kind(model, kind)
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise EngineError("iteration count must be an integer >= 0")
    r0_law = make_value_law(r0)  # validate before farming out
    del r0_law
    return _batch_common(model, "iterate-from", int(n), reps, budget, seed,
                         workers, base_kind=kind, r0_params=dict(r0))


def truncation_bound(model, beta, depth, rng=None):
    """Certified bound on the beta-moment of the depth-truncation error.

    It bounds the linear remainder sum over |v| > depth of Pi_v Q_v.  The
    max and max-plus values gain at most that remainder when the tree is
    grown past ``depth``, so the bound holds for them too.

    For beta <= 1 the bound is E[Q^beta] rho_beta^(depth+1) / (1 - rho_beta),
    valid whenever rho_beta < 1.  For beta > 1 it is
    K_beta eta^(depth+1) / (1 - eta^(1/beta))^beta with eta = rho v rho_beta
    and K_beta the constructive constant.  Outside the contractive regime
    the bound is infinite and ``inf`` is returned rather than raising.
    """
    if beta <= 0:
        raise EngineError("moment order must be positive")
    if not isinstance(depth, (int, np.integer)) or depth < 0:
        raise EngineError("depth must be an integer >= 0")
    rho_beta = moment_function(model, float(beta)).value
    if beta <= 1.0:
        if not contractive(rho_beta):
            return math.inf
        return (model.q_moment(float(beta)) * rho_beta ** (depth + 1)
                / (1.0 - rho_beta))
    rho = moment_function(model, 1.0).value
    eta = max(rho, rho_beta)
    if not contractive(eta):
        return math.inf
    k_beta = constructive_constant(model, beta, rng=rng)
    if k_beta.diverged:
        return math.inf
    return (k_beta.value * eta ** (depth + 1)
            / (1.0 - eta ** (1.0 / beta)) ** beta)


# ---------------------------------------------------------------------------
# batch serialization

_CSV_MAGIC = "branchtail-batch v1"
_CSV_BLOCK_ROWS = 1 << 14


def _floats_csv(array):
    return ",".join(repr(float(x)) for x in array)


def write_batch_csv(batch, path):
    """Write one value per row with a metadata header.

    Floats are written with repr so the round-trip is bit-exact.  Value
    rows are formatted and written a block at a time, so the text of
    the whole batch is never held in memory.
    """
    meta = {
        "kind": batch.kind,
        "depth": "exact" if batch.depth is None else str(batch.depth),
        "seed": str(batch.seed),
        "stream_count": str(batch.stream_count),
        "budget": str(batch.budget),
        "total_nodes": str(batch.total_nodes),
        "truncated_replications": str(batch.truncated_replications),
        "model_fingerprint": batch.model_fingerprint,
        "level_mean": _floats_csv(batch.level_mean),
        "level_max": ",".join(str(int(x)) for x in batch.level_max),
    }
    if batch.base_kind is not None:
        meta["base_kind"] = batch.base_kind
    if batch.r0 is not None:
        meta["r0"] = json.dumps(batch.r0, sort_keys=True)
    lines = [f"# {_CSV_MAGIC}"]
    lines.extend(f"# {key}={text}" for key, text in meta.items())
    lines.append("value")
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
        for start in range(0, batch.values.size, _CSV_BLOCK_ROWS):
            block = batch.values[start:start + _CSV_BLOCK_ROWS].tolist()
            handle.write("\n".join(map(repr, block)) + "\n")


def read_batch_csv(path):
    """Reconstruct a SampleBatch written by write_batch_csv.

    The ``# key=value`` header is parsed line by line; the value rows go
    straight into one float64 array through numpy's text reader, whose
    conversion is correctly rounded, so no Python float is made per row
    and every repr-written value comes back bit for bit.  Blank rows
    are skipped.

    Raises EngineError on a field or row that does not parse, and on
    values that break a SampleBatch invariant: a value that is not finite
    or a value count other than the header's completed replications.
    Per-replication node counts are not stored in the CSV; the returned
    batch carries the aggregate statistics only.
    """
    meta = {}
    with open(path, newline="") as handle:
        if handle.readline().strip() != f"# {_CSV_MAGIC}":
            raise EngineError(f"{path} is not a batch CSV")
        line = handle.readline().rstrip("\n")
        while line.startswith("# "):
            key, _, text = line[2:].partition("=")
            meta[key] = text
            line = handle.readline().rstrip("\n")
        if line != "value":
            raise EngineError("batch CSV missing the value column")
        start = handle.tell()
        try:
            with warnings.catch_warnings():
                # no value rows: the count check below rejects the file
                warnings.filterwarnings("ignore", "loadtxt: input contained")
                values = np.loadtxt(handle, dtype=float, delimiter=",",
                                    comments=None, ndmin=1)
                if values.ndim != 1:  # every row holds the same extra fields
                    raise ValueError(f"value rows hold {values.shape[1]} fields")
        except UnicodeDecodeError:  # the bytes are at fault, not a row
            raise
        except ValueError as exc:
            handle.seek(start)
            raise EngineError(_bad_value_row(handle, exc)) from None
    try:
        depth = None if meta["depth"] == "exact" else int(meta["depth"])
        level_mean = (np.array([float(x) for x in meta["level_mean"].split(",")])
                      if meta["level_mean"] else np.zeros(0))
        level_max = (np.array([int(x) for x in meta["level_max"].split(",")],
                              dtype=np.int64)
                     if meta["level_max"] else np.zeros(0, dtype=np.int64))
        fields = dict(
            kind=meta["kind"],
            depth=depth,
            values=values,
            seed=int(meta["seed"]),
            stream_count=int(meta["stream_count"]),
            budget=int(meta["budget"]),
            total_nodes=int(meta["total_nodes"]),
            truncated_replications=int(meta["truncated_replications"]),
            level_mean=level_mean,
            level_max=level_max,
            model_fingerprint=meta["model_fingerprint"],
            base_kind=meta.get("base_kind"),
            r0=json.loads(meta["r0"]) if "r0" in meta else None,
        )
    except KeyError as exc:
        raise EngineError(f"batch CSV missing metadata field {exc}") from None
    except ValueError as exc:
        raise EngineError(f"batch CSV metadata does not parse: {exc}") from None
    return SampleBatch(**fields)


def _bad_value_row(rows, exc):
    """Message naming the first value row the text reader rejected."""
    for line in rows:
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            float(line)
        except ValueError:
            break
    else:
        return f"batch CSV value rows do not parse: {exc}"
    return f"batch CSV value row {line!r} is not a number"


def summary(batch):
    """JSON-ready summary: moments, quantiles, and node-count statistics."""
    values = batch.values
    n = values.size
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if n > 1 else 0.0
    quantiles = {
        str(q): float(np.quantile(values, q))
        for q in (0.5, 0.9, 0.99, 0.999)
    }
    nodes = {
        "total": batch.total_nodes,
        "mean_per_replication": batch.total_nodes / batch.stream_count,
    }
    if batch.node_counts is not None:
        nodes["max_per_replication"] = int(batch.node_counts.max())
    out = {
        "kind": batch.kind,
        "depth": batch.depth,
        "seed": batch.seed,
        "replications": batch.stream_count,
        "completed": batch.completed,
        "truncated_replications": batch.truncated_replications,
        "budget": batch.budget,
        "model_fingerprint": batch.model_fingerprint,
        "value_mean": mean,
        "value_sd": sd,
        "value_std_error": sd / math.sqrt(n) if n > 1 else 0.0,
        "value_min": float(values.min()),
        "value_max": float(values.max()),
        "quantiles": quantiles,
        "nodes": nodes,
        "levels": {
            "mean": [float(x) for x in batch.level_mean],
            "max": [int(x) for x in batch.level_max],
        },
    }
    if batch.base_kind is not None:
        out["base_kind"] = batch.base_kind
    if batch.r0 is not None:
        out["r0"] = batch.r0
    return out
