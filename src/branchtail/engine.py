"""Depth-recursive sampling of weighted branching recursions.

Each replication grows the tree one generation at a time, holding only
the current generation's path weights (and, for max-plus, path sums), so
memory is linear in the width of the widest generation rather than the
tree size, for every kind.  The tree itself is never materialized.
A generation of one node is held as Python floats and drawn by scalar
draws, which skips the fixed cost of numpy calls on one-element arrays;
a wider one is held as arrays.

``generation_frontier`` instead grows a whole forest from one shared
generator and yields every generation, each path product with its
tree, for checks that need generation-level quantities of many trees
(the weighted generation measure, W_n for several n from one forest,
the n-step iterates from several starts).  ``_martingale_forest`` and
``_iterate_forest`` fold such a forest tree by tree.  The forest is
outside the per-replication stream contract below.

Reproducibility contract
------------------------
Replication ``i`` of a batch owns the counter-based Philox stream keyed
by the two uint64 words ``(seed, i)``, read from counter 0.  A chunk of
replications holds one generator and re-keys it to ``(seed, i)`` with
counter 0 and an empty buffer before replication ``i``, so it draws
exactly what a fresh generator of that key would; the re-key assigns a
state of plain Python ints, the cheapest form numpy's setter reads.
Within a replication the draw order per generation is fixed: toll
values first, then offspring counts, then all child weights flat.  A
scalar draw (``size=None``) reads the words of a draw of size 1, so a
generation held as floats draws the values of an array generation of
one node.  Two consequences are load-bearing and tested: runs of the
same seed at different depths share every draw on the common
prefix of generations (sample-path monotonicity), and the max kind is
coupled below the linear kind replication by replication.

Replications whose node count exceeds the budget are abandoned and
counted, never clipped; their values are excluded from estimates.
"""

import functools
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import fold_by_owner, mean_se
from .moments import contraction_factor, contractive, generation_moment_bound

DEFAULT_BUDGET = 10 ** 7
_CHUNK = 2048  # replications per pool task; it changes no output
# nodes in one forest generation, whatever each tree's budget: about 0.5 GB
# of working arrays
_FOREST_WIDTH = 10 ** 7

# R = toll(children_i C_i R_i, Q); without a toll, marks weigh the last level
KINDS = {
    "linear": (np.add, np.add),
    "homogeneous-martingale": (np.add, None),
    "max": (np.maximum, np.maximum),
    "max-plus": (np.maximum, np.add),
}


class EngineError(ValueError):
    """Invalid sampling request or a batch with no usable replications."""


class _WidthError(EngineError):
    """A forest generation wider than ``_FOREST_WIDTH``."""


@dataclass(frozen=True)
class SampleBatch:
    """Immutable result of a batch of replications.

    ``kind`` names one of the four recursion kinds.  ``values`` holds
    the completed replications in replication order, finite and
    nonnegative; budget-hit replications are excluded from it but
    counted.  Level statistics summarize generation sizes Z_k over
    completed replications (absent generations count as size 0).
    ``truncated`` derives from ``node_counts``, which a CSV lacks.
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

    def __post_init__(self):
        recursion(self.kind)
        if not (np.isfinite(self.values) & (self.values >= 0.0)).all():
            raise EngineError("batch values must be finite and nonnegative")
        if self.values.size != self.stream_count - self.truncated_replications:
            raise EngineError("batch values disagree with the count of "
                              "completed replications")
        if self.node_counts is not None:
            if int(self.truncated.sum()) != self.truncated_replications:
                raise EngineError("truncation mask disagrees with its count")

    @property
    def completed(self):
        return int(self.values.size)

    @property
    def truncated(self):
        """Node counts over the budget, the rule ``_replicate`` abandons by."""
        if self.node_counts is not None:
            return self.node_counts > self.budget


def _validate_seed(seed):
    if not isinstance(seed, (int, np.integer)) or seed < 0 or seed >= 2 ** 64:
        raise EngineError("seed must be an integer in [0, 2^64)")
    return int(seed)


def _validate_depth(depth, model=None):
    """An int >= 0, or None (exact mode) given a ``model`` that can die."""
    if depth is None and model is not None:
        if model.n_law.prob_zero() <= 0.0:
            raise EngineError(
                "exact mode needs P(N = 0) > 0 so the tree can terminate"
            )
        return None
    if not isinstance(depth, (int, np.integer)) or depth < 0:
        raise EngineError("depth must be an integer >= 0")
    return int(depth)


def recursion(kind, model=None):
    """A kind's ``(children, toll)`` pair: the one lookup of a kind name.

    Given a ``model``, a kind with a toll also needs P(Q > 0) > 0.
    """
    try:
        children, toll = KINDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise EngineError(f"unknown recursion kind: {kind!r}") from None
    if (toll is not None and model is not None
            and model.q_law.prob_positive() == 0.0):
        raise EngineError(f"kind {kind!r} requires P(Q > 0) > 0")
    return children, toll


def _replicate(model, kind, depth, budget, rng):
    """One replication, grown generation by generation; returns (value, nodes, z).

    This is the one place that encodes the stream order: generation k
    draws its tolls, then its counts, then its child weights.  The terms
    Pi_v Q_v fold by the kind's children ufunc; max-plus instead carries
    each node's path sum S_v = sum of Pi_u Q_u over u on root..v and
    takes their max, which is R because the weights are nonnegative.
    A kind without a toll draws marks at generation ``depth`` only.

    ``size`` is None while a generation holds one node: its path
    product and path sum are floats, and each draw takes ``size=None``,
    which reads the stream words of a draw of size 1, so the bits are
    those of an array of one node.  A wider generation holds arrays, and
    a tree that thins back to one node returns to floats.

    A None value means the node budget was hit and the replication
    abandoned, before the weights of the generation that hit it were
    drawn; its node count stops at 2^63 - 1, and ``z`` lists the
    generation sizes grown so far.
    """
    children, toll = KINDS[kind]
    paths = children is not toll and toll is not None  # max-plus
    peak = children is np.maximum
    stop = -1 if depth is None else depth
    draw_toll = model.draw_q if toll is not None else None
    draw_offspring = model.draw_offspring
    nodes = 1
    z = [1]
    level = 0
    acc = 0.0
    path = 0.0  # the root's path sum before its toll
    pi = 1.0
    size = None  # the generation's width, None while it holds one node
    while True:
        last = level == stop
        if last and toll is None:
            draw_toll = model.draw_mark
        if draw_toll is not None:
            tolls = draw_toll(rng, size)
            if size is None:
                term = tolls * pi
                if paths:
                    path += term
                    term = path
                if not peak:
                    acc += term
                elif term > acc:  # max(acc, term), without the call
                    acc = term
            elif paths:
                path = path + tolls * pi
                acc = max(acc, float(path.max()))
            elif peak:
                acc = max(acc, float((tolls * pi).max()))
            else:
                acc += tolls @ pi
        if last:
            break
        counts, weights = draw_offspring(rng, size, budget - nodes)
        if weights is None:  # a count past int64 is stored as 2^63 - 1
            total = nodes + int(model.child_total(counts, size))
            return None, min(total, 2 ** 63 - 1), z
        born = int(counts) if size is None else weights.size
        if born == 0:
            break  # the tree died
        nodes += born
        z.append(born)
        level += 1
        if size is None:
            pi = pi * weights
            if born > 1:  # to arrays
                size = born
                if paths:
                    path = np.full(born, path)
        else:
            pi = pi.repeat(counts) * weights
            if paths:
                path = path.repeat(counts)
            size = born
            if born == 1:  # back to floats
                pi, size = float(pi[0]), None
                if paths:
                    path = float(path[0])
    return float(acc), nodes, z


def generation_frontier(model, depth, trees, budget, rng):
    """Yield each generation 0..``depth`` of a forest of ``trees`` trees.

    Yields ``(pi, owner, alive)``: the generation's path products, the
    tree each belongs to (nondecreasing), and which trees are still
    grown.  Advancing past a generation draws the counts of its whole
    frontier from the shared ``rng``, then all child weights flat; a
    caller may draw its own per-generation values in between.  A tree
    whose node count through a generation exceeds ``budget`` is dropped
    from then on, as ``run_batch`` abandons a replication.  Memory is
    linear in the widest generation of the forest, which may hold at
    most ``_FOREST_WIDTH`` nodes: a wider one raises ``_WidthError``, an
    EngineError, before its weights are drawn.

    Unlike ``run_batch``, every child weight is drawn before the budget
    is checked: the trees share one stream, so drawing fewer weights for
    a dropped tree would move every later draw of the others.
    """
    _validate_depth(depth)
    pi = np.ones(trees)
    owner = np.arange(trees)
    nodes = np.ones(trees, dtype=np.int64)
    alive = np.ones(trees, dtype=bool)
    yield pi, owner, alive
    for k in range(1, depth + 1):
        counts, weights = model.draw_offspring(rng, pi.size, _FOREST_WIDTH)
        if weights is None:
            raise _WidthError(
                f"generation {k} of a forest of {trees} trees holds "
                f"{int(model.child_total(counts, pi.size))} nodes, over the "
                f"cap of {_FOREST_WIDTH}")
        owner = owner.repeat(counts)
        pi = pi.repeat(counts) * weights
        nodes += np.bincount(owner, minlength=trees)
        dropped = alive & (nodes > budget)
        if dropped.any():
            alive = alive & ~dropped
            keep = alive[owner]
            pi, owner = pi[keep], owner[keep]
        yield pi, owner, alive


def _martingale_forest(model, depths, reps, budget, rng):
    """W_n = sum over generation n of Pi_v Q_v per tree, for each n in depths.

    One forest of ``reps`` trees grown to the deepest n; a tree over the
    budget by generation n is left out of W_n, as run_batch abandons it.
    """
    w = {}
    forest = generation_frontier(model, max(depths, default=0), reps, budget,
                                 rng)
    for n, (pi, owner, alive) in enumerate(forest):
        if n in depths:
            _require_completed(~alive, budget)
            marks = model.draw_mark(rng, pi.size)
            w[n] = fold_by_owner(np.add, owner, pi * marks, reps)[alive]
    return w


def _iterate_forest(model, kind, n, starts, reps, budget, rng):
    """n-step iterates from deterministic starts, all on one forest.

    Each tree folds Pi_v Q_v over generations 0..n-1 by the kind's toll,
    the same ufunc as its children (linear, max), then takes ``s`` times
    the fold of its generation-n path products for each start ``s``, so
    the starts share every draw.  Trees over the budget are left out.
    """
    fold, toll = recursion(kind, model)
    if fold is not toll:
        raise EngineError(f"the iterate takes a kind whose toll folds like "
                          f"its children, not {kind!r}")
    partial = np.zeros(reps)
    forest = generation_frontier(model, n, reps, budget, rng)
    for k, (pi, owner, alive) in enumerate(forest):
        if k < n:
            fold_by_owner(fold, owner, pi * model.draw_q(rng, pi.size),
                          reps, out=partial)
    _require_completed(~alive, budget)
    boundary = fold_by_owner(fold, owner, pi, reps)
    return [fold(partial, s * boundary)[alive] for s in starts]


def _require_completed(truncated, budget):
    """Raise unless some replication stayed within the node budget."""
    if truncated.all():
        raise EngineError(f"all {truncated.size} replications exceeded "
                          f"the node budget {budget}")


def _run_chunk(model, kind, depth, budget, seed, start, stop):
    """Replications [start, stop); picklable worker task.  Returns plain
    arrays: values, node counts, and generation-size sums and maxima."""
    # one generator per chunk, re-keyed per replication: building a Philox
    # costs far more than a small tree's draws.  The state holds Python
    # ints, which the setter reads faster than numpy words, each taken as
    # the unsigned word it is up to 2^64 - 1.
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    key = [seed, 0]
    fresh = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    values, node_counts, sizes, lens = [], [], [], []
    for i in range(start, stop):
        key[1] = i
        bit_generator.state = fresh
        value, nodes, z = _replicate(model, kind, depth, budget, rng)
        node_counts.append(nodes)
        if value is not None:
            values.append(value)
            sizes.extend(z)
            lens.append(len(z))
    sizes = np.array(sizes, dtype=np.int64)
    return (np.asarray(values, dtype=float),
            np.asarray(node_counts, dtype=np.int64),
            *_fold_levels(lens, sizes, sizes))


def _fold_levels(lens, sums, maxima):
    """Int64 folds of ``sums`` by sum and of ``maxima`` by max.  Each lays
    rows of ``lens`` entries end to end (a replication's generation sizes,
    or a chunk's folds), and slot k folds entry k of every row."""
    lens = np.asarray(lens, dtype=np.int64)
    level = np.arange(sums.size) - (lens.cumsum() - lens).repeat(lens)
    width = int(lens.max(initial=0))
    return tuple(fold_by_owner(ufunc, level, rows, width,
                               out=np.zeros(width, dtype=np.int64))
                 for ufunc, rows in ((np.add, sums), (np.maximum, maxima)))


def run_batch(model, kind, depth, reps, budget=DEFAULT_BUDGET, seed=0,
              workers=1):
    """Sample ``reps`` independent replications into a SampleBatch.

    ``kind`` is linear (R = sum_i C_i R_i + Q), max (R = max(max_i C_i R_i,
    Q)), max-plus (R = max_i C_i R_i + Q) or homogeneous-martingale (the
    generation-``depth`` path weights summed against marks).

    The output is a deterministic function of (model, kind, depth, reps,
    budget, seed): replication i derives its stream from (seed, i), so
    the worker count changes wall time only.  The pool holds no more
    processes than chunks or CPUs, and with one the chunks run here.
    Raises when every replication hits the budget.  Exact mode (``depth``
    None) needs P(N = 0) > 0; with E[N] >= 1 the expected tree size is
    infinite, so only the budget bounds a replication and only a small
    budget keeps the run cheap (the CLI refuses such a law in exact
    mode).
    """
    recursion(kind, model)
    depth = _validate_depth(depth, model)
    seed = _validate_seed(seed)
    if reps < 1:
        raise EngineError("reps must be >= 1")
    if workers < 1:
        raise EngineError("workers must be >= 1")
    if budget < 1:
        raise EngineError("budget must be >= 1")
    tasks = [(i, min(i + _CHUNK, reps)) for i in range(0, reps, _CHUNK)]
    chunk = functools.partial(_run_chunk, model, kind, depth, budget, seed)
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        results = [chunk(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(chunk, *task) for task in tasks]
            results = [f.result() for f in futures]
    values, node_counts, level_sums, level_maxes = zip(*results)
    level_sums, level_maxes = _fold_levels(
        [s.size for s in level_sums], np.concatenate(level_sums),
        np.concatenate(level_maxes))
    node_counts = np.concatenate(node_counts)
    _require_completed(node_counts > budget, budget)
    values = np.concatenate(values)
    return SampleBatch(
        kind=kind,
        depth=depth,
        values=values,
        seed=seed,
        stream_count=reps,
        budget=int(budget),
        total_nodes=sum(node_counts.tolist()),  # Python ints do not wrap
        truncated_replications=reps - values.size,
        level_mean=level_sums / float(values.size),
        level_max=level_maxes,
        model_fingerprint=model.fingerprint(),
        node_counts=node_counts,
    )


def truncation_bound(model, beta, depth, rng=None):
    """Certified bound on the beta-moment of the depth-truncation error.

    It bounds the linear remainder sum over |v| > depth of Pi_v Q_v.  The
    max and max-plus values gain at most that remainder when the tree is
    grown past ``depth``, so the bound holds for them too.

    The remainder is the tail of the generation sums W_n, n > depth, so
    the bound is ``generation_moment_bound`` at n = depth + 1 times the
    geometric tail sum 1 / (1 - eta^(1/p))^p, with p = beta v 1
    (subadditivity below 1, Minkowski above) and eta the
    ``contraction_factor``.  Outside the contractive regime it
    returns ``inf`` before any draw rather than raising, and where
    ``(1 - eta^(1/p))^p`` underflows to 0 it returns ``inf`` too.
    """
    if beta <= 0:
        raise EngineError("moment order must be positive")
    _validate_depth(depth)
    eta = contraction_factor(model, beta)
    if not contractive(eta):
        return math.inf
    head = generation_moment_bound(model, beta, depth + 1, rng=rng).value
    p = max(beta, 1.0)
    tail_sum = (1.0 - eta ** (1.0 / p)) ** p
    return head / tail_sum if tail_sum > 0.0 else math.inf


# ---------------------------------------------------------------------------
# batch serialization

_CSV_MAGIC = "branchtail-batch v1"
_CSV_BLOCK_ROWS = 1 << 14
_READ_BLOCK_BYTES = 1 << 18
_ROW_SPACES = (b" ", b"\t", b"\r", b"\v", b"\f")


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
        "level_mean": ",".join(repr(float(x)) for x in batch.level_mean),
        "level_max": ",".join(str(int(x)) for x in batch.level_max),
    }
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

    The ``# key=value`` header is parsed line by line.  Value rows are
    read ``_READ_BLOCK_BYTES`` at a time, a block's partial last row
    carried into the next, and numpy's correctly rounded text scanner
    converts each block, so every repr-written value comes back bit for
    bit and blank rows are skipped.  The values fill one float64 array
    of the header's completed count, capped by what the bytes left in
    the file can hold; beyond it the reader holds about two blocks.  A
    read of 10^6 values (11.2 MB, 2 shared vCPUs of an Intel Xeon) takes
    about 0.22 s (BENCH_25.json).

    Raises EngineError on a field or row that does not parse, a row that
    holds whitespace, and on values that break a SampleBatch invariant:
    a value that is not finite or a value count other than the header's
    completed replications.  Per-replication node counts are not stored.
    """
    meta = {}
    with open(path, "rb") as handle:
        if handle.readline().strip() != f"# {_CSV_MAGIC}".encode():
            raise EngineError(f"{path} is not a batch CSV")
        line = handle.readline().decode().rstrip("\n")
        while line.startswith("# "):
            key, _, text = line[2:].partition("=")
            meta[key] = text
            line = handle.readline().decode().rstrip("\n")
        if line != "value":
            raise EngineError("batch CSV missing the value column")
        try:
            depth = None if meta["depth"] == "exact" else int(meta["depth"])
            level_mean = np.array([float(x) for x in meta["level_mean"].split(",")
                                   if meta["level_mean"]])
            level_max = np.array([int(x) for x in meta["level_max"].split(",")
                                  if meta["level_max"]], dtype=np.int64)
            fields = dict(
                kind=meta["kind"],
                depth=depth,
                seed=int(meta["seed"]),
                stream_count=int(meta["stream_count"]),
                budget=int(meta["budget"]),
                total_nodes=int(meta["total_nodes"]),
                truncated_replications=int(meta["truncated_replications"]),
                level_mean=level_mean,
                level_max=level_max,
                model_fingerprint=meta["model_fingerprint"],
            )
        except KeyError as exc:
            raise EngineError(f"batch CSV missing metadata field {exc}") from None
        except (ValueError, OverflowError) as exc:  # past int64: level_max
            raise EngineError(f"batch CSV metadata does not parse: {exc}") from None
        count = fields["stream_count"] - fields["truncated_replications"]
        # a value row takes two bytes at least: a digit and its newline
        room = (os.fstat(handle.fileno()).st_size - handle.tell() + 1) // 2
        values = np.empty(max(0, min(count, room)))
        filled, rows = 0, b""
        for block in iter(lambda: handle.read(_READ_BLOCK_BYTES), b""):
            rows += block
            cut = rows.rfind(b"\n") + 1
            filled = _scan_value_rows(rows[:cut], values, filled)
            rows = rows[cut:]
        filled = _scan_value_rows(rows, values, filled)  # no final newline
    return SampleBatch(values=values[:filled], **fields)


def _scan_value_rows(rows, values, filled):
    """Scan whole value rows into ``values[filled:]``; return the new fill."""
    if not rows.lstrip(b"\n"):  # blank rows alone would scan as one -1
        return filled
    try:
        # the scanner splits on any whitespace, not only on newlines
        if any(space in rows for space in _ROW_SPACES):
            raise ValueError("a value row holds whitespace")
        with warnings.catch_warnings():
            # numpy 1.x warns and returns a prefix where 2.x raises
            warnings.simplefilter("error", DeprecationWarning)
            scanned = np.fromstring(rows, sep="\n")
    except (ValueError, DeprecationWarning) as exc:
        raise EngineError(_bad_value_row(rows, exc)) from None
    if scanned.size > values.size - filled:
        raise EngineError("batch values outnumber the completed replications")
    values[filled:filled + scanned.size] = scanned
    return filled + scanned.size


def _bad_value_row(rows, exc):
    """Message naming the first row of a refused block that is not a number."""
    for line in filter(None, rows.split(b"\n")):
        try:
            float(line)
        except ValueError:
            break
    else:
        return f"batch CSV value rows do not parse: {exc}"
    text = line.decode(errors="backslashreplace")
    return f"batch CSV value row {text!r} is not a number"


def summary(batch):
    """JSON-ready summary: moments, quantiles, and node-count statistics."""
    values = batch.values
    mean, std_error = mean_se(values)
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    qs = (0.5, 0.9, 0.99, 0.999)
    quantiles = dict(zip(map(str, qs), np.quantile(values, qs).tolist()))
    nodes = {
        "total": batch.total_nodes,
        "mean_per_replication": batch.total_nodes / batch.stream_count,
    }
    if batch.node_counts is not None:
        nodes["max_per_replication"] = int(batch.node_counts.max())
    return {
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
        "value_std_error": std_error,
        "value_min": float(values.min()),
        "value_max": float(values.max()),
        "quantiles": quantiles,
        "nodes": nodes,
        "levels": {
            "mean": [float(x) for x in batch.level_mean],
            "max": [int(x) for x in batch.level_max],
        },
    }
