"""Outside-in tracer for branchtail: spans around calls into its layers.

The tracer replaces every public function of the package's layer
modules at each place a caller looks it up (the module namespaces that
define or import it), plus the three draw methods of ``VectorModel``.
Each replacement records one span -- name, start, end, parent span and
run id -- into flat arrays, and can feed a counter hook with the call's
arguments and result.  Nothing inside the package changes: spans start
and end at the layer boundaries, so time a layer spends in its own
private helpers (stream setup inside the engine, say) stays in that
layer's self time.

``install`` patches, ``uninstall`` restores the originals exactly, so
untraced and traced rounds can alternate in one process.
"""

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

PACKAGE = "branchtail"
LAYERS = ("cli", "cramer", "model", "engine", "tails", "constants", "moments",
          "renewal")
DRAWS = ("draw_offspring", "draw_q", "draw_mark")  # VectorModel methods


class Tracer:
    """Span recorder for one process; create, install, run, uninstall."""

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.names = []
        self._codes = {}
        self.span_id = array("q")
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("i")
        self.counters = {}
        self.run_id = 0
        self._stack = [-1]
        self._next = 0
        self._patches = []

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        owners = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = owners.get(value.__module__)
                if layer is None:
                    continue
                self._patch(module, attr, f"{layer}.{attr}")
        for attr in DRAWS:
            self._patch(modules["model"].VectorModel, attr, f"model.{attr}")

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches = []

    def _patch(self, target, attr, span_name):
        original = getattr(target, attr) if inspect.ismodule(target) else (
            vars(target)[attr])
        self._patches.append((target, attr, original))
        setattr(target, attr, self._wrap(original, span_name))

    def _wrap(self, fn, span_name):
        code = self._codes.setdefault(span_name, len(self.names))
        if code == len(self.names):
            self.names.append(span_name)
        hook = self.hooks.get(span_name)
        stack = self._stack
        clock = time.perf_counter_ns
        ids, names, starts, ends = self.span_id, self.name, self.start, self.end
        parents, runs = self.parent, self.run
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ids.append(sid)
                names.append(code)
                starts.append(t0)
                ends.append(t1)
                parents.append(parent)
                runs.append(tracer.run_id)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def spans(self):
        """Spans as numpy arrays ordered by span id (call order)."""
        order = np.argsort(np.frombuffer(self.span_id, dtype=np.int64),
                           kind="stable")
        out = {
            "span_id": np.frombuffer(self.span_id, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run": np.frombuffer(self.run, dtype=np.int32),
        }
        return {key: value[order] for key, value in out.items()}

    def summarize(self):
        """Per span name: calls, total and self seconds; nesting check.

        Returns ``(per_name, violations)``.  Self time is a span's
        duration minus the durations of its direct children.  Spans nest
        strictly in one thread, so a child longer than its parent means
        the recorder is broken; ``violations`` counts such spans.
        """
        spans = self.spans()
        n = spans["span_id"].size
        if n and not np.array_equal(spans["span_id"], np.arange(n)):
            raise RuntimeError("span ids are not contiguous")
        duration = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
        parent = spans["parent"]
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child],
                              minlength=n)
        violations = int(np.count_nonzero(
            duration[child] > duration[parent[child]]))
        self_time = duration - covered
        width = len(self.names)
        calls = np.bincount(spans["name"], minlength=width)
        total = np.bincount(spans["name"], weights=duration, minlength=width)
        own = np.bincount(spans["name"], weights=self_time, minlength=width)
        per_name = {
            name: {"calls": int(calls[i]), "total_s": total[i] * 1e-9,
                   "self_s": own[i] * 1e-9}
            for i, name in enumerate(self.names)
        }
        return per_name, violations

    def save(self, path):
        """Write every span, with the name table, to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.spans())
