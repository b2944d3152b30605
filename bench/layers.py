"""Per-layer metrics derived from a traced run, with their counter hooks.

Every metric is a per-round figure: totals over the traced rounds are
divided by their number (maxima are not).  A layer a workload never
enters reports 0.
"""

import math
import os

# Counter hooks, keyed by span name.  Each receives the tracer's counter
# dict and the call's (args, kwargs, result); counts are taken where the
# work happens, at the same boundary as the span.


def _add(counters, key, amount):
    counters[key] = counters.get(key, 0) + amount


def _batch(prefix):
    def hook(counters, args, kwargs, batch):
        _add(counters, prefix + ".reps", batch.stream_count)
        _add(counters, prefix + ".nodes", batch.total_nodes)
        _add(counters, "engine.abandoned", batch.truncated_replications)
        width = int(batch.level_max.max()) if batch.level_max.size else 1
        counters["engine.max_width"] = max(counters.get("engine.max_width", 0),
                                           width)
    return hook


def _generation_weights(counters, args, kwargs, result):
    pi, nodes = result
    _add(counters, "generation_weights.nodes", nodes)
    if pi is None:
        _add(counters, "engine.abandoned", 1)


def _draw_offspring(counters, args, kwargs, result):
    _add(counters, "draw_offspring.nodes", result[0].size)


def _read_csv(counters, args, kwargs, result):
    _add(counters, "engine.csv_bytes", os.path.getsize(args[0]))


def _flag(key, attr):
    def hook(counters, args, kwargs, result):
        _add(counters, key, int(bool(getattr(result, attr))))
    return hook


HOOKS = {
    "engine.run_batch": _batch("run_batch"),
    "engine.iterate_from": _batch("iterate_from"),
    "engine.generation_weights": _generation_weights,
    "engine.read_batch_csv": _read_csv,
    "model.draw_offspring": _draw_offspring,
    "tails.tail_report": _flag("tails.drift_flag", "drift_flag"),
    "constants.tail_constant_mc": _flag("constants.mc_suspect", "suspect"),
    "renewal.verify_product_measure": _flag("renewal.heavy_flags",
                                            "heavy_flag"),
}


class _Stats:
    """Per-round view of a tracer summary and its counters."""

    def __init__(self, per_name, counters, rounds):
        self.per_name = per_name
        self.counters = counters
        self.rounds = rounds

    def total(self, name):
        return self.per_name.get(name, {}).get("total_s", 0.0) / self.rounds

    def own(self, name):
        return self.per_name.get(name, {}).get("self_s", 0.0) / self.rounds

    def calls(self, name):
        return self.per_name.get(name, {}).get("calls", 0) / self.rounds

    def count(self, key):
        return self.counters.get(key, 0) / self.rounds

    def layer_self(self, layer):
        return sum(v["self_s"] for k, v in self.per_name.items()
                   if k.startswith(layer + ".")) / self.rounds

    def engine_nodes(self):
        return (self.count("run_batch.nodes") + self.count("iterate_from.nodes")
                + self.count("generation_weights.nodes"))

    def reps(self):
        return self.count("run_batch.reps") + self.count("iterate_from.reps")


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


# (name, unit, better, value from _Stats); bench/README.md maps each to
# the end-to-end metric it should move
PER_LAYER = [
    ("model.draw_offspring_s", "s", "lower",
     lambda s: s.total("model.draw_offspring")),
    ("model.draw_q_s", "s", "lower",
     lambda s: s.total("model.draw_q")),
    ("model.draw_mark_s", "s", "lower",
     lambda s: s.total("model.draw_mark")),
    ("model.draw_offspring_calls", "count", "lower",
     lambda s: s.calls("model.draw_offspring")),
    ("model.draw_q_calls", "count", "lower",
     lambda s: s.calls("model.draw_q")),
    ("model.nodes_per_draw", "nodes", "higher",
     lambda s: _ratio(s.count("draw_offspring.nodes"),
                      s.calls("model.draw_offspring"))),
    ("engine.run_batch_s", "s", "lower",
     lambda s: s.total("engine.run_batch")),
    ("engine.us_per_rep", "us", "lower",
     lambda s: _ratio(s.total("engine.run_batch"), s.count("run_batch.reps"),
                      1e6)),
    ("engine.self_s", "s", "lower",
     lambda s: s.own("engine.run_batch")),
    ("engine.ns_per_node", "ns", "lower",
     lambda s: _ratio(s.total("engine.run_batch"),
                      s.count("run_batch.nodes"), 1e9)),
    ("engine.max_width", "nodes", "lower",
     lambda s: s.counters.get("engine.max_width", 0)),
    ("engine.nodes", "nodes", "lower",
     lambda s: s.engine_nodes()),
    ("engine.abandoned", "count", "lower",
     lambda s: s.count("engine.abandoned")),
    ("engine.abandoned_share", "ratio", "lower",
     lambda s: _ratio(s.count("engine.abandoned"),
                      s.reps() + s.calls("engine.generation_weights"))),
    ("engine.write_batch_csv_s", "s", "lower",
     lambda s: s.total("engine.write_batch_csv")),
    ("engine.summary_s", "s", "lower",
     lambda s: s.total("engine.summary")),
    ("engine.read_batch_csv_s", "s", "lower",
     lambda s: s.total("engine.read_batch_csv")),
    ("engine.csv_bytes", "bytes", "lower",
     lambda s: s.count("engine.csv_bytes")),
    ("engine.iterate_from_s", "s", "lower",
     lambda s: s.total("engine.iterate_from")),
    ("tails.tail_report_s", "s", "lower",
     lambda s: s.total("tails.tail_report")),
    ("tails.hill_sweep_s", "s", "lower",
     lambda s: s.total("tails.hill_sweep")),
    ("tails.plateau_constant_s", "s", "lower",
     lambda s: s.total("tails.plateau_constant")),
    ("tails.survival_points_s", "s", "lower",
     lambda s: s.total("tails.survival_points")),
    ("tails.hill_estimator_calls", "count", "lower",
     lambda s: s.calls("tails.hill_estimator")),
    ("tails.drift_flag", "count", "lower",
     lambda s: s.count("tails.drift_flag")),
    ("constants.tail_constant_report_s", "s", "lower",
     lambda s: s.total("constants.tail_constant_report")),
    ("constants.tail_constant_mc_s", "s", "lower",
     lambda s: s.total("constants.tail_constant_mc")),
    ("constants.mc_suspect", "count", "lower",
     lambda s: s.count("constants.mc_suspect")),
    ("renewal.verify_product_measure_s", "s", "lower",
     lambda s: s.total("renewal.verify_product_measure")),
    ("renewal.generation_weights_s", "s", "lower",
     lambda s: s.total("engine.generation_weights")),
    ("renewal.generation_weights_calls", "count", "lower",
     lambda s: s.calls("engine.generation_weights")),
    ("renewal.heavy_flags", "count", "lower",
     lambda s: s.count("renewal.heavy_flags")),
    ("moments.generation_moment_bound_s", "s", "lower",
     lambda s: s.total("moments.generation_moment_bound")),
    ("moments.jackknife_mean_se_calls", "count", "lower",
     lambda s: s.calls("moments.jackknife_mean_se")),
    ("cramer.solve_alpha_s", "s", "lower",
     lambda s: s.total("cramer.solve_alpha")),
    ("cramer.check_conditions_s", "s", "lower",
     lambda s: s.total("cramer.check_conditions")),
    ("model.sum_moment_s", "s", "lower",
     lambda s: s.total("model.sum_moment")),
    ("cli.self_s", "s", "lower",
     lambda s: s.layer_self("cli")),
]

# traced wall_ref / untraced wall_ref - 1, from the rounds of one run
TRACE_OVERHEAD = ("trace_overhead", "ratio", "lower")


def per_layer_metrics(per_name, counters, rounds, overhead):
    """Every per-layer metric as {name: {"value", "unit"}}."""
    stats = _Stats(per_name, counters, rounds)
    out = {}
    for name, unit, _, value in PER_LAYER:
        number = float(value(stats))
        if not math.isfinite(number):
            raise ValueError(f"per-layer metric {name} is {number}")
        out[name] = {"value": number, "unit": unit}
    out[TRACE_OVERHEAD[0]] = {"value": float(overhead),
                              "unit": TRACE_OVERHEAD[1]}
    return out
