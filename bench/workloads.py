"""The four benchmark workloads: inputs, CLI calls and output checks.

Each workload writes its configs (and any input file) in ``setup``, names
the CLI calls of one timed round in ``calls``, and checks the outputs of
the last round in ``check``.  Model parameters are built from exact
expressions (``math.log(1.3)``, not typed decimals): the solver's
critical-pair detection needs E[N] E[C] = 1 to the last bits.

Statistical checks use thresholds fixed in advance from the law being
checked, wide enough (6 to 8 standard errors, or a KS level of 1e-6)
that a correct program fails them with negligible probability at any
seed.
"""

import json
import math
import os

import numpy as np
import yaml

from reference import perpetuity, tail_index

LN2 = math.log(2.0)
LN13 = math.log(1.3)
KS_LEVEL = 1e-6
Z_WIDE = 6.0    # light-tailed or near-normal statistics
Z_HEAVY = 8.0   # sample mean of the heavy-tailed martingale limit


def model_a():
    """Counts {1, 2}; E[sum C] = E[sum C^2] = 1, the critical pair {1, 2}."""
    return {
        "n": {"family": "two-point", "values": {1: 0.7, 2: 0.3}},
        "c": {"family": "lognormal", "mu": -1.5 * LN13, "sigma2": LN13},
        "q": {"family": "deterministic", "value": 1.0},
    }


def model_b(c_scale=1.0):
    """Counts {0, 1}; E[N] E[C] = c_scale, alpha = 1 at c_scale 1."""
    spec = {
        "n": {"family": "two-point", "values": {0: 0.5, 1: 0.5}},
        "c": {"family": "lognormal", "mu": LN2 - 0.5, "sigma2": 1.0},
        "q": {"family": "deterministic", "value": 1.0},
    }
    if c_scale != 1.0:
        spec["c_scale"] = c_scale
    return spec


def write_config(path, config):
    """Write a YAML config and confirm every float survives the round trip."""
    with open(path, "w") as handle:
        yaml.safe_dump(config, handle)
    with open(path) as handle:
        if yaml.safe_load(handle) != config:
            raise RuntimeError(f"{path} does not round-trip exactly")
    return path


def read_values(path):
    """Values column of a batch CSV, parsed without branchtail."""
    with open(path) as handle:
        lines = handle.read().split("\n")
    start = lines.index("value") + 1
    return np.array([float(x) for x in lines[start:] if x], dtype=float)


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(a)
    b = np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def ks_threshold(n, m, level=KS_LEVEL):
    """Asymptotic two-sample KS critical value; conservative with atoms."""
    return math.sqrt(-math.log(level / 2.0) / 2.0) * math.sqrt((n + m) / (n * m))


class Workload:
    name = ""
    why = ""
    exit_codes = (0,)  # the CLI exit codes that count as a completed call

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = seed

    def out(self, tag):
        return os.path.join(self.workdir, tag)

    def argv(self, config, tag, *command):
        return ["--config", config, "--seed", str(self.seed),
                "--workers", "1", "--output-dir", self.out(tag), *command]

    def sizes(self):
        return {}

    def extra_metrics(self, wall_s):
        """Metrics that apply to this workload only, for the printed table."""
        return {}


class SimulateExact(Workload):
    name = "simulate-exact"
    why = ("about 2 nodes per replication, so per-replication overhead "
           "dominates: where frontier batching must show")
    REPS = 20_000
    REFERENCE_REPS = 200_000
    KINDS = ("linear", "max", "max-plus")

    def setup(self):
        self.config = write_config(self.out("model_b.yaml"),
                                   {"model": model_b()})
        rng = np.random.default_rng([self.seed, 1])
        self.ref_linear, self.ref_max, _ = perpetuity(rng, self.REFERENCE_REPS)

    def calls(self):
        return [(kind, self.argv(self.config, kind, "--kind", kind,
                                 "--depth", "exact", "--reps", str(self.REPS),
                                 "simulate"))
                for kind in self.KINDS]

    @property
    def reps_per_round(self):
        return self.REPS * len(self.KINDS)

    def sizes(self):
        return {"reps_per_kind": self.REPS, "kinds": list(self.KINDS),
                "reference_reps": self.REFERENCE_REPS}

    def _summary(self, kind):
        return read_json(os.path.join(self.out(kind), "summary.json"))

    def check(self):
        values = {k: read_values(os.path.join(self.out(k), "batch.csv"))
                  for k in self.KINDS}
        limit = ks_threshold(self.REPS, self.REFERENCE_REPS)
        checks = [
            ("linear KS vs reference",
             ks_distance(values["linear"], self.ref_linear) <= limit),
            ("max KS vs reference",
             ks_distance(values["max"], self.ref_max) <= limit),
            ("max <= linear per replication",
             values["max"].size == values["linear"].size == self.REPS
             and bool(np.all(values["max"] <= values["linear"]))),
            ("max-plus finite and >= 1",
             values["max-plus"].size == self.REPS
             and bool(np.all(np.isfinite(values["max-plus"])))
             and bool(np.all(values["max-plus"] >= 1.0))),
        ]
        for kind in self.KINDS:
            checks.append((f"{kind} nothing abandoned",
                           self._summary(kind)["truncated_replications"] == 0))
        return checks

    def extra_metrics(self, wall_s):
        nodes = sum(self._summary(k)["nodes"]["total"] for k in self.KINDS)
        truncated = sum(self._summary(k)["truncated_replications"]
                        for k in self.KINDS)
        return {"nodes_per_s": (nodes / wall_s, "1/s"),
                "abandoned_share": (truncated / self.reps_per_round, "ratio")}


class SimulateWide(Workload):
    name = "simulate-wide"
    why = ("about 11,000 nodes per replication: per-node draws dominate; "
           "the bypass case for batching, where draw kernels show")
    REPS = 2_000
    DEPTH = 30
    KIND = "homogeneous-martingale"

    def setup(self):
        self.config = write_config(self.out("model_a.yaml"),
                                   {"model": model_a()})

    def calls(self):
        return [("wide", self.argv(self.config, "wide", "--kind", self.KIND,
                                   "--depth", str(self.DEPTH),
                                   "--reps", str(self.REPS), "simulate"))]

    reps_per_round = REPS

    def sizes(self):
        return {"reps": self.REPS, "depth": self.DEPTH, "kind": self.KIND}

    def _summary(self):
        return read_json(os.path.join(self.out("wide"), "summary.json"))

    def check(self):
        summary = self._summary()
        values = read_values(os.path.join(self.out("wide"), "batch.csv"))
        n = values.size
        # W_n = sum of generation-n path weights; E W_n = 1 and
        # E W_n^2 = 1 + n (E[(sum C)^2] - 1) because E[sum C^2] = 1.
        p2 = 0.3
        mean_c = math.exp(-LN13)
        sum_sq = 1.0 + 2.0 * p2 * mean_c ** 2
        w_var = self.DEPTH * (sum_sq - 1.0)
        w_ok = abs(values.mean() - 1.0) <= Z_HEAVY * math.sqrt(w_var / n)
        # Galton-Watson widths: E Z_k = m^k, Var Z_k = s2 m^(k-1)(m^k-1)/(m-1)
        m, s2 = 1.3, 0.7 * 0.3
        widths = summary["levels"]["mean"]
        width_ok = len(widths) == self.DEPTH + 1
        for k, z in enumerate(widths):
            var = s2 * m ** (k - 1) * (m ** k - 1.0) / (m - 1.0) if k else 0.0
            width_ok &= abs(z - m ** k) <= Z_WIDE * math.sqrt(var / n) + 1e-9
        return [
            ("nothing abandoned", summary["truncated_replications"] == 0),
            ("all replications reported", n == self.REPS),
            ("mean of W_30 is 1", bool(w_ok)),
            ("mean generation widths are 1.3^k", bool(width_ok)),
        ]

    def extra_metrics(self, wall_s):
        summary = self._summary()
        return {"nodes_per_s": (summary["nodes"]["total"] / wall_s, "1/s"),
                "abandoned_share": (summary["truncated_replications"]
                                    / self.REPS, "ratio")}


class Analyze(Workload):
    name = "analyze"
    why = ("1e6 batch values at non-integer alpha: CSV parsing, tails and "
           "constants only, no sampler; where sort-once and CSV I/O show")
    VALUES = 1_000_000
    BLOCK = 100_000
    C_SCALE = 0.9

    def setup(self):
        # imported here: this module loads before run.py has found src/
        from branchtail.model import make_model
        spec = model_b(self.C_SCALE)
        self.alpha = tail_index(self.C_SCALE)
        self.config = write_config(self.out("model_b09.yaml"), {
            "model": spec,
            "tails": {"alpha": self.alpha},
        })
        rng = np.random.default_rng([self.seed, 2])
        # in blocks, so set-up adds little to the process's peak memory
        blocks = [perpetuity(rng, self.BLOCK, self.C_SCALE)
                  for _ in range(self.VALUES // self.BLOCK)]
        values = np.concatenate([b[0] for b in blocks])
        nodes = np.concatenate([b[2] for b in blocks])
        self.batch = self.out("batch.csv")
        write_batch_csv(self.batch, values, nodes, self.seed,
                        make_model(spec).fingerprint())

    def calls(self):
        return [("analyze", self.argv(self.config, "analyze", "analyze",
                                      "--batch", self.batch))]

    reps_per_round = VALUES

    def sizes(self):
        return {"values": self.VALUES, "c_scale": self.C_SCALE}

    def check(self):
        tails = read_json(os.path.join(self.out("analyze"), "tail_report.json"))
        const = read_json(os.path.join(self.out("analyze"),
                                       "constant_report.json"))
        checks = [("constant report available", bool(const["available"]))]
        if not const["available"]:
            return checks
        mc, mc_se = const["mc_general"], const["mc_std_error"]
        plateau, plateau_se = tails["plateau_H"], tails["plateau_std_error"]
        checks += [
            ("solved alpha is the exact root",
             abs(const["alpha"] - self.alpha) <= 1e-9),
            ("Hill alpha agrees with the root",
             abs(tails["alpha_hat"] - self.alpha)
             <= Z_WIDE * tails["alpha_std_error"]),
            ("MC H agrees with plateau H",
             abs(mc - plateau) <= Z_WIDE * math.hypot(mc_se, plateau_se)),
            # (Q + sum x)^a - sum x^a >= Q^a for a >= 1, sample by sample
            ("linear lower bound <= MC H",
             const["lower_bound"] <= mc * (1.0 + 1e-12)),
        ]
        return checks

    def extra_metrics(self, wall_s):
        return {"values_per_s": (self.VALUES / wall_s, "1/s")}


class Verify(Workload):
    name = "verify"
    why = ("many mid-size finite-depth batches plus the per-replication loop "
           "in renewal; the only user of renewal, moments and iterate_from")
    # verify exits 3 when one of its own verdicts fails.  Those are 3-sigma
    # tests, 22 of them, so a correct program fails one at a few percent of
    # seeds; exit 3 is an answer, and the checks below judge it.
    exit_codes = (0, 3)
    # The default verify section, pinned so the workload stays fixed.
    VERIFY = {
        "renewal_n": [1, 2, 3],
        "renewal_reps": 20_000,
        "moment_depths": [0, 1, 2, 3, 4, 5],
        "moment_betas": [0.5, 1.0, 1.5, 2.0],
        "moment_reps": 20_000,
        "iterate_depth": 12,
        "iterate_starts": [0.0, 100.0],
        "iterate_reps": 20_000,
    }
    CHECKED, SKIPPED = 22, 12

    def setup(self):
        self.config = write_config(self.out("model_b.yaml"), {
            "model": model_b(), "verify": dict(self.VERIFY)})

    def calls(self):
        return [("verify", self.argv(self.config, "verify", "verify"))]

    @property
    def reps_per_round(self):
        v = self.VERIFY
        return (len(v["renewal_n"]) * 3 * v["renewal_reps"]
                + len(v["moment_depths"]) * v["moment_reps"]
                + len(v["iterate_starts"]) * v["iterate_reps"])

    def sizes(self):
        return {"verify": self.VERIFY, "tree_reps": self.reps_per_round}

    def check(self):
        report = read_json(os.path.join(self.out("verify"),
                                        "verification.json"))
        factor = [c for c in report["checks"]
                  if c["check"] == "measure-factorization"]
        bounds = [c for c in report["checks"]
                  if c["check"] == "generation-moment-bound"
                  and c["status"] == "checked"]
        (iteration,) = [c for c in report["checks"]
                        if c["check"] == "iteration-convergence"]
        verdicts = [c.get("holds", c.get("agree")) for c in report["checks"]]
        verdicts = [v for v in verdicts if v is not None]

        def gap(c):
            return abs(c["tree_side"] - c["convolution_side"])

        def se(c):
            return math.hypot(c["tree_side_se"], c["convolution_side_se"])

        # The program's own rules, recomputed from the numbers it reports.
        rules_kept = (
            all(c["agree"] == (gap(c) <= 3.0 * se(c)) for c in factor)
            and all(c["holds"] == (c["estimate"]
                                   <= c["bound"] + 3.0 * c["std_error"])
                    for c in bounds)
            and iteration["holds"] == (iteration["ks_distance"]
                                       <= iteration["threshold"]))
        reps = self.VERIFY["iterate_reps"]
        return [
            ("22 checked", report["checked"] == self.CHECKED),
            ("12 skipped", report["skipped"] == self.SKIPPED),
            ("passed is the conjunction of the verdicts",
             report["passed"] is all(verdicts)),
            ("exit code 0 exactly when passed",
             (self.last_codes["verify"] == 0) is report["passed"]),
            ("every verdict follows its stated rule", bool(rules_kept)),
            # Tree-side means of lognormal path products are skewed, so
            # their thresholds are those of a heavy-tailed mean.
            ("measure factorization within 8 stated errors",
             len(factor) == 9
             and all(gap(c) <= Z_HEAVY * se(c) for c in factor)),
            ("generation moments within 8 stated errors of their bounds",
             len(bounds) == 12
             and all(c["estimate"] <= c["bound"] + Z_HEAVY * c["std_error"]
                     for c in bounds)),
            ("iteration KS below its critical value at level 1e-6",
             iteration["ks_distance"] <= ks_threshold(reps, reps)),
        ]


WORKLOADS = {w.name: w for w in (SimulateExact, SimulateWide, Analyze, Verify)}


def write_batch_csv(path, values, nodes, seed, fingerprint):
    """Write values as a ``branchtail-batch v1`` file of exact linear draws.

    Level statistics follow from the chain lengths: generation k holds
    one node in every chain longer than k, none otherwise.
    """
    depth_top = int(nodes.max())
    alive = np.bincount(nodes, minlength=depth_top + 1)[::-1].cumsum()[::-1]
    level_mean = alive[1:] / values.size
    header = {
        "kind": "linear",
        "depth": "exact",
        "seed": str(seed),
        "stream_count": str(values.size),
        "budget": str(10 ** 7),
        "total_nodes": str(int(nodes.sum())),
        "truncated_replications": "0",
        "model_fingerprint": fingerprint,
        "level_mean": ",".join(repr(x) for x in level_mean.tolist()),
        "level_max": ",".join("1" for _ in range(depth_top)),
    }
    lines = ["# branchtail-batch v1"]
    lines += [f"# {key}={text}" for key, text in header.items()]
    lines.append("value")
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
        for start in range(0, values.size, 100_000):
            block = values[start:start + 100_000].tolist()
            handle.write("\n".join(map(repr, block)) + "\n")
