"""Benchmark for branchtail: run one workload through the CLI in-process.

Usage (from the repository root):

    python3 bench/run.py --workload simulate-exact --seed 1 --seconds 20 --trace 0

Set-up writes the workload's configs and inputs from ``--seed``; it is
repeated several times, before and after the timed phase so that the
repetitions span the run's drift in machine speed, and ``setup_s`` is the
median, each repetition timing a fresh-interpreter import of the package
plus the workload's own set-up.  The timed phase then repeats rounds of
``branchtail.cli.main`` calls (one process, ``workers=1``) until
``--seconds`` are used up, and the outputs of the last round are checked
for correctness.

With ``--trace 0`` the end-to-end metrics are medians over rounds; the
gated time, ``wall_ref``, divides each round's wall time by the time of a
fixed reference computation sampled during that round (``SpeedProbe``).
With ``--trace 1`` untraced and traced rounds alternate; the traced ones
give the per-layer metrics and their ratio gives ``trace_overhead``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
print every metric with its unit and the provenance block, which is also
written, with the spans of a traced run, under ``.bench_out/``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

# One BLAS thread, set before numpy loads: the runs are single-process with
# workers=1, and on a small shared machine a second BLAS thread would time
# the neighbours' load rather than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from layers import HOOKS, per_layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_BEFORE, SETUP_AFTER = 3, 2  # set-up repetitions around the rounds
PROBE_INTERVAL = 0.1  # seconds between speed samples, about 4% of the time
IMPORT_PROBE = ("import time; t = time.perf_counter(); import branchtail.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds():
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=env, capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def run_round(cli, workload, tracer=None):
    """One round of CLI calls.

    Returns its wall seconds without the speed samples, the samples and
    the exit codes.
    """
    codes = []
    gc.collect()
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        for _, argv in workload.calls():
            if tracer is not None:
                tracer.run_id += 1
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            except Exception as err:  # a traceback fails the call, not the run
                code = f"{type(err).__name__}: {err}"
            codes.append(code)
        wall = time.perf_counter() - t0 - probe.paused
    return wall, probe.samples, codes


def output_digest(workload):
    """Hash of every batch.csv the round wrote, to compare rounds."""
    digest = hashlib.sha256()
    for tag, _ in workload.calls():
        path = os.path.join(workload.out(tag), "batch.csv")
        if os.path.exists(path):
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(args, workload):
    import scipy
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "l3_cache": None,
        "python": platform.python_version(),
        "source_sha256": source_sha256(),
        "git_commit": None,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
    }
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as handle:
            info["l3_cache"] = handle.read().strip()
    except OSError:
        pass
    info["numpy"] = np.__version__
    info["scipy"] = scipy.__version__
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            info["git_commit"] = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


def source_sha256():
    """Digest of the package sources, the commit id of a checkout without git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "branchtail")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "branchtail", "cli.py")):
        print(f"no branchtail sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import branchtail
    import branchtail.cli as cli

    if os.path.dirname(os.path.abspath(branchtail.__file__)) != os.path.join(
            SRC, "branchtail"):
        print(f"imported branchtail from {branchtail.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, cli, WORKLOADS[args.workload](workdir, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def reference_seconds():
    """Wall time of one unit of a fixed reference computation, about 4 ms.

    It mixes what the program spends its time on -- a Python loop of numpy
    calls on length-1 arrays with a fresh Philox stream each, then a vector
    draw, repeat and sort -- but runs no branchtail code, so no change to
    the program can move it.
    """
    t0 = time.perf_counter()
    for i in range(100):
        rng = np.random.Generator(np.random.Philox(key=[1, i]))
        counts = (rng.random(1) < 2.0).astype(np.int64)
        np.repeat(np.ones(1), counts) * rng.lognormal(0.0, 1.0, 1)
    x = np.random.default_rng(1).lognormal(0.0, 1.0, 20_000)
    np.repeat(x, 2)
    np.sort(x)
    return time.perf_counter() - t0


def trimmed_mean(samples, cut=0.1):
    """Mean without the lowest and highest ``cut`` share of the samples.

    The mean follows the average slowdown a round suffers from bursts of
    load, as the round's own time does; trimming drops the rare sample
    that an interrupt hit.
    """
    ordered = sorted(samples)
    k = int(cut * len(ordered))
    return statistics.fmean(ordered[k:len(ordered) - k])


class SpeedProbe:
    """Samples the machine's speed while a round runs.

    On a shared machine the speed of the whole CPU drifts by 20% or more
    over tens of seconds.  A timer signal runs the reference computation
    every ``PROBE_INTERVAL`` seconds, between two bytecodes of the main
    thread, and records its time; one sample is also taken as the round
    starts, so every round has one.  ``paused`` is the time spent in
    samples inside the round, which the round's wall time leaves out.
    """

    def __init__(self):
        self.samples = [reference_seconds()]
        self.paused = 0.0

    def _on_timer(self, signum, frame):
        seconds = reference_seconds()
        self.samples.append(seconds)
        self.paused += seconds

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def timed_setup(workload):
    """Seconds of one set-up: a fresh-interpreter import plus the workload's."""
    imported = import_seconds()
    t0 = time.perf_counter()
    workload.setup()
    return imported + time.perf_counter() - t0


def measure(args, cli, workload):
    setups = [timed_setup(workload) for _ in range(SETUP_BEFORE)]

    # Rounds alternate untraced and traced when tracing.
    traced = args.trace == 1
    tracer = Tracer(HOOKS) if traced else None
    rounds, laps, checks = [], [], []
    first_digest = None
    deadline = time.perf_counter() + args.seconds
    while True:
        lap = time.perf_counter()
        use_tracer = traced and len(rounds) % 2 == 1
        if use_tracer:
            tracer.install()
            try:
                wall, samples, codes = run_round(cli, workload, tracer)
            finally:
                tracer.uninstall()
        else:
            wall, samples, codes = run_round(cli, workload)
        rounds.append({"traced": use_tracer, "wall_s": wall,
                       "reference_s": trimmed_mean(samples),
                       "samples_s": samples})
        tags = [tag for tag, _ in workload.calls()]
        checks += [(f"{tag} exit code in {workload.exit_codes}",
                    code in workload.exit_codes)
                   for tag, code in zip(tags, codes)]
        workload.last_codes = dict(zip(tags, codes))
        if first_digest is None:
            first_digest = output_digest(workload)
        laps.append(time.perf_counter() - lap)
        done = len(rounds) >= (2 if traced else 1)
        if done and time.perf_counter() + statistics.median(laps) > deadline:
            break

    if all(ok for _, ok in checks):
        try:
            checks += workload.check()
        except (OSError, ValueError, KeyError) as err:
            checks.append((f"outputs readable ({err})", False))
    else:
        checks.append(("outputs checked", False))
    if len(rounds) > 1:
        checks.append(("rounds give identical batches",
                       output_digest(workload) == first_digest))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not traced:
        setups += [timed_setup(workload) for _ in range(SETUP_AFTER)]

    plain = [r for r in rounds if not r["traced"]]
    wall_s = statistics.median(r["wall_s"] for r in plain)
    wall_ref = statistics.median(r["wall_s"] / r["reference_s"] for r in plain)
    extra = {}
    if traced:
        per_name, violations = tracer.summarize()
        checks.append(("no child span outlasts its parent", violations == 0))
        traced_ref = statistics.median(r["wall_s"] / r["reference_s"]
                                       for r in rounds if r["traced"])
        metrics = per_layer_metrics(per_name, tracer.counters,
                                    len(rounds) - len(plain),
                                    traced_ref / wall_ref - 1.0)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_ref": {"value": wall_ref, "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        extra = {
            "wall_s": (wall_s, "s"),
            "reps_per_s": (workload.reps_per_round / wall_s, "1/s"),
            "reference_s": (statistics.median(r["reference_s"] for r in plain),
                            "s"),
        }
        try:
            extra.update(workload.extra_metrics(wall_s))
        except (OSError, ValueError, KeyError):
            pass
        extra = {name: {"value": value, "unit": unit}
                 for name, (value, unit) in extra.items()}

    failed = [name for name, ok in checks if not ok]
    extra["checks_failed"] = {"value": len(failed), "unit": "count"}
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = dict(result, workload_only=extra, failed_checks=failed,
                  rounds=rounds, setup_s=setups,
                  provenance=provenance(args, workload))
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    if traced:
        tracer.save(stem + "-spans.npz")

    for name, metric in {**metrics, **extra}.items():
        print(f"{workload.name:15s} {name:36s} {metric['value']:.6g} "
              f"{metric['unit']}")
    for name in failed:
        print(f"{workload.name:15s} FAILED CHECK: {name}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
