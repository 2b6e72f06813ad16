"""Benchmark of thermowork: three workloads, checked outputs, a traced run.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload catalytic-search --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller in one process: the next
operation starts when the previous one returns.  Inputs are drawn from
``--seed`` by the benchmark's own numpy generator; every output is checked
outside the timed region against an independent numpy reference.  Operations
run in blocks of fixed composition; the loop makes whole passes over all
blocks, at least one, until ``--seconds`` have passed, so every run times the
same mix of operations.

Times are corrected for the speed of the host.  On a shared host the same
work runs up to twice as slow for stretches of seconds to minutes, which no
statistic taken within one run removes.  While operations run, a timer
signal times a fixed probe (interpreter work and small numpy calls, the two
costs that dominate thermowork at desk dimensions) every 20 ms, and each
operation's time, less the probes', is scaled by PROBE_REF_S over the median
probe time around it: the result is the time on a host where the probe
takes PROBE_REF_S.  The info line before the result also gives the
uncorrected figures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` times one pass
untraced and one pass traced, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP threads are pinned before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
WARMUP_OPS = 10
WORKLOADS = tuple(workloads.OPERATIONS)
#: The probe's time at full speed on a 2-core Intel Xeon host at 2.1 GHz; it sets
#: the scale of every corrected time.
PROBE_REF_S = 1e-4
SAMPLE_INTERVAL_S = 0.02
#: Probe samples within this margin of an operation set its correction.
SAMPLE_WINDOW_S = 0.5
_PROBE_ARRAY = np.arange(8.0)


def probe_once() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1000):
        acc += i * i
    for _ in range(20):
        np.cumsum(np.sort(_PROBE_ARRAY))
    return time.perf_counter() - t0


def probe() -> float:
    """Least of three probe timings: drops interruptions, keeps the host's speed."""
    return min(probe_once() for _ in range(3))


class SpeedSampler:
    """Times the probe every SAMPLE_INTERVAL_S of wall time while active.

    A SIGALRM handler runs the probe between two bytecodes of whatever is
    running, so long operations are sampled while they run.  The handler's
    own time is accumulated in ``overhead`` so that callers can take it out
    of their timings.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.overhead = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.took.append(probe_once())
        self.at.append(t0)
        self.overhead += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def corrected(self, latencies: list, spans: list) -> list:
        """Scale each latency by PROBE_REF_S over the median probe time in a
        window around the operation's (start, end) span."""
        at, took = np.asarray(self.at), np.asarray(self.took)
        out = []
        for t, (t0, t1) in zip(latencies, spans):
            lo, hi = np.searchsorted(at, [t0 - SAMPLE_WINDOW_S, t1 + SAMPLE_WINDOW_S])
            if hi - lo < 3:  # too few samples in the window: widen it to the nearest
                mid = np.searchsorted(at, t0)
                lo, hi = max(0, mid - 3), min(len(at), mid + 3)
            out.append(t * PROBE_REF_S / float(np.median(took[lo:hi])))
        return out


def import_thermowork():
    """Import thermowork from this checkout's sources, never from elsewhere."""
    package = SRC / "thermowork"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: thermowork sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import thermowork
    from thermowork import core, divergences, feasibility, quantifiers, scenarios  # noqa: F401
    if Path(thermowork.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported thermowork from {thermowork.__file__}, not {package}")
    return thermowork


def build_ops(tw, workload: str, seed: int) -> tuple:
    return workloads.build(tw, workload, np.random.default_rng(seed))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def measure_setup(workload: str, seed: int) -> tuple:
    """Median wall time of a fresh interpreter that imports thermowork and
    builds the workload's inputs, then exits: (corrected, uncorrected).  The
    child times the probe before and after that work, on its own processor."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    raw, corrected = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, check=True, cwd=ROOT, env=child_env(), timeout=120,
                              capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        raw.append(elapsed)
        corrected.append(elapsed * PROBE_REF_S / float(proc.stdout))
    return statistics.median(corrected), statistics.median(raw)


def measure_imports() -> tuple:
    """Cumulative import times (ms) of thermowork and scipy.optimize from
    ``python -X importtime`` in fresh interpreters, medians of repeats."""
    tw_ms, opt_ms = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import thermowork"],
                              check=True, cwd=ROOT, env=child_env(), timeout=120,
                              capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        tw_ms.append(cumulative.get("thermowork", 0.0))
        opt_ms.append(cumulative.get("scipy.optimize", 0.0))
    return statistics.median(tw_ms), statistics.median(opt_ms)


@contextlib.contextmanager
def recording_warnings():
    """Record every RuntimeWarning raised in the block, repeats included."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        yield caught


class Runner:
    """Runs operations one at a time, timing each call and checking its output."""

    def __init__(self, blocks: list):
        self.blocks = blocks
        self.pass_len = sum(len(b) for b in blocks)
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def run_op(self, op, tracer=None, sampler=None) -> tuple:
        """Returns (seconds, undecided, (start, end))."""
        if tracer is not None:
            tracer.active = True
        skipped = sampler.overhead if sampler else 0.0
        t0 = time.perf_counter()
        # The traced pass counts the RuntimeWarnings of the call alone, not
        # those of the check, which calls the library again.
        with (recording_warnings() if tracer is not None else contextlib.nullcontext()) as caught:
            try:
                result = op.call()
                error = None
            except Exception as exc:  # an exception is a failed operation, not a crash
                error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
            tracer.op_seconds += t1 - t0
            tracer.numeric_warnings += sum(1 for w in caught
                                           if issubclass(w.category, RuntimeWarning))
        elapsed = t1 - t0 - ((sampler.overhead if sampler else 0.0) - skipped)
        undecided = False
        if error is None:
            try:
                error, undecided = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.label}: {error}")
        return elapsed, undecided, (t0, t1)

    def one_pass(self, tracer=None) -> tuple:
        """Every operation of every block once.  Returns the corrected and the
        uncorrected latencies and the undecided flags."""
        latencies, spans, undecided = [], [], []
        with SpeedSampler() as sampler:
            for block in self.blocks:
                for op in block:
                    if tracer is not None:
                        tracer.op = len(latencies)
                    t, u, span = self.run_op(op, tracer, sampler)
                    latencies.append(t)
                    undecided.append(u)
                    spans.append(span)
        return sampler.corrected(latencies, spans), latencies, undecided

    def warm_up(self) -> None:
        """Checked but untimed calls, so lazy set-up in the libraries is done."""
        for op in self.blocks[0][:WARMUP_OPS]:
            self.run_op(op)

    def timed(self, seconds: float) -> tuple:
        """Whole passes, at least one, until ``seconds`` of wall time have
        passed.  Returns the corrected and uncorrected latencies of all
        passes, the undecided flags of the first pass and the pass count."""
        start = time.perf_counter()
        corrected, raw, undecided, passes = [], [], None, 0
        while passes == 0 or time.perf_counter() - start < seconds:
            c, r, flags = self.one_pass()
            corrected += c
            raw += r
            undecided = undecided or flags
            passes += 1
        return corrected, raw, undecided, passes


def facts(workload: str, seed: int, tw) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "thermowork").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"  # a checkout without .git identifies its code by source_sha256
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    import scipy
    return {
        "workload": workload, "seed": seed, "commit": commit,
        "source_sha256": src_hash.hexdigest()[:16],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "thermowork": tw.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def latency_metrics(latencies: list) -> tuple:
    lat_ms = [t * 1e3 for t in latencies]
    return (len(latencies) / sum(latencies), statistics.median(lat_ms),
            statistics.quantiles(lat_ms, n=10)[8])


def end_to_end(workload: str, seed: int, seconds: float, tw) -> tuple:
    setup_s, setup_raw_s = measure_setup(workload, seed)
    blocks, about = build_ops(tw, workload, seed)
    runner = Runner(blocks)
    runner.warm_up()
    latencies, raw, undecided, passes = runner.timed(seconds)
    ops_per_s, p50, p90 = latency_metrics(latencies)
    raw_ops, raw_p50, raw_p90 = latency_metrics(raw)
    info = {
        "passes": passes, "latency_samples": len(latencies),
        "p90_samples_beyond": sum(1 for t in latencies if t * 1e3 > p90),
        "failed_ratio": runner.failed / runner.attempted,
        "host_slowdown": sum(raw) / sum(latencies),
        "inputs": about,
        "uncorrected": {"setup_s": setup_raw_s, "ops_per_s": raw_ops,
                        "op_p50_ms": raw_p50, "op_p90_ms": raw_p90},
    }
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(ops_per_s, "1/s"),
        "op_p50_ms": metric(p50, "ms"),
        "op_p90_ms": metric(p90, "ms"),
        "undecided_ratio": metric(sum(undecided) / len(undecided), "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return runner, metrics, info


def per_layer(workload: str, seed: int, tw) -> tuple:
    import_tw_ms, import_opt_ms = measure_imports()
    blocks, about = build_ops(tw, workload, seed)
    runner = Runner(blocks)
    runner.warm_up()
    plain, _, _ = runner.one_pass()
    tracer = tracing.Tracer()
    tracer.install(tw)
    try:
        traced, _, _ = runner.one_pass(tracer)
    finally:
        tracer.uninstall()
    values = tracing.layer_values(tracer)
    values["cli.import_thermowork_ms"] = import_tw_ms
    values["cli.import_scipy_optimize_ms"] = import_opt_ms
    # ops_per_s untraced over ops_per_s traced, on the same pass, corrected times
    values["trace.overhead_ratio"] = sum(traced) / sum(plain)
    spans_file = OUT / f"spans-{workload}.npz"
    tracer.write(spans_file)
    metrics = {name: metric(values[name], unit) for name, unit, _ in tracing.METRICS}
    info = {"spans": len(tracer.start), "spans_file": str(spans_file.relative_to(ROOT)),
            "pass_length": runner.pass_len, "inputs": about}
    return runner, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="wall time to measure with --trace 0 (whole passes, at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced pass, per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import thermowork and build the inputs (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        before = probe()
        build_ops(import_thermowork(), args.workload, args.seed)
        print(0.5 * (before + probe()))
        return 0
    tw = import_thermowork()
    print(json.dumps({"facts": facts(args.workload, args.seed, tw)}))
    if args.trace:
        runner, metrics, info = per_layer(args.workload, args.seed, tw)
    else:
        runner, metrics, info = end_to_end(args.workload, args.seed, args.seconds, tw)
    print(json.dumps({"info": info}))
    for line in runner.failures:
        print(f"FAILED {line}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
