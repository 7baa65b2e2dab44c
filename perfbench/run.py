"""hornlab benchmark: one workload, one seed, one run.

Run from the root of a hornlab source tree:

    python3 perfbench/run.py --workload queries --seed 0 --seconds 18 --trace 0

With ``--trace 0`` the run times the workload's task list, repeated as
many whole times as fit in ``--seconds`` (at least once), and reports
the end-to-end metrics.  With ``--trace 1`` it runs the task list once
untraced and once with every layer's public functions wrapped, and
reports per-layer counts and self times plus the tracing overhead.
Outputs are checked against independent oracles after the timed window.

The last line of standard output is the result object; the line before
it carries details (environment, op tail latency, failure list).
"""

from __future__ import annotations

import os

# one BLAS / OpenMP thread for this process and its children, set before
# numpy loads, so the two-core scheduler stays out of the numbers
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("queries", "axes", "classify", "coupled")
SETUP_SAMPLES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PROBE_INTERVAL_S = 0.05
PROBE_ITERS = 400
#: an op is scaled by the slices taken during it and this long either side
PROBE_WINDOW_S = 0.25
#: median probe slice on the reference machine (2-core Xeon VM, one
#: pinned thread); it only sets the scale of the reported times
PROBE_REF_S = 0.0025


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up time and exit")
    return ap.parse_args(argv)


def _source_root() -> Path:
    """The hornlab source tree in the working directory, or exit 2."""
    root = Path.cwd()
    if not (root / "src" / "hornlab" / "__init__.py").is_file():
        print("perfbench: run from the root of a hornlab checkout "
              "(src/hornlab not found)", file=sys.stderr)
        sys.exit(2)
    return root


def _setup(name: str, seed: int):
    """Import hornlab, build the inputs, warm up.

    Returns the workload, the set-up time and that time at reference
    speed.  numpy loads before the probe, which needs it, but inside the
    timed window.
    """
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    probe = SpeedProbe()
    with probe:
        import workloads

        wl = workloads.WORKLOADS[name](seed)
        workloads.warm_up(name)
    raw = time.perf_counter() - t0 - probe.busy
    return wl, raw, raw * probe.speed


def _child_setup_s(args, root: Path) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120,
                         check=True)
    raw, scaled = out.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scaled)


class SpeedProbe:
    """Samples this process's speed while set-up and the passes run.

    On a shared machine the speed a process gets drifts by tens of percent
    within seconds.  Every ``PROBE_INTERVAL_S`` a SIGALRM handler times a
    fixed slice of interpreter and small-array work (dot products, an
    einsum over a 3x3x3 array) that never calls hornlab.  ``busy`` is the
    time spent in the handler, which the caller subtracts from what it
    timed.  A time scaled by ``PROBE_REF_S / median slice``, the slices
    taken around it, is that time at reference speed.  The cyclic
    collector is off inside the handler, so a collection set off by the
    slice's allocations, whose cost grows with hornlab's live heap, is not
    timed as slice work and taken out of the op times.
    """

    def __init__(self):
        import numpy as np

        self._v = np.arange(4.0)
        self._w = np.arange(3.0)
        self._g = np.ones((3, 3, 3))
        self._einsum = np.einsum
        self._active = False
        self.slices: list[float] = []
        self.stamps: list[float] = []
        self.busy = 0.0

    def _slice(self) -> float:
        gc_was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        acc, v, w, g = 0.0, self._v, self._w, self._g
        for i in range(PROBE_ITERS):
            x = (i + 1.0) ** 0.5
            acc += x / (1.0 + x * x) + float((v * x) @ v)
            acc += float(self._einsum("kij,i,j->k", g, w * x, w)[0])
        t1 = time.perf_counter()
        if gc_was_enabled:
            gc.enable()
        return t1 - t0

    def _handler(self, signum, frame):
        if self._active:
            return
        self._active = True
        dt = self._slice()
        self.slices.append(dt)
        self.stamps.append(time.perf_counter())
        self.busy += dt
        self._active = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def speed(self) -> float:
        """Speed over the whole probe; one extra slice if none was taken."""
        return PROBE_REF_S / statistics.median(self.slices or [self._slice()])

    @property
    def spread(self) -> float:
        """Quartile distance of the slice times over their median."""
        if len(self.slices) < 2:
            return 0.0
        q = statistics.quantiles(self.slices, n=4)
        return (q[2] - q[0]) / statistics.median(self.slices)

    def at_reference(self, times, spans):
        """Each time scaled by the slices within ``PROBE_WINDOW_S`` of its span."""
        out = []
        for dt, (t0, t1) in zip(times, spans):
            lo = bisect.bisect_left(self.stamps, t0 - PROBE_WINDOW_S)
            hi = bisect.bisect_right(self.stamps, t1 + PROBE_WINDOW_S)
            near = self.slices[lo:hi] or self.slices
            out.append(dt * PROBE_REF_S / statistics.median(near))
        return out


def _run_pass(wl, latencies, failures, probe=None, spans=None):
    """Run every task once; returns the outputs (None where one failed).

    Appends each op's time, less the probe's, to ``latencies`` and its
    start and end to ``spans``.
    """
    from hornlab.errors import HornlabError

    outputs = []
    for i, task in enumerate(wl.tasks):
        busy0 = probe.busy if probe else 0.0
        t0 = time.perf_counter()
        try:
            out = task.fn()
        except HornlabError as exc:
            out = None
            failures.append({"task": i, "op": task.op, "input": task.input,
                             "error": type(exc).__name__, "message": str(exc)})
        t1 = time.perf_counter()
        latencies.append(t1 - t0 - (probe.busy - busy0 if probe else 0.0))
        if spans is not None:
            spans.append((t0, t1))
        outputs.append(out)
    return outputs


def _tail(latencies):
    n = len(latencies)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
            return {"value": cuts[int(round(pct * 10)) - 1] * 1e3, "unit": "ms",
                    "percentile": pct, "samples": n}
    return None


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_openmp_threads": {v: os.environ[v] for v in
                                ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS")},
        "seed": seed,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _args(argv)
    root = _source_root()
    sys.path.insert(0, str(root / "src"))
    wl, *setup0 = _setup(args.workload, args.seed)
    if args.setup_only:
        print(*map(repr, setup0))
        return 0
    import hornlab

    if Path(hornlab.__file__).resolve().parents[1] != (root / "src").resolve():
        print(f"perfbench: imported hornlab from {hornlab.__file__}", file=sys.stderr)
        return 2
    setup_samples = [tuple(setup0)]

    latencies: list[float] = []
    failures: list[dict] = []
    pass_times: list[float] = []
    first = None
    nondeterministic = []
    metrics = {}
    speed_probe = None
    if args.trace:
        import layers

        t0 = time.perf_counter()
        first = _run_pass(wl, latencies, failures)
        untraced = time.perf_counter() - t0
        tracer, traced = layers.traced(lambda: _run_pass(wl, [], []))
        for name, (value, unit) in layers.layer_metrics(tracer).items():
            metrics[name] = _metric(value, unit)
        for name, (value, unit) in layers.kernel_timings().items():
            metrics[name] = _metric(value, unit)
        metrics["trace.wall_s"] = _metric(traced, "s")
        metrics["trace.overhead_s"] = _metric(traced - untraced, "s")
        pass_times.append(untraced)
    else:
        import workloads

        setup_samples += [_child_setup_s(args, root) for _ in range(SETUP_SAMPLES - 1)]
        probe = SpeedProbe()
        spans: list[tuple[float, float]] = []
        # whole passes only: stop when one more would likely overrun
        while not pass_times or (sum(pass_times) + statistics.mean(pass_times)
                                 <= args.seconds):
            with probe:
                busy0 = probe.busy
                t0 = time.perf_counter()
                outputs = _run_pass(wl, latencies, failures, probe, spans)
                pass_times.append(time.perf_counter() - t0 - (probe.busy - busy0))
            prints = [workloads.fingerprint(out) for out in outputs]
            if first is None:
                first, first_prints = outputs, prints
            elif prints != first_prints:
                nondeterministic.append(len(pass_times))
        raw = {"wall_s": statistics.median(pass_times),
               "ops_per_s": len(latencies) / sum(pass_times),
               "op_p50_ms": statistics.median(latencies) * 1e3,
               "setup_s": statistics.median(r for r, _ in setup_samples)}
        latencies = probe.at_reference(latencies, spans)
        n = len(wl.tasks)
        ref_passes = [sum(latencies[k:k + n]) for k in range(0, len(latencies), n)]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": _metric(statistics.median(r for _, r in setup_samples), "s"),
            "wall_s": _metric(statistics.median(ref_passes), "s"),
            "ops_per_s": _metric(len(latencies) / sum(ref_passes), "1/s"),
            "op_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
        }
        # compare runs only where their speeds agree within the spread
        speed_probe = {"speed": probe.speed, "spread": probe.spread,
                       "slices": len(probe.slices), "busy_s": probe.busy, "raw": raw}

    misses = [{"task": i, "op": wl.tasks[i].op, "input": wl.tasks[i].input,
               "error": "OracleMiss", "message": msg} for i, msg in wl.check(first)]
    for p in nondeterministic:
        misses.append({"task": None, "op": "pass", "input": f"pass {p}",
                       "error": "OracleMiss", "message": "outputs differ from pass 1"})
    attempted = len(latencies)
    failed = len(failures) + len(misses)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": _environment(args.seed),
        "passes": len(pass_times),
        "ops_per_pass": len(wl.tasks),
        "op_samples": attempted,
        "op_tail_ms": _tail(latencies),
        "failed_frac": failed / attempted,
        "setup_samples_s": [{"raw": r, "reference": ref} for r, ref in setup_samples],
        "speed_probe": speed_probe,
        "failures": failures + misses,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not misses, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
