"""Print every workload's end-to-end metrics, one row each, and its failures.

Run from the root of a hornlab source tree:

    python3 perfbench/report.py --seed 0 [--trace]

Each workload runs in its own process through ``perfbench/run.py``, for
the ``run_seconds`` of ``BENCHMARK.json``.  With ``--trace`` every
workload also gets a traced run, whose per-layer metrics are printed with
the tracing overhead (traced minus untraced pass time, both measured raw
in the traced run's process).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().with_name("run.py")
RUN_SECONDS = json.loads(
    (RUN.parents[1] / "BENCHMARK.json").read_text())["run_seconds"]
END_TO_END = ("setup_s", "wall_s", "ops_per_s", "op_p50_ms", "peak_rss_mb")


def run(workload: str, seed: int, seconds: float, trace: int):
    """One benchmark run; returns (detail, result)."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload}: run.py exited {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    rows, failures, traced = [], [], {}
    for name in WORKLOADS:
        detail, result = run(name, args.seed, RUN_SECONDS, 0)
        m = result["metrics"]
        tail = detail["op_tail_ms"]
        cells = [name] + [f"{_fmt(m[k]['value'])} {m[k]['unit']}" for k in END_TO_END]
        cells.append("omitted (too few samples)" if tail is None else
                     f"{_fmt(tail['value'])} ms at p{tail['percentile']:g}")
        cells.append(f"{detail['op_samples']} samples")
        cells.append(f"{_fmt(detail['failed_frac'])} ({result['failed']}/{result['attempted']})")
        cells.append("correct" if result["correct"] else "ORACLE MISS")
        probe = detail["speed_probe"]
        cells.append(f"{probe['speed']:.3f} ±{probe['spread']:.3f}")
        rows.append(cells)
        failures += [(name, f) for f in detail["failures"]]
        if args.trace:
            traced[name] = run(name, args.seed, RUN_SECONDS, 1)[1]

    header = ["workload", *END_TO_END, "op_tail_ms", "op samples", "failed_frac", "oracle",
              "speed ±spread"]
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    print(f"\nfailed ops ({len(failures)}):")
    for name, f in failures:
        print(f"  {name}: task {f['task']} {f['op']} {f['input']}\n"
              f"      {f['error']}: {f['message']}")
    for name, result in traced.items():
        m = result["metrics"]
        print(f"\n{name} per-layer (trace overhead: "
              f"{_fmt(m['trace.overhead_s']['value'])} s)")
        for key in sorted(m):
            print(f"  {key:40s} {_fmt(m[key]['value'])} {m[key]['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
