"""Determinism check of the benchmark's traced counts.

Run from the root of a hornlab source tree:

    python3 perfbench/check_determinism.py [--seed 0]

For each workload, two traced runs at the same seed must report identical
values for every count metric (unit ``count``, and the ratios of counts)
and identical attempted and failed totals.  An untraced run, made in this
process, must leave no wrapper installed and never load the tracing
layer.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import run  # noqa: E402

COUNT_UNITS = ("count", "count/step", "count/sweep")


def untraced_installs_nothing(workload: str, seed: int) -> list[str]:
    with contextlib.redirect_stdout(io.StringIO()):
        run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0"])
    import spans

    problems = [f"wrapper left installed: {w}" for w in spans.installed_wrappers()]
    if "layers" in sys.modules:
        problems.append("untraced run loaded the tracing layer")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    first = run.WORKLOADS[0]
    problems = [f"{first}: {p}" for p in untraced_installs_nothing(first, args.seed)]
    for name in run.WORKLOADS:
        a = report.run(name, args.seed, 1, 1)[1]
        b = report.run(name, args.seed, 1, 1)[1]
        counted = sorted(k for k, v in a["metrics"].items() if v["unit"] in COUNT_UNITS)
        for key in counted + ["attempted", "failed"]:
            va = a["metrics"][key]["value"] if key in a["metrics"] else a[key]
            vb = b["metrics"][key]["value"] if key in b["metrics"] else b[key]
            if va != vb:
                problems.append(f"{name}: {key} {va!r} != {vb!r}")
        print(f"{name}: {len(counted) + 2} counts compared")
    for p in problems:
        print("MISMATCH", p)
    print("deterministic" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
