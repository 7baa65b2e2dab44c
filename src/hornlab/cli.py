"""Command line interface.

Subcommands: tensor, geodesic, distance, relax, axis, classify, diverge,
proper, masur, expansion, experiment.  Exit codes: 0 pass, 1 assertion
failure, 2 inconclusive (a distance certified only as an interval among
them), 3 usage or configuration error.  CSV output uses '.' decimals,
newline line endings and a header row.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .actions import (
    SearchBudget,
    axis as compute_axis,
    classify,
    divergence_profile,
    isometry_from_json,
    properness_probe,
)
from .asymptotics import (
    AnnulusSpec,
    DifferentialModel,
    cometric_pairing,
    scaling_fit,
    substitution_check,
)
from .errors import BasinError, DistanceIntervalError, FlowBudgetError, HornlabError
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    json_text,
    run_experiment,
    write_files,
)
from .geometry import (
    SpaceSpec,
    distance,
    geodesic_connect,
    geodesic_shoot,
    metric_tensor,
    point_from_json,
    point_to_json,
    space_from_json,
    tangent_from_chart,
)
from .paths import (
    csv_text,
    equivariant_seed,
    flow_report_json,
    heat_flow,
    path_from_csv,
    path_to_csv,
    samples_to_csv,
)

PASS, FAIL, INCONCLUSIVE, USAGE = 0, 1, 2, 3


def _load_json_arg(value: str):
    """Accept a file path or an inline JSON document."""
    try:
        is_path = Path(value).exists()
    except OSError:  # e.g. longer than a file name may be: inline
        is_path = False
    return json.loads(Path(value).read_text() if is_path else value)


def _load_space(value: str) -> SpaceSpec:
    return space_from_json(_load_json_arg(value))


def _emit(args, name: str, text: str, tables: dict[str, str] | None = None) -> None:
    """Print ``text``; under ``--out`` also write it as ``name``, beside ``tables``."""
    if args.out is not None:
        write_files(args.out, {**(tables or {}), name: text})
    sys.stdout.write(text)


def cmd_tensor(args) -> int:
    space = _load_space(args.space)
    point = point_from_json(space, _load_json_arg(args.point))
    g = metric_tensor(space, point)
    _emit(args, "tensor.json", json_text({"metric": [[float(v) for v in row] for row in g]}))
    return PASS


def cmd_geodesic(args) -> int:
    space = _load_space(args.space)
    p = point_from_json(space, _load_json_arg(getattr(args, "from")))
    if args.velocity is not None:
        vel = tangent_from_chart(space, json.loads(args.velocity))
        seg = geodesic_shoot(space, p, vel, args.length)
    else:
        if args.to is None:
            raise HornlabError("geodesic needs --to or --velocity/--length")
        q = point_from_json(space, _load_json_arg(args.to))
        seg = geodesic_connect(space, p, q, samples=args.samples)
    _emit(args, "geodesic.json", json_text({
        "length": seg.length,
        "hit_stratum": seg.hit_stratum,
        "endpoint": point_to_json(seg.end),
    }), {"segment.csv": samples_to_csv(space, seg.samples)})
    return PASS


def cmd_distance(args) -> int:
    space = _load_space(args.space)
    p = point_from_json(space, _load_json_arg(getattr(args, "from")))
    q = point_from_json(space, _load_json_arg(args.to))
    _emit(args, "distance.json", json_text({"distance": distance(space, p, q)}))
    return PASS


def cmd_relax(args) -> int:
    space = _load_space(args.space)
    iso = None
    if args.iso:
        iso = isometry_from_json(space, _load_json_arg(args.iso))
    path = path_from_csv(space, Path(args.path).read_text(), periodic_shift=iso)
    flowed, report = heat_flow(path, max_iter=args.max_iter, tol=args.tol)
    _emit(args, "flow.json", flow_report_json(report) + "\n",
          {"flowed.csv": path_to_csv(flowed)})
    return PASS if not report.escaped else INCONCLUSIVE


def cmd_axis(args) -> int:
    space = _load_space(args.space)
    iso = isometry_from_json(space, _load_json_arg(args.iso))
    base = point_from_json(space, _load_json_arg(args.base))
    seed_path = equivariant_seed(space, iso, base, args.nodes)
    try:
        ax = compute_axis(iso, seed_path, tol=args.tol)
    except (BasinError, FlowBudgetError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INCONCLUSIVE
    _emit(args, "axis.json", json_text({"period_length": ax.period_length}),
          {"axis.csv": path_to_csv(ax.path)})
    return PASS


def cmd_classify(args) -> int:
    space = _load_space(args.space)
    iso = isometry_from_json(space, _load_json_arg(args.iso))
    res = classify(iso, SearchBudget(seed=args.seed))
    _emit(args, "classification.json", json_text(res.to_json()))
    return PASS if res.status == "ok" else INCONCLUSIVE


def cmd_diverge(args) -> int:
    space = _load_space(args.space)
    iso1 = isometry_from_json(space, _load_json_arg(args.iso))
    iso2 = isometry_from_json(space, _load_json_arg(args.iso2))
    base = point_from_json(space, _load_json_arg(args.base))
    r_grid = [float(v) for v in args.rgrid.split(",")]
    try:
        ax1 = compute_axis(iso1, equivariant_seed(space, iso1, base, args.nodes), tol=args.tol)
        ax2 = compute_axis(iso2, equivariant_seed(space, iso2, base, args.nodes), tol=args.tol)
    except (BasinError, FlowBudgetError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INCONCLUSIVE
    prof = divergence_profile(ax1, ax2, r_grid)
    _emit(args, "divergence.json",
          json_text({"R": prof.R_grid, "m": prof.m_values,
                     "strictly_increasing_from": prof.strictly_increasing_from,
                     "evaluations": prof.evaluations}),
          {"divergence.csv": csv_text(*prof.csv_table())})
    return PASS


def cmd_proper(args) -> int:
    space = _load_space(args.space)
    isos = [isometry_from_json(space, doc) for doc in _load_json_arg(args.isos)]
    m_grid = [float(v) for v in args.mgrid.split(",")]
    rep = properness_probe(isos, m_grid, args.budget, seed=args.seed)
    _emit(args, "properness.json",
          json_text({"entries": [{"M": e.M, "radius": e.radius,
                                  "unbounded": e.unbounded_evidence, "samples": e.samples}
                                 for e in rep.entries]}),
          {"properness.csv": csv_text(*rep.csv_table())})
    return PASS


_PAIR_NAMES = {
    "normal": DifferentialModel.NORMAL,
    "tangential": DifferentialModel.TANGENTIAL,
    "tangential_deformed": DifferentialModel.TANGENTIAL_DEFORMED,
    "regular": DifferentialModel.REGULAR,
}


def _pair_model(name: str) -> DifferentialModel:
    try:
        return _PAIR_NAMES[name.strip()]
    except KeyError:
        raise ValueError(f"unknown pairing model {name.strip()!r}; "
                         f"expected one of {', '.join(_PAIR_NAMES)}") from None


def cmd_masur(args) -> int:
    ts = list(np.geomspace(args.tmax, args.tmin, args.num))
    pairs = {}  # column -> models, each column once, in first-seen order
    for token in args.pairs.split(";"):
        i, j = map(_pair_model, token.split(","))
        pairs[f"pairing_{i.value}_{j.value}"] = (i, j)
    columns = {key: [] for key in pairs}
    for t in ts:
        spec = AnnulusSpec(t=t, n_r=args.n_r, n_phi=args.n_phi)
        for key, (i, j) in pairs.items():
            columns[key].append(cometric_pairing(i, j, t, spec))
    fits = {key: scaling_fit(ts, vals).to_json() for key, vals in columns.items()}
    _emit(args, "scaling.json", json_text({"fits": fits}),
          {"pairings.csv": csv_text(["t", *columns], zip(map(float, ts), *columns.values()))})
    return PASS


def cmd_expansion(args) -> int:
    s_values = [float(v) for v in args.svalues.split(",")]
    rep = substitution_check([math.exp(-s) for s in s_values], n_r=args.n_r)
    _emit(args, "expansion.json",
          json_text({"xi": rep.xi, "ratio_xixi": rep.ratio_xixi,
                     "ratio_thth": rep.ratio_thth, "rate_xixi": rep.rate_xixi,
                     "rate_thth": rep.rate_thth}),
          {"expansion.csv": csv_text(*rep.csv_table())})
    return PASS


def cmd_experiment(args) -> int:
    params = {}
    if args.config:
        params = _load_json_arg(args.config)
    config = ExperimentConfig(
        name=args.name, parameters=params, seed=args.seed, out_dir=args.out,
    )
    report = run_experiment(config)
    sys.stdout.write(json_text(report.to_json()))
    sys.stdout.write(f"# runtime: {report.runtime:.3f}s\n")
    if report.inconclusive:
        return INCONCLUSIVE
    return PASS if report.passed else FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hornlab",
        description="numerical laboratory for horn-model geometry",
    )
    ap.add_argument("--version", action="version", version=f"hornlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, space=True):
        if space:
            p.add_argument("--space", required=True, help="space JSON (file or inline)")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("tensor", help="metric tensor at a point")
    common(p)
    p.add_argument("--point", required=True)
    p.set_defaults(fn=cmd_tensor)

    p = sub.add_parser("geodesic", help="connect two points or shoot a ray")
    common(p)
    p.add_argument("--from", required=True)
    p.add_argument("--to", default=None)
    p.add_argument("--velocity", default=None, help="chart velocity JSON array")
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=33)
    p.set_defaults(fn=cmd_geodesic)

    p = sub.add_parser("distance", help="distance between two points")
    common(p)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("relax", help="midpoint heat flow on a CSV path")
    common(p)
    p.add_argument("--path", required=True)
    p.add_argument("--iso", default=None, help="equivariant shift isometry JSON")
    p.add_argument("--max-iter", type=int, default=10**6)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=cmd_relax)

    p = sub.add_parser("axis", help="equivariant axis by heat flow")
    common(p)
    p.add_argument("--iso", required=True)
    p.add_argument("--base", required=True, help="seed base point JSON")
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=cmd_axis)

    p = sub.add_parser("classify", help="translation-length classification")
    common(p)
    p.add_argument("--iso", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("diverge", help="divergence profile of two axes")
    common(p)
    p.add_argument("--iso", required=True)
    p.add_argument("--iso2", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--rgrid", default="2,3,4,5,6,7,8,9,10")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=cmd_diverge)

    p = sub.add_parser("proper", help="sublevel boundedness of a generating set")
    common(p)
    p.add_argument("--isos", required=True, help="JSON list of isometries")
    p.add_argument("--mgrid", default="2,3,4")
    p.add_argument("--budget", type=int, default=3000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_proper)

    p = sub.add_parser("masur", help="cometric pairings over a t grid")
    common(p, space=False)
    p.add_argument("--tmin", type=float, default=1e-8)
    p.add_argument("--tmax", type=float, default=1e-2)
    p.add_argument("--num", type=int, default=13)
    p.add_argument("--pairs", default="normal,normal;normal,tangential")
    p.add_argument("--n-r", type=int, default=256)
    p.add_argument("--n-phi", type=int, default=64,
                   help="angles averaged per radius in tangential_deformed pairings")
    p.set_defaults(fn=cmd_masur)

    p = sub.add_parser("expansion", help="horn-coefficient substitution check")
    common(p, space=False)
    p.add_argument("--svalues", default="25,30,36,43,52,64",
                   help="comma list of s = -log t")
    p.add_argument("--n-r", type=int, default=256)
    p.set_defaults(fn=cmd_expansion)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("name", choices=EXPERIMENT_NAMES)
    p.add_argument("--config", default=None, help="parameters JSON")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_experiment)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        if exc.code not in (0, None):
            return USAGE
        return 0
    try:
        return args.fn(args)
    except DistanceIntervalError as exc:  # valid input, an uncertified distance
        sys.stderr.write(f"inconclusive: {exc}\n")
        return INCONCLUSIVE
    except (HornlabError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
