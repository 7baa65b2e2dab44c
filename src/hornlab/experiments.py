"""Named experiments binding the geometry to report artifacts.

Each experiment checks a family of assertions at pinned tolerances and
emits a deterministic ``report.json`` plus plot-ready CSV tables into its
output directory.  Reports never claim more than consistency within
tolerance; failures carry the measured values.  Wall-clock runtime is
kept on the in-memory report only, so identical configurations and seeds
reproduce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .actions import (
    EuclideanAction,
    HornAction,
    Isometry,
    MobiusAction,
    PERIODIC,
    PSEUDO_ANOSOV,
    REDUCIBLE,
    STRICTLY_PSEUDOPERIODIC,
    SearchBudget,
    axis,
    classify,
    divergence_profile,
    properness_probe,
)
from .asymptotics import (
    DifferentialModel,
    AnnulusSpec,
    cometric_pairing,
    pairing_self_consistency,
    scaling_fit,
    substitution_check,
)
from .geometry import (
    XI_SNAP,
    Euclidean,
    Horn,
    HyperbolicPlane,
    SpaceSpec,
    distance,
    geodesic_connect,
    make_point,
)
from .paths import csv_text, equivariant_seed, point_cells

EXPERIMENT_NAMES = ("interior", "corners", "table1", "diverge", "proper", "masur", "expansion")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {self.name!r}")


@dataclass
class Assertion:
    name: str
    passed: bool
    measured: object
    expected: object
    tolerance: object
    provenance: str

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "measured": self.measured,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "provenance": self.provenance,
        }


@dataclass
class ExperimentReport:
    experiment: str
    config_hash: str
    seed: int
    assertions: list[Assertion]
    artifacts: list[str]
    inconclusive: bool = False
    runtime: float = 0.0  # not serialized: reports must be byte-deterministic

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions) and not self.inconclusive

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "version": __version__,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "passed": self.passed,
            "inconclusive": self.inconclusive,
            "assertions": [a.to_json() for a in self.assertions],
            "artifacts": sorted(self.artifacts),
        }


def config_hash(config: ExperimentConfig) -> str:
    doc = {
        "name": config.name,
        "space": None,  # a former field, kept so every config_hash stays put
        "parameters": config.parameters,
        "seed": config.seed,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def write_report(report: ExperimentReport, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n")
    return path


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    from .errors import HornlabError

    runner = {
        "interior": run_interior,
        "corners": run_corners,
        "table1": run_table1,
        "diverge": run_diverge,
        "proper": run_proper,
        "masur": run_masur,
        "expansion": run_expansion,
    }[config.name]
    t0 = time.perf_counter()
    try:
        report = runner(config)
    except HornlabError as exc:
        # a solver giving up is an inconclusive run, not a failed assertion
        report = ExperimentReport(
            config.name, config_hash(config), config.seed,
            [Assertion("solver", False, str(exc), "completed run", None, "diagnostic")],
            [], inconclusive=True,
        )
    report.runtime = time.perf_counter() - t0
    if config.out_dir:
        write_report(report, config.out_dir)
    return report


# ---------------------------------------------------------------------------
# interior: geodesics reach the stratum only at their endpoint


def run_interior(config: ExperimentConfig) -> ExperimentReport:
    pars = config.parameters
    xi = float(pars.get("xi", 0.5))
    theta = float(pars.get("theta", 0.7))
    eu_shift = float(pars.get("euclidean_shift", 1.0))
    checks: list[Assertion] = []
    artifacts: list[str] = []

    horn = SpaceSpec((Horn(),))
    boundary = make_point(horn, [None])
    target = make_point(horn, [(theta, xi)])
    seg = geodesic_connect(horn, boundary, target, samples=33)
    checks.append(Assertion(
        "radial_length", abs(seg.length - 2.0 * xi) <= 1e-6,
        seg.length, 2.0 * xi, 1e-6, "derived: radial integral of sqrt(g_xi_xi)",
    ))
    interior_pts = [pt for x, pt in seg.samples if x > 0]
    theta_dev = max(
        abs(pt.blocks[0].theta - theta) for pt in interior_pts if not pt.stratum()
    )
    checks.append(Assertion(
        "radial_theta_constant", theta_dev <= 1e-6, theta_dev, 0.0, 1e-6,
        "derived: boundary geodesics are radial lines",
    ))
    min_xi = min(pt.blocks[0].xi for pt in interior_pts if not pt.stratum())
    all_interior = all(not pt.stratum() for pt in interior_pts)
    checks.append(Assertion(
        "interior_after_start", all_interior and min_xi > XI_SNAP,
        min_xi, f"> {XI_SNAP}", None, "interior statement on (0, 1]",
    ))

    # product case: part of the journey clamped to the stratum costs extra
    prod = SpaceSpec((Horn(), Euclidean(1)))
    p0 = make_point(prod, [None, (0.0,)])
    q0 = make_point(prod, [(theta, xi), (eu_shift,)])
    seg2 = geodesic_connect(prod, p0, q0, samples=33)
    want = math.hypot(2.0 * xi, eu_shift)
    checks.append(Assertion(
        "product_length", abs(seg2.length - want) <= 1e-6, seg2.length, want, 1e-6,
        "derived: product Pythagoras with radial factor distance",
    ))
    ok_interior = all(
        not pt.stratum() for x, pt in seg2.samples if x > 0
    )
    checks.append(Assertion(
        "product_interior_after_start", ok_interior, ok_interior, True, None,
        "interior statement on (0, 1]",
    ))
    margins = []
    for frac in (0.125, 0.25, 0.5, 0.75, 1.0):
        e_c = frac * eu_shift
        clamped = e_c + math.hypot(2.0 * xi, eu_shift - e_c)
        margins.append((e_c, clamped - seg2.length))
    min_margin = min(m for _, m in margins)
    checks.append(Assertion(
        "clamped_competitor_strictly_longer", min_margin > 0.0,
        min_margin, "> 0", None,
        "derived: any competitor moving inside the stratum first is longer",
    ))

    # degenerate: both endpoints on the same one-horn stratum
    d0 = distance(horn, boundary, make_point(horn, [None]))
    checks.append(Assertion(
        "stratum_is_single_point", d0 == 0.0, d0, 0.0, 0.0,
        "trivial: the one-horn stratum is a point",
    ))

    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rows = [(x, *point_cells(prod, pt)) for x, pt in seg2.samples]
        (out / "interior_samples.csv").write_text(
            csv_text(["x", "theta", "xi", "boundary", "e0"], rows))
        (out / "interior_margins.csv").write_text(csv_text(["e_clamp", "margin"], margins))
        artifacts += ["interior_samples.csv", "interior_margins.csv"]
    return ExperimentReport("interior", config_hash(config), config.seed, checks, artifacts)


# ---------------------------------------------------------------------------
# corners: strata meet transversely, cutting corners pays


def run_corners(config: ExperimentConfig) -> ExperimentReport:
    pars = config.parameters
    xi1 = float(pars.get("xi", 0.3))
    xi2 = float(pars.get("xi2", 0.4))
    checks: list[Assertion] = []
    artifacts: list[str] = []
    space = SpaceSpec((Horn(), Horn()))
    p = make_point(space, [(0.3, xi1), None])
    q = make_point(space, [None, (0.7, xi2)])
    seg = geodesic_connect(space, p, q, samples=65)
    want = 2.0 * math.hypot(xi1, xi2)
    checks.append(Assertion(
        "geodesic_length", abs(seg.length - want) <= 1e-4, seg.length, want, 1e-4,
        "derived: product Pythagoras of radial factor distances",
    ))
    corner = make_point(space, [None, None])
    through = distance(space, p, corner) + distance(space, corner, q)
    margin = through - seg.length
    want_margin = 2.0 * (xi1 + xi2) - want
    checks.append(Assertion(
        "corner_margin", abs(margin - want_margin) <= 1e-4, margin, want_margin, 1e-4,
        "derived: broken path through the corner stratum",
    ))
    inner = [pt for x, pt in seg.samples if 0.0 < x < 1.0]
    both_interior = all(not pt.stratum() for pt in inner)
    checks.append(Assertion(
        "interior_between_strata", both_interior, both_interior, True, None,
        "geodesics between distinct strata cross the interior",
    ))

    # degenerate: one factor collapsed at both ends stays collapsed
    p1 = make_point(space, [(0.0, xi1), None])
    q1 = make_point(space, [None, None])
    seg_d = geodesic_connect(space, p1, q1, samples=17)
    stays = all(pt.blocks[1] == q1.blocks[1] for _, pt in seg_d.samples)
    checks.append(Assertion(
        "degenerate_stratum_geodesic", stays and abs(seg_d.length - 2 * xi1) <= 1e-9,
        seg_d.length, 2 * xi1, 1e-9, "trivial: single-point stratum factor",
    ))
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rows = [(x, *point_cells(space, pt)) for x, pt in seg.samples]
        (out / "corners_samples.csv").write_text(csv_text(
            ["x", "theta0", "xi0", "boundary0", "theta1", "xi1", "boundary1"], rows))
        artifacts.append("corners_samples.csv")
    return ExperimentReport("corners", config_hash(config), config.seed, checks, artifacts)


# ---------------------------------------------------------------------------
# table1: the four cells of the classification


def canonical_isometries():
    """The four canonical class representatives, with their spaces."""
    eu = SpaceSpec((Euclidean(2),))
    horn = SpaceSpec((Horn(),))
    hyp = SpaceSpec((HyperbolicPlane(),))
    mixed = SpaceSpec((Horn(), Euclidean(1)))
    return {
        PERIODIC: Isometry(eu, (EuclideanAction([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0]),)),
        STRICTLY_PSEUDOPERIODIC: Isometry(horn, (HornAction(a=1.0),)),
        PSEUDO_ANOSOV: Isometry(hyp, (MobiusAction(((2.0, 0.0), (0.0, 0.5))),)),
        REDUCIBLE: Isometry(mixed, (HornAction(a=1.0), EuclideanAction([[1.0]], [2.0]))),
    }


def run_table1(config: ExperimentConfig) -> ExperimentReport:
    budget = SearchBudget(seed=config.seed)
    checks: list[Assertion] = []
    artifacts: list[str] = []
    results = {}
    inconclusive = False
    for want_label, iso in canonical_isometries().items():
        res = classify(iso, budget)
        results[want_label] = res
        if res.status != "ok":
            inconclusive = True
        checks.append(Assertion(
            f"class_{want_label}", res.label == want_label, res.label, want_label,
            None, "table of translation-length cells",
        ))
    labels = [r.label for r in results.values()]
    checks.append(Assertion(
        "four_distinct_cells", len(set(labels)) == 4, labels, "4 distinct", None,
        "classification consistency",
    ))
    spp = results[STRICTLY_PSEUDOPERIODIC]
    xi_escape = (
        not spp.attained
        and spp.L_estimate < 1e-6
        and getattr(spp.witness, "collapsing_horns", ()) != ()
    )
    checks.append(Assertion(
        "strictly_pseudoperiodic_xi_escape", xi_escape,
        {"L": spp.L_estimate, "attained": spp.attained,
         "witness": spp.witness.describe() if hasattr(spp.witness, "describe") else None},
        "L = 0 non-attained with xi escape", None,
        "derived: displacement bounded by xi^3 |a|",
    ))
    pa = results[PSEUDO_ANOSOV]
    checks.append(Assertion(
        "hyperbolic_length", abs(pa.L_estimate - math.log(4.0)) <= 1e-6,
        pa.L_estimate, math.log(4.0), 1e-6, "derived: 2 arccosh(tr/2)",
    ))
    red = results[REDUCIBLE]
    checks.append(Assertion(
        "mixed_length", abs(red.L_estimate - 2.0) <= 1e-6,
        red.L_estimate, 2.0, 1e-6, "derived: infimum of sqrt(d_horn^2 + 4)",
    ))
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        doc = {label: res.to_json() for label, res in results.items()}
        (out / "table1_classes.json").write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n")
        artifacts.append("table1_classes.json")
    return ExperimentReport("table1", config_hash(config), config.seed, checks,
                            artifacts, inconclusive=inconclusive)


# ---------------------------------------------------------------------------
# diverge / proper


def independent_pair():
    hyp = SpaceSpec((HyperbolicPlane(),))
    g1 = Isometry(hyp, (MobiusAction(((2.0, 0.0), (0.0, 0.5))),))
    g2 = Isometry(hyp, (MobiusAction(((5.0, 3.0), (3.0, 2.0))),))
    return hyp, g1, g2


def run_diverge(config: ExperimentConfig) -> ExperimentReport:
    pars = config.parameters
    n = int(pars.get("nodes", 16))
    r_grid = pars.get("R_grid", list(range(2, 11)))
    checks: list[Assertion] = []
    artifacts: list[str] = []
    hyp, g1, g2 = independent_pair()
    base = make_point(hyp, [(0.05, 1.0)])
    ax1 = axis(g1, equivariant_seed(hyp, g1, base, n))
    ax2 = axis(g2, equivariant_seed(hyp, g2, base, n))
    prof = divergence_profile(ax1, ax2, r_grid)
    increasing = all(b > a for a, b in zip(prof.m_values[:-1], prof.m_values[1:]))
    checks.append(Assertion(
        "m_strictly_increasing", increasing, prof.m_values, "strictly increasing",
        None, "derived: grid minimum of pairwise axis distances",
    ))
    gap = prof.m_values[-1] - prof.m_values[0]
    checks.append(Assertion(
        "m_growth", prof.m_values[-1] > prof.m_values[0] + 1.0, gap, "> 1", None,
        "derived: linear divergence of distinct axes",
    ))
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "divergence_profile.csv").write_text(
            csv_text(["R", "m"], zip(prof.R_grid, prof.m_values)))
        artifacts.append("divergence_profile.csv")
    return ExperimentReport("diverge", config_hash(config), config.seed, checks, artifacts)


def run_proper(config: ExperimentConfig) -> ExperimentReport:
    pars = config.parameters
    m_grid = pars.get("M_grid", [2.0, 3.0, 4.0])
    budget = int(pars.get("sample_budget", 3000))
    checks: list[Assertion] = []
    artifacts: list[str] = []
    hyp, g1, g2 = independent_pair()
    rep = properness_probe([g1, g2], m_grid, budget, seed=config.seed)
    bounded = all(not e.unbounded_evidence for e in rep.entries)
    checks.append(Assertion(
        "independent_pair_bounded_sublevels", bounded,
        [(e.M, e.radius, e.unbounded_evidence) for e in rep.entries],
        "bounded for all M", None, "two independent axes force properness",
    ))
    eu = SpaceSpec((Euclidean(2),))
    tr5 = Isometry(eu, (EuclideanAction(np.eye(2), [3.0, 4.0]),))
    rep_tr = properness_probe([tr5], [5.0], budget, seed=config.seed)
    checks.append(Assertion(
        "single_translation_unbounded", rep_tr.entries[0].unbounded_evidence,
        rep_tr.entries[0].radius, "escapes every box", None,
        "trivial: constant displacement",
    ))
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "properness.csv").write_text(csv_text(
            ["M", "radius", "unbounded", "samples"],
            [(e.M, e.radius, int(e.unbounded_evidence), e.samples)
             for e in rep.entries + rep_tr.entries]))
        artifacts.append("properness.csv")
    return ExperimentReport("proper", config_hash(config), config.seed, checks, artifacts)


# ---------------------------------------------------------------------------
# masur / expansion


def _t_grid(pars, default_lo=1e-8, default_hi=1e-2, default_n=13):
    lo = float(pars.get("t_min", default_lo))
    hi = float(pars.get("t_max", default_hi))
    n = int(pars.get("t_num", default_n))
    return list(np.geomspace(hi, lo, n))


def run_masur(config: ExperimentConfig) -> ExperimentReport:
    pars = config.parameters
    ts = _t_grid(pars)
    n_r = int(pars.get("n_r", 256))
    checks: list[Assertion] = []
    artifacts: list[str] = []
    nn, nt, nr = [], [], []
    for t in ts:
        spec = AnnulusSpec(t=t, n_r=n_r)
        nn.append(cometric_pairing(DifferentialModel.NORMAL, DifferentialModel.NORMAL, t, spec))
        nt.append(cometric_pairing(DifferentialModel.NORMAL, DifferentialModel.TANGENTIAL, t, spec))
        nr.append(cometric_pairing(DifferentialModel.NORMAL, DifferentialModel.REGULAR, t, spec))
    fit_nn = scaling_fit(ts, nn)
    # the normal x regular envelope is the clean O(|t|) cross series: its
    # correction is O(t^2 log^2 t), so the unit-slope window is reachable
    # on this grid (normal x tangential carries an O(t log^2 t) term)
    fit_nt = scaling_fit(ts, nr)
    checks.append(Assertion(
        "normal_normal_alpha", abs(fit_nn.alpha - 2.0) <= 0.02, fit_nn.alpha, 2.0,
        0.02, "derived: closed-form radial antiderivative (log r)^3 / 3",
    ))
    checks.append(Assertion(
        "normal_normal_beta", abs(fit_nn.beta - 3.0) <= 0.15, fit_nn.beta, 3.0,
        0.15, "derived: same antiderivative",
    ))
    amp_target = 2.0 * math.pi / 3.0
    checks.append(Assertion(
        "normal_normal_amplitude",
        abs(fit_nn.amplitude / amp_target - 1.0) <= 0.02,
        fit_nn.amplitude, amp_target, "2%", "derived: 2 pi / 3 model constant",
    ))
    checks.append(Assertion(
        "cross_series_alpha", abs(fit_nt.alpha - 1.0) <= 0.02, fit_nt.alpha,
        1.0, 0.02, "derived: antiderivative r ((log r)^2 - log r + 1/2) / 2",
    ))
    # Simpson's rule integrates the normal x normal integrand |t|^2 u^2
    # exactly, so the doubling test also reads the normal x regular pair
    # the cross fit uses
    worst = 0.0
    for t in (ts[0], ts[len(ts) // 2], ts[-1]):
        spec = AnnulusSpec(t=t, n_r=n_r)
        for other in (DifferentialModel.NORMAL, DifferentialModel.REGULAR):
            worst = max(worst, pairing_self_consistency(DifferentialModel.NORMAL, other, spec))
    checks.append(Assertion(
        "quadrature_self_consistency", worst <= 1e-6, worst, "<= 1e-6", 1e-6,
        "grid doubling stability",
    ))
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "pairings.csv").write_text(csv_text(
            ["t", "pairing_normal_normal", "pairing_normal_tangential",
             "pairing_normal_regular"],
            zip(map(float, ts), nn, nt, nr)))
        (out / "scaling_fits.json").write_text(json.dumps(
            {"normal_normal": fit_nn.to_json(), "normal_regular": fit_nt.to_json()},
            sort_keys=True, indent=2) + "\n")
        artifacts += ["pairings.csv", "scaling_fits.json"]
    return ExperimentReport("masur", config_hash(config), config.seed, checks, artifacts)


def run_expansion(config: ExperimentConfig) -> ExperimentReport:
    pars = config.parameters
    s_values = pars.get("s_values", [25.0, 30.0, 36.0, 43.0, 52.0, 64.0])
    ts = [math.exp(-s) for s in s_values]
    checks: list[Assertion] = []
    artifacts: list[str] = []
    rep = substitution_check(ts, n_r=int(pars.get("n_r", 256)))
    xi_ok = all(x <= 0.2 + 1e-12 for x in rep.xi)
    checks.append(Assertion(
        "grid_in_asymptotic_range", xi_ok, max(rep.xi), "<= 0.2", None,
        "substitution xi = (-log t)^(-1/2)",
    ))
    worst_xx = max(abs(r - 1.0) for r in rep.ratio_xixi)
    checks.append(Assertion(
        "radial_coefficient", worst_xx <= 0.01, worst_xx, "|ratio - 1| <= 1%",
        0.01, "derived: pullback of C|t|^-2 s^-3 is 4C dxi^2",
    ))
    worst_tt = max(abs(r - 1.0) for r in rep.ratio_thth)
    checks.append(Assertion(
        "angular_coefficient", worst_tt <= 0.01, worst_tt, "|ratio - 1| <= 1%",
        0.01, "derived: pullback angular part is C xi^6 dtheta^2",
    ))
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "expansion.csv").write_text(csv_text(*rep.csv_table()))
        (out / "expansion_rates.json").write_text(json.dumps(
            {"rate_xixi": rep.rate_xixi, "rate_thth": rep.rate_thth,
             "target_xixi": rep.target_xixi, "target_thth": rep.target_thth},
            sort_keys=True, indent=2) + "\n")
        artifacts += ["expansion.csv", "expansion_rates.json"]
    return ExperimentReport("expansion", config_hash(config), config.seed, checks, artifacts)
