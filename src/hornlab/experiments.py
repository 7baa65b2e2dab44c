"""Named experiments binding the geometry to report artifacts.

Each experiment checks a family of assertions at pinned tolerances.  Its
runner returns the assertions and its artifacts as ``{file name: text}``;
:func:`run_experiment` alone writes files: with ``out_dir`` set, the
artifacts and a deterministic ``report.json`` listing them go into that
directory, and without it nothing is written.  Reports never claim more
than consistency within tolerance; failures carry the measured values.
Wall-clock runtime is kept on the in-memory report only, so identical
configurations and seeds reproduce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .actions import (
    EuclideanAction,
    HornAction,
    Isometry,
    MobiusAction,
    PERIODIC,
    PSEUDO_ANOSOV,
    PropernessReport,
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
from .errors import HornlabError
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
from .paths import csv_text, equivariant_seed, samples_to_csv

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


def _near(name: str, measured, expected, tol, provenance: str) -> Assertion:
    """The assertion ``|measured - expected| <= tol``, recording that ``tol``."""
    return Assertion(name, abs(measured - expected) <= tol, measured, expected, tol, provenance)


class Outcome(NamedTuple):
    """A runner's result: its assertions, its artifacts as ``{file name:
    text}``, and whether a search it ran came back inconclusive."""

    assertions: list[Assertion]
    files: dict[str, str]
    inconclusive: bool = False


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


def json_text(doc) -> str:
    """Text of every JSON document the package writes or prints: sorted
    keys, two-space indent, one final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_files(out_dir, files: dict[str, str]) -> None:
    """Write each ``{file name: text}`` entry into ``out_dir``, creating it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
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
        outcome = runner(config)
    except HornlabError as exc:
        # a solver giving up is an inconclusive run, not a failed assertion
        outcome = Outcome(
            [Assertion("solver", False, str(exc), "completed run", None, "diagnostic")],
            {}, inconclusive=True)
    report = ExperimentReport(config.name, config_hash(config), config.seed,
                              outcome.assertions,
                              list(outcome.files) if config.out_dir else [],
                              inconclusive=outcome.inconclusive)
    if config.out_dir:
        write_files(config.out_dir, {**outcome.files, "report.json": json_text(report.to_json())})
    report.runtime = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# interior: geodesics reach the stratum only at their endpoint


def run_interior(config: ExperimentConfig) -> Outcome:
    pars = config.parameters
    xi = float(pars.get("xi", 0.5))
    theta = float(pars.get("theta", 0.7))
    eu_shift = float(pars.get("euclidean_shift", 1.0))
    checks: list[Assertion] = []

    horn = SpaceSpec((Horn(),))
    boundary = make_point(horn, [None])
    target = make_point(horn, [(theta, xi)])
    seg = geodesic_connect(horn, boundary, target, samples=33)
    checks.append(_near("radial_length", seg.length, 2.0 * xi, 1e-6,
                       "derived: radial integral of sqrt(g_xi_xi)"))
    interior_pts = [pt for x, pt in seg.samples if x > 0]
    theta_dev = max(
        abs(pt.blocks[0].theta - theta) for pt in interior_pts if not pt.stratum()
    )
    checks.append(_near("radial_theta_constant", theta_dev, 0.0, 1e-6,
                       "derived: boundary geodesics are radial lines"))
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
    checks.append(_near("product_length", seg2.length, math.hypot(2.0 * xi, eu_shift), 1e-6,
                       "derived: product Pythagoras with radial factor distance"))
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
    checks.append(_near("stratum_is_single_point", d0, 0.0, 0.0,
                       "trivial: the one-horn stratum is a point"))
    return Outcome(checks, {
        "interior_samples.csv": samples_to_csv(prod, seg2.samples),
        "interior_margins.csv": csv_text(["e_clamp", "margin"], margins),
    })


# ---------------------------------------------------------------------------
# corners: strata meet transversely, cutting corners pays


def run_corners(config: ExperimentConfig) -> Outcome:
    pars = config.parameters
    xi1 = float(pars.get("xi", 0.3))
    xi2 = float(pars.get("xi2", 0.4))
    checks: list[Assertion] = []
    space = SpaceSpec((Horn(), Horn()))
    p = make_point(space, [(0.3, xi1), None])
    q = make_point(space, [None, (0.7, xi2)])
    seg = geodesic_connect(space, p, q, samples=65)
    want = 2.0 * math.hypot(xi1, xi2)
    checks.append(_near("geodesic_length", seg.length, want, 1e-4,
                       "derived: product Pythagoras of radial factor distances"))
    corner = make_point(space, [None, None])
    through = distance(space, p, corner) + distance(space, corner, q)
    checks.append(_near("corner_margin", through - seg.length, 2.0 * (xi1 + xi2) - want, 1e-4,
                       "derived: broken path through the corner stratum"))
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
    degenerate = _near("degenerate_stratum_geodesic", seg_d.length, 2 * xi1, 1e-9,
                      "trivial: single-point stratum factor")
    degenerate.passed = degenerate.passed and stays
    checks.append(degenerate)
    return Outcome(checks, {"corners_samples.csv": samples_to_csv(space, seg.samples)})


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


def run_table1(config: ExperimentConfig) -> Outcome:
    budget = SearchBudget(seed=config.seed)
    checks: list[Assertion] = []
    results = {}
    for want_label, iso in canonical_isometries().items():
        res = classify(iso, budget)
        results[want_label] = res
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
    checks.append(_near("hyperbolic_length", results[PSEUDO_ANOSOV].L_estimate,
                       math.log(4.0), 1e-6, "derived: 2 arccosh(tr/2)"))
    checks.append(_near("mixed_length", results[REDUCIBLE].L_estimate, 2.0, 1e-6,
                       "derived: infimum of sqrt(d_horn^2 + 4)"))
    doc = {label: res.to_json() for label, res in results.items()}
    return Outcome(checks, {"table1_classes.json": json_text(doc)},
                   inconclusive=any(r.status != "ok" for r in results.values()))


# ---------------------------------------------------------------------------
# diverge / proper


def independent_pair():
    hyp = SpaceSpec((HyperbolicPlane(),))
    g1 = Isometry(hyp, (MobiusAction(((2.0, 0.0), (0.0, 0.5))),))
    g2 = Isometry(hyp, (MobiusAction(((5.0, 3.0), (3.0, 2.0))),))
    return hyp, g1, g2


def run_diverge(config: ExperimentConfig) -> Outcome:
    pars = config.parameters
    n = int(pars.get("nodes", 16))
    r_grid = pars.get("R_grid", list(range(2, 11)))
    checks: list[Assertion] = []
    hyp, g1, g2 = independent_pair()
    base = make_point(hyp, [(0.05, 1.0)])
    ax1 = axis(g1, equivariant_seed(hyp, g1, base, n))
    ax2 = axis(g2, equivariant_seed(hyp, g2, base, n))
    prof = divergence_profile(ax1, ax2, r_grid)
    increasing = all(b > a for a, b in zip(prof.m_values[:-1], prof.m_values[1:]))
    checks.append(Assertion(
        "m_strictly_increasing", increasing, prof.m_values, "strictly increasing",
        None, "derived: convex gap, one line search per quadrant of |t| + |s| = R",
    ))
    gap = prof.m_values[-1] - prof.m_values[0]
    checks.append(Assertion(
        "m_growth", prof.m_values[-1] > prof.m_values[0] + 1.0, gap, "> 1", None,
        "derived: linear divergence of distinct axes",
    ))
    return Outcome(checks, {"divergence_profile.csv": csv_text(*prof.csv_table())})


def run_proper(config: ExperimentConfig) -> Outcome:
    pars = config.parameters
    m_grid = pars.get("M_grid", [2.0, 3.0, 4.0])
    budget = int(pars.get("sample_budget", 3000))
    checks: list[Assertion] = []
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
    both = PropernessReport(rep.entries + rep_tr.entries)
    return Outcome(checks, {"properness.csv": csv_text(*both.csv_table())})


# ---------------------------------------------------------------------------
# masur / expansion


def _t_grid(pars, default_lo=1e-8, default_hi=1e-2, default_n=13):
    lo = float(pars.get("t_min", default_lo))
    hi = float(pars.get("t_max", default_hi))
    n = int(pars.get("t_num", default_n))
    return list(np.geomspace(hi, lo, n))


def run_masur(config: ExperimentConfig) -> Outcome:
    pars = config.parameters
    ts = _t_grid(pars)
    n_r = int(pars.get("n_r", 256))
    checks: list[Assertion] = []
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
    checks.append(_near("normal_normal_alpha", fit_nn.alpha, 2.0, 0.02,
                       "derived: closed-form radial antiderivative (log r)^3 / 3"))
    checks.append(_near("normal_normal_beta", fit_nn.beta, 3.0, 0.15,
                       "derived: same antiderivative"))
    amp_target = 2.0 * math.pi / 3.0
    checks.append(Assertion(
        "normal_normal_amplitude",
        abs(fit_nn.amplitude / amp_target - 1.0) <= 0.02,
        fit_nn.amplitude, amp_target, "2%", "derived: 2 pi / 3 model constant",
    ))
    checks.append(_near("cross_series_alpha", fit_nt.alpha, 1.0, 0.02,
                       "derived: antiderivative r ((log r)^2 - log r + 1/2) / 2"))
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
    return Outcome(checks, {
        "pairings.csv": csv_text(
            ["t", "pairing_normal_normal", "pairing_normal_tangential",
             "pairing_normal_regular"],
            zip(map(float, ts), nn, nt, nr)),
        "scaling_fits.json": json_text(
            {"normal_normal": fit_nn.to_json(), "normal_regular": fit_nt.to_json()}),
    })


def run_expansion(config: ExperimentConfig) -> Outcome:
    pars = config.parameters
    s_values = pars.get("s_values", [25.0, 30.0, 36.0, 43.0, 52.0, 64.0])
    ts = [math.exp(-s) for s in s_values]
    checks: list[Assertion] = []
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
    return Outcome(checks, {
        "expansion.csv": csv_text(*rep.csv_table()),
        "expansion_rates.json": json_text(
            {"rate_xixi": rep.rate_xixi, "rate_thth": rep.rate_thth,
             "target_xixi": rep.target_xixi, "target_thth": rep.target_thth}),
    })
