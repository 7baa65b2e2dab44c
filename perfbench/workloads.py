"""The four seeded workloads: inputs, timed task lists and oracles.

Each workload builds its inputs from the benchmark seed alone; hornlab
only ever sees the generated inputs.  A workload is a list of top-level
operations (``Task``) run in order by one client, closed loop, plus an
oracle that checks their outputs after the timed window.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from hornlab.errors import HornlabError
from hornlab.actions import Axis, DivergenceReport, axis, divergence_profile
from hornlab.experiments import (
    ExperimentConfig,
    ExperimentReport,
    independent_pair,
    run_experiment,
)
from hornlab.geometry import (
    BOUNDARY,
    Euclidean,
    Horn,
    HornPoint,
    HyperbolicPlane,
    PerturbedHorn,
    SpaceSpec,
    curve_shortening_connect,
    distance,
    lower_bound_distance,
    make_point,
    midpoint,
    shooting_connect,
    upper_bound_distance,
)
from hornlab.paths import equivariant_seed


class Inconclusive(HornlabError):
    """An experiment report came back inconclusive."""


class DependencyFailed(HornlabError):
    """A task needs the output of an earlier task that failed."""


@dataclass
class Task:
    op: str                   # operation name, e.g. "distance"
    input: str                # printable input, for the failure list
    fn: Callable[[], object]  # the timed call


@dataclass
class Workload:
    tasks: list[Task]
    check: Callable[[list], list[tuple[int, str]]]  # outputs -> (task index, miss)


#: seeded jitter on fixed inputs: +-JITTER on theta and x, a factor
#: exp(+-JITTER) on xi and y
JITTER = 0.02


def _pt(point):
    blocks = []
    for b in point.blocks:
        if b is BOUNDARY:
            blocks.append("boundary")
        elif isinstance(b, HornPoint):
            blocks.append((b.theta, b.xi))
        else:
            blocks.append(b)
    return repr(blocks)


def _hyp_closed_form(a, b) -> float:
    (x1, y1), (x2, y2) = a, b
    return math.acosh(1.0 + ((x2 - x1) ** 2 + (y2 - y1) ** 2) / (2.0 * y1 * y2))


def _radial_H(factor, xi) -> float:
    """Radial arclength from the collapsed axis, by adaptive quadrature."""
    if isinstance(factor, Horn):
        return 2.0 * xi
    val, _ = quad(lambda s: 2.0 * math.sqrt(factor.B * (1.0 + factor.a4 * s**4)),
                  0.0, xi, epsabs=0.0, epsrel=1e-13)
    return val


def _unsettled(report) -> Inconclusive:
    bad = [f"{a.name}={a.measured!r}" for a in report.assertions if not a.passed]
    return Inconclusive(f"{report.experiment} inconclusive: {bad}")


def _checked(misses, index, fn):
    """Run one oracle computation; a HornlabError in it is a miss."""
    try:
        fn()
    except HornlabError as exc:
        misses.append((index, f"oracle call raised {type(exc).__name__}: {exc}"))


# ---------------------------------------------------------------------------
# queries: distance and midpoint on seeded pairs

QUERY_SPACES = {
    "Horn": SpaceSpec((Horn(),)),
    "HornxE1": SpaceSpec((Horn(), Euclidean(1))),
    "HornxH2": SpaceSpec((Horn(), HyperbolicPlane())),
    "HornxHorn": SpaceSpec((Horn(), Horn())),
    "PerturbedHorn": SpaceSpec((PerturbedHorn(B=2.0, a4=0.1, c6=0.05),)),
}
PAIRS_PER_SPACE = 100
BOUNDARY_FRAC = 0.05
RADIAL_FRAC = 0.05


def _query_chain(space, rng, n):
    """n points; consecutive points form the query pairs.  Every draw is
    made whatever its use, so the stream does not depend on outcomes."""
    points = []
    prev = None
    for _ in range(n):
        blocks = []
        for k, factor in enumerate(space.factors):
            u_bnd, u_rad, theta, log_xi = rng.uniform(size=4)
            if isinstance(factor, Euclidean):
                blocks.append((2.0 * theta - 1.0,))
            elif isinstance(factor, HyperbolicPlane):
                blocks.append((2.0 * theta - 1.0, math.exp(2.0 * log_xi - 1.0)))
            elif u_bnd < BOUNDARY_FRAC:
                blocks.append(None)
            else:
                th = 6.0 * theta - 3.0
                if (u_rad < RADIAL_FRAC and prev is not None
                        and isinstance(prev.blocks[k], HornPoint)):
                    th = prev.blocks[k].theta  # radial pair
                blocks.append((th, math.exp(-4.0 + 4.7 * log_xi)))
        prev = make_point(space, blocks)
        points.append(prev)
    return points


def _factor_closed_form(factor, a, b):
    """Closed-form factor distance, or None when only a solve gives it."""
    if isinstance(factor, Euclidean):
        return math.dist(a, b)
    if isinstance(factor, HyperbolicPlane):
        return _hyp_closed_form(a, b)
    if a is BOUNDARY or b is BOUNDARY or a.theta == b.theta:
        xa = 0.0 if a is BOUNDARY else a.xi
        xb = 0.0 if b is BOUNDARY else b.xi
        return abs(_radial_H(factor, xa) - _radial_H(factor, xb))
    return None


def queries(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    pairs = []  # (space, p, q, next point or None)
    tasks = []
    for name, space in QUERY_SPACES.items():
        chain = _query_chain(space, rng, PAIRS_PER_SPACE + 1)
        for i in range(PAIRS_PER_SPACE):
            p, q = chain[i], chain[i + 1]
            nxt = chain[i + 2] if i + 2 < len(chain) else None
            pairs.append((space, p, q, nxt))
            text = f"{name} p={_pt(p)} q={_pt(q)}"
            tasks.append(Task("distance", text, lambda s=space, p=p, q=q: distance(s, p, q)))
            tasks.append(Task("midpoint", text, lambda s=space, p=p, q=q: midpoint(s, p, q)))

    def check(outputs):
        misses = []
        for i, (space, p, q, nxt) in enumerate(pairs):
            d, m = outputs[2 * i], outputs[2 * i + 1]
            if d is None or m is None:
                continue
            k = 2 * i

            def symmetric():
                back = distance(space, q, p)
                if back != d:
                    misses.append((k, f"d(q,p)={back!r} != d(p,q)={d!r}"))

            def halves():
                for label, part in (("d(p,m)", distance(space, p, m)),
                                    ("d(m,q)", distance(space, m, q))):
                    if abs(part - 0.5 * d) > 1e-9 * d:
                        misses.append((k + 1, f"{label}={part!r}, want d/2={0.5 * d!r}"))

            def closed_form():
                parts = []
                for j, factor in enumerate(space.factors):
                    a, b = p.blocks[j], q.blocks[j]
                    cf = _factor_closed_form(factor, a, b)
                    if cf is None:
                        if len(space.factors) == 1:
                            return
                        sub = SpaceSpec((factor,))
                        cf = distance(sub, make_point(sub, [a]), make_point(sub, [b]))
                    parts.append(cf)
                want = math.sqrt(sum(x * x for x in parts))
                if abs(d - want) > 1e-9 * max(1.0, want):
                    misses.append((k, f"d={d!r}, closed form / Pythagoras {want!r}"))

            def triangle():
                if nxt is None:
                    return
                d_pn = distance(space, p, nxt)
                d_qn = outputs[k + 2]  # the next pair is (q, nxt)
                if d_qn is None:
                    return
                if d_pn > (d + d_qn) * (1.0 + 1e-12):
                    misses.append((k, f"triangle: d(p,r)={d_pn!r} > {d!r} + {d_qn!r}"))

            for fn in (symmetric, halves, closed_form, triangle):
                _checked(misses, k, fn)
        return misses

    return Workload(tasks, check)


# ---------------------------------------------------------------------------
# axes: heat-flow axes, their divergence, annulus pairings

R_GRID = list(range(2, 11))
#: run_diverge's base point; each axis starts from it jittered by the seed.
#: The jitter is small so the sweep count, and which op is the median op,
#: stays put across seeds
AXIS_BASE = (0.05, 1.0)


def _period(iso) -> float:
    """Translation length 2 arccosh(|tr| / 2) of a hyperbolic Moebius map."""
    return 2.0 * math.acosh(abs(iso.actions[0].trace) / 2.0)


def axes(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    hyp, g1, g2 = independent_pair()
    bases = [make_point(hyp, [(AXIS_BASE[0] + rng.uniform(-JITTER, JITTER),
                               AXIS_BASE[1] * math.exp(rng.uniform(-JITTER, JITTER)))])
             for _ in range(2)]
    state = {}

    def flow(key, iso, base):
        def run():
            state.pop(key, None)
            state[key] = axis(iso, equivariant_seed(hyp, iso, base, 16), tol=1e-10)
            return state[key]
        return run

    def diverge():
        if "ax1" not in state or "ax2" not in state:
            raise DependencyFailed("an axis failed")
        return divergence_profile(state["ax1"], state["ax2"], R_GRID)

    def experiment(name):
        def run():
            report = run_experiment(ExperimentConfig(name))
            if report.inconclusive:
                raise _unsettled(report)
            return report
        return run

    tasks = [
        Task("axis", f"g1 base={_pt(bases[0])} N=16", flow("ax1", g1, bases[0])),
        Task("axis", f"g2 base={_pt(bases[1])} N=16", flow("ax2", g2, bases[1])),
        Task("divergence_profile", f"R={R_GRID}", diverge),
        Task("masur", "default grid", experiment("masur")),
        Task("expansion", "default grid", experiment("expansion")),
    ]

    def check(outputs):
        misses = []
        for k, iso in ((0, g1), (1, g2)):
            ax = outputs[k]
            if ax is not None and abs(ax.period_length - _period(iso)) > 1e-4:
                misses.append((k, f"period {ax.period_length!r}, want {_period(iso)!r}"))
        prof = outputs[2]
        if prof is not None and not all(
                b > a for a, b in zip(prof.m_values[:-1], prof.m_values[1:])):
            misses.append((2, f"m(R) not strictly increasing: {prof.m_values}"))
        for k in (3, 4):
            rep = outputs[k]
            if rep is not None and not rep.passed:
                bad = [a.name for a in rep.assertions if not a.passed]
                misses.append((k, f"{rep.experiment} assertions failed: {bad}"))
        return misses

    return Workload(tasks, check)


# ---------------------------------------------------------------------------
# classify: the table-1 search at the workload seed

def classify(seed: int) -> Workload:
    def run():
        report = run_experiment(ExperimentConfig("table1", seed=seed))
        if report.inconclusive:
            raise _unsettled(report)
        return report

    def check(outputs):
        rep = outputs[0]
        if rep is not None and not rep.passed:
            bad = [a.name for a in rep.assertions if not a.passed]
            return [(0, f"table1 assertions failed: {bad}")]
        return []

    return Workload([Task("table1", f"seed={seed}", run)], check)


# ---------------------------------------------------------------------------
# coupled: b3-coupled distances and the generic boundary-value solvers

#: the pair of the test suite's coupled-chart connect test.  Seeded
#: coupled pairs are left out: one distance takes 2 s to 40 s there
COUPLED = SpaceSpec((PerturbedHorn(B=1.0, a4=0.1, b3=0.2), Euclidean(1)))
COUPLED_P = [(0.0, 0.8), (0.0,)]
COUPLED_Q = [(0.4, 0.9), (0.7,)]
#: reproduced step-size underflow: distance raises IntegrationError here
UNDERFLOW = SpaceSpec((PerturbedHorn(B=1.0, b3=0.3), Euclidean(1)))
UNDERFLOW_P = [(0.7148085531751387, 0.14718925640407762), (0.45931089285988813,)]
UNDERFLOW_Q = [(-0.648688758794882, 1.1711044827554205), (0.08292244049818343,)]
#: reference boundary-value problems, jittered by the seed; the jitter is
#: small so each solve's cost, and so op_p50_ms, stays put across seeds
REFERENCE_PAIRS = {
    "Horn": [((0.0, 0.8), (1.0, 0.8)), ((0.2, 0.5), (0.9, 1.2)), ((0.0, 1.5), (0.4, 1.1))],
    "H2": [((-0.5, 1.0), (1.0, 2.0)), ((0.0, 1.0), (0.5, 0.6)), ((-1.0, 0.8), (0.3, 1.5))],
}
HORN = SpaceSpec((Horn(),))
HYP = SpaceSpec((HyperbolicPlane(),))


def coupled(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 4])
    cp, cq = make_point(COUPLED, COUPLED_P), make_point(COUPLED, COUPLED_Q)
    up, uq = make_point(UNDERFLOW, UNDERFLOW_P), make_point(UNDERFLOW, UNDERFLOW_Q)
    tasks = [
        Task("distance", f"b3=0.2 p={COUPLED_P} q={COUPLED_Q}",
             lambda: distance(COUPLED, cp, cq)),
        Task("distance", f"b3=0.2 p={COUPLED_Q} q={COUPLED_P}",
             lambda: distance(COUPLED, cq, cp)),
        Task("distance", f"b3=0.3 p={UNDERFLOW_P} q={UNDERFLOW_Q}",
             lambda: distance(UNDERFLOW, up, uq)),
    ]
    refs = []  # (task index, reference distance)
    for name, space in (("Horn", HORN), ("H2", HYP)):
        for pair in REFERENCE_PAIRS[name]:
            raw = [[(a + rng.uniform(-JITTER, JITTER), b * math.exp(rng.uniform(-JITTER, JITTER)))]
                   for a, b in pair]
            p, q = make_point(space, raw[0]), make_point(space, raw[1])
            want = (_hyp_closed_form(raw[0][0], raw[1][0]) if space is HYP
                    else distance(space, p, q))  # first-integral route
            text = f"{name} p={raw[0]} q={raw[1]}"
            refs.append((len(tasks), want))
            tasks.append(Task("shooting_connect", text,
                              lambda s=space, p=p, q=q: shooting_connect(s, p, q)[1]))
            refs.append((len(tasks), want))
            tasks.append(Task("curve_shortening_connect", text,
                              lambda s=space, p=p, q=q: curve_shortening_connect(s, p, q).length))

    def check(outputs):
        misses = []
        d_pq, d_qp = outputs[0], outputs[1]
        if d_pq is not None and d_qp is not None and abs(d_pq - d_qp) > 1e-7 * d_pq:
            misses.append((1, f"d(q,p)={d_qp!r} vs d(p,q)={d_pq!r}"))
        for k, (space, p, q) in ((0, (COUPLED, cp, cq)), (2, (UNDERFLOW, up, uq))):
            d = outputs[k]
            if d is None:
                continue
            lo, hi = lower_bound_distance(space, p, q), upper_bound_distance(space, p, q)
            if not lo * (1 - 1e-12) <= d <= hi * (1 + 1e-12):
                misses.append((k, f"d={d!r} outside [{lo!r}, {hi!r}]"))
        for k, want in refs:
            got = outputs[k]
            if got is not None and abs(got - want) > 1e-6:
                misses.append((k, f"length {got!r}, reference {want!r}"))
        return misses

    return Workload(tasks, check)


def fingerprint(output) -> str:
    """Comparable text of a task output (reports without their runtime)."""
    if isinstance(output, ExperimentReport):
        return json.dumps(output.to_json(), sort_keys=True)
    if isinstance(output, Axis):
        return repr((output.period_length, output.path.nodes))
    if isinstance(output, DivergenceReport):
        return repr(output.m_values)
    return repr(output)


WORKLOADS = {"queries": queries, "axes": axes, "classify": classify, "coupled": coupled}


def warm_up(name: str) -> None:
    """First calls that fill lazy state (quadrature node cache, scipy
    submodules) before timing; a CLI user pays these on every run."""
    hp, hq = make_point(HORN, [(0.2, 0.5)]), make_point(HORN, [(0.9, 1.2)])
    distance(HORN, hp, hq)
    midpoint(HORN, hp, hq)
    yp, yq = make_point(HYP, [(-0.5, 1.0)]), make_point(HYP, [(1.0, 2.0)])
    distance(HYP, yp, yq)
    midpoint(HYP, yp, yq)
    if name == "queries":
        for space in QUERY_SPACES.values():
            blocks = [(0.2, 0.5) if not isinstance(f, Euclidean) else (0.0,)
                      for f in space.factors]
            other = [(0.9, 1.2) if not isinstance(f, Euclidean) else (1.0,)
                     for f in space.factors]
            midpoint(space, make_point(space, blocks), make_point(space, other))
