"""Per-layer metrics: traced spans of each module's public functions, a
fixed layer probe that drives every layer once, and fixed-input kernel timings.

The layers are hornlab's modules: ``spaces``, ``tensors``, ``shoot`` and
``connect`` under ``geometry/``, then ``paths``, ``actions``,
``asymptotics`` and ``experiments``.
"""

from __future__ import annotations

import statistics
import time

from hornlab import actions, asymptotics, experiments, paths
from hornlab.errors import ConnectError, DistanceIntervalError, IntegrationError
from hornlab.geometry import connect, shoot, spaces, tensors
from hornlab.geometry import chart_vector, make_point, tangent_from_chart

from spans import Tracer
from workloads import COUPLED, COUPLED_P, COUPLED_Q, HORN, HYP, QUERY_SPACES


def _rk_steps(tracer, seg):
    tracer.counts["shoot.rk_steps"] += len(seg.params) - 1
    return seg


def _counted_accel(tracer, accel):
    def counted(x, v):
        tracer.counts["shoot.accel_calls"] += 1
        return accel(x, v)
    return counted


def _sweeps(tracer, result):
    tracer.counts["paths.sweeps"] += result[1].iterations
    return result


def _evals(tracer, res):
    tracer.counts["actions.translation_length.evals"] += res.evaluations
    return res


def _inconclusive(tracer, res):
    if res.status != "ok":
        tracer.counts["actions.inconclusive"] += 1
    return res


# (module, attribute, span name, post-processing, error counters)
TARGETS = [
    (spaces, "make_point", "spaces.make_point", None, None),
    (tensors, "metric_at_chart", "tensors.metric_at_chart", None, None),
    (shoot, "acceleration_fn", "shoot.acceleration_fn", _counted_accel, None),
    (shoot, "geodesic_shoot", "shoot.geodesic_shoot", _rk_steps,
     {IntegrationError: "shoot.integration_errors"}),
    (connect, "distance", "connect.distance", None,
     {DistanceIntervalError: "connect.interval_errors"}),
    (connect, "midpoint", "connect.midpoint", None, None),
    (connect, "point_along", "connect.point_along", None, None),
    (connect, "shooting_connect", "connect.shooting", None,
     {ConnectError: "connect.shooting.failures"}),
    (connect, "curve_shortening_connect", "connect.curve_shortening", None, None),
    (paths, "heat_flow", "paths.heat_flow", _sweeps, None),
    (paths, "refine_flow", "paths.refine_flow", None, None),
    (actions, "displacement", "actions.displacement", None, None),
    (actions, "translation_length", "actions.translation_length", _evals, None),
    (actions, "classify", "actions.classify", _inconclusive, None),
    (actions, "axis", "actions.axis", None, None),
    (actions, "divergence_profile", "actions.divergence_profile", None, None),
    (asymptotics, "cometric_pairing", "asymptotics.cometric_pairing", None, None),
    (asymptotics, "substitution_check", "asymptotics.substitution_check", None, None),
    (experiments, "run_experiment", "experiments.run_experiment", None, None),
]

CALL_SPANS = [
    "connect.distance", "connect.midpoint", "connect.point_along", "connect.shooting",
    "connect.curve_shortening", "shoot.geodesic_shoot", "tensors.metric_at_chart",
    "spaces.make_point", "paths.heat_flow", "actions.displacement",
    "asymptotics.cometric_pairing", "experiments.run_experiment",
]
SELF_SPANS = [
    "connect.distance", "connect.midpoint", "connect.point_along", "connect.shooting",
    "connect.curve_shortening", "shoot.geodesic_shoot", "tensors.metric_at_chart",
    "spaces.make_point", "paths.heat_flow", "actions.classify", "actions.axis",
    "actions.divergence_profile", "asymptotics.cometric_pairing",
    "asymptotics.substitution_check", "experiments.run_experiment",
]
COUNTERS = [
    "connect.interval_errors", "connect.shooting.failures", "shoot.rk_steps",
    "shoot.accel_calls", "shoot.integration_errors", "paths.sweeps",
    "actions.translation_length.evals", "actions.inconclusive",
]


def layer_metrics(tracer: Tracer) -> dict:
    """Counts and self times of one traced pass, keyed by metric name."""
    out = {}
    for span in CALL_SPANS:
        out[f"{span}.calls"] = (tracer.calls[span], "count")
    for span in SELF_SPANS:
        out[f"{span}.self_ms"] = (tracer.self_s[span] * 1e3, "ms")
    for name in COUNTERS:
        out[name] = (tracer.counts[name], "count")
    steps = tracer.counts["shoot.rk_steps"]
    out["shoot.accel_per_step"] = (
        tracer.counts["shoot.accel_calls"] / steps if steps else 0.0, "count/step")
    sweeps = tracer.counts["paths.sweeps"]
    solves = tracer.children_of("paths.heat_flow", "connect.")
    out["paths.solves_per_sweep"] = (solves / sweeps if sweeps else 0.0, "count/sweep")
    out["paths.refine_doublings"] = (
        tracer.children_of("paths.refine_flow", "paths.heat_flow")
        - tracer.calls["paths.refine_flow"], "count")
    return out


# ---------------------------------------------------------------------------
# fixed inputs

PERTURBED = QUERY_SPACES["PerturbedHorn"]


def layer_probe():
    """Drive every traced layer once on fixed inputs (about a second).

    Every traced run ends with this, so each layer's span is non-empty on
    every workload; its share is the same on all workloads of a commit.
    """
    hp, hq = make_point(HORN, [(0.2, 0.5)]), make_point(HORN, [(0.9, 1.2)])
    connect.distance(HORN, hp, hq)
    connect.midpoint(HORN, hp, hq)
    yp, yq = make_point(HYP, [(-0.5, 1.0)]), make_point(HYP, [(1.0, 2.0)])
    connect.shooting_connect(HYP, yp, yq)
    connect.curve_shortening_connect(HYP, yp, yq)
    hyp, g1, g2 = experiments.independent_pair()
    base = make_point(hyp, [(0.05, 1.0)])
    ax1 = actions.axis(g1, paths.equivariant_seed(hyp, g1, base, 4), tol=1e-8)
    ax2 = actions.axis(g2, paths.equivariant_seed(hyp, g2, base, 4), tol=1e-8)
    actions.divergence_profile(ax1, ax2, [2.0], grid_points=5)
    actions.classify(experiments.canonical_isometries()[actions.PERIODIC])
    experiments.run_experiment(experiments.ExperimentConfig(
        "expansion", parameters={"s_values": [25.0, 30.0]}))


def _median_call(fn, budget_s=0.2, min_reps=5, max_reps=2000):
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - start < budget_s
                                    and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_timings() -> dict:
    """Median per-call times of the layer kernels on fixed inputs."""
    hp, hq = make_point(HORN, [(0.2, 0.5)]), make_point(HORN, [(0.9, 1.2)])
    pp, pq = make_point(PERTURBED, [(0.2, 0.5)]), make_point(PERTURBED, [(0.9, 1.2)])
    yp, yq = make_point(HYP, [(-0.5, 1.0)]), make_point(HYP, [(1.0, 2.0)])
    cp, cq = make_point(COUPLED, COUPLED_P), make_point(COUPLED, COUPLED_Q)
    accel = shoot.acceleration_fn(COUPLED)
    cx = chart_vector(COUPLED, cp)
    cv = chart_vector(COUPLED, cq) - cx
    start = make_point(HORN, [(0.0, 1.0)])
    heading = tangent_from_chart(HORN, [0.3, -0.2])
    nn = asymptotics.DifferentialModel.NORMAL
    us, ms = 1e6, 1e3
    return {
        "connect.horn_distance_us": (
            _median_call(lambda: connect.distance(HORN, hp, hq)) * us, "us"),
        "connect.horn_midpoint_us": (
            _median_call(lambda: connect.midpoint(HORN, hp, hq)) * us, "us"),
        "connect.perturbed_distance_us": (
            _median_call(lambda: connect.distance(PERTURBED, pp, pq)) * us, "us"),
        "connect.hyperbolic_distance_us": (
            _median_call(lambda: connect.distance(HYP, yp, yq)) * us, "us"),
        "connect.hyperbolic_midpoint_us": (
            _median_call(lambda: connect.midpoint(HYP, yp, yq)) * us, "us"),
        "connect.coupled_distance_ms": (
            _median_call(lambda: connect.distance(COUPLED, cp, cq), 0.0, 1) * ms, "ms"),
        "shoot.horn_shoot_ms": (
            _median_call(lambda: shoot.geodesic_shoot(HORN, start, heading, 1.0)) * ms, "ms"),
        "shoot.coupled_accel_us": (_median_call(lambda: accel(cx, cv)) * us, "us"),
        "asymptotics.pairing_ms": (
            _median_call(lambda: asymptotics.cometric_pairing(nn, nn, 1e-5), 0.3, 3) * ms,
            "ms"),
    }


def traced(fn):
    """Run ``fn()`` then :func:`layer_probe` under a fresh tracer; returns
    ``(tracer, seconds fn took)``."""
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        layer_probe()
    finally:
        tracer.remove()
    return tracer, wall

