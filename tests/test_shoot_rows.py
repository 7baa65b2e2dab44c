"""The row integrator: stacked shoots, their base row and the shared-step
Jacobian that shooting takes from the partner rows."""

import math
import warnings

import numpy as np
import pytest

import hornlab.geometry.connect as connect_mod
from hornlab.errors import IntegrationError
from hornlab.geometry import (
    Euclidean,
    Horn,
    HyperbolicPlane,
    PerturbedHorn,
    SpaceSpec,
    acceleration_fn,
    chart_vector,
    distance,
    geodesic_connect,
    geodesic_shoot,
    make_point,
    metric_batch,
    midpoint,
    point_along,
    shooting_connect,
    tangent_from_chart,
)
from hornlab.geometry.connect import _shoot_with_jacobian
from hornlab.geometry.shoot import shoot_rows
from hornlab.geometry.spaces import point_key

HORN = SpaceSpec((Horn(),))
HYP = SpaceSpec((HyperbolicPlane(),))
HORN_E1 = SpaceSpec((Horn(), Euclidean(1)))
COUPLED = SpaceSpec((PerturbedHorn(B=1.0, a4=0.1, b3=0.2), Euclidean(1)))
UNDERFLOW = SpaceSpec((PerturbedHorn(B=1.0, b3=0.3), Euclidean(1)))
TWO_COUPLED = SpaceSpec((PerturbedHorn(B=1.0, b3=0.2), PerturbedHorn(B=1.0, a4=0.1, b3=0.2),
                         Euclidean(1)))

# (space, start blocks, chart velocity, arclength)
CASES = {
    "Horn": (HORN, [(0.2, 0.5)], [1.4, 0.3], 0.9),
    "H2": (HYP, [(-0.5, 1.0)], [1.0, 0.4], 1.3),
    "HornxE1": (HORN_E1, [(0.0, 0.8), (0.1,)], [0.9, -0.2, 0.5], 1.1),
    "COUPLED": (COUPLED, [(0.0, 0.8), (0.0,)], [0.4, 0.1, 0.7], 0.8),
}


def _partner_rows(v, delta):
    return np.vstack([v, v + delta * np.eye(len(v))])


@pytest.mark.parametrize("name", sorted(CASES))
def test_base_row_matches_geodesic_shoot(name):
    space, blocks, vel, length = CASES[name]
    p = make_point(space, blocks)
    x = chart_vector(space, p)
    v = np.array(vel)
    unit = v / math.sqrt(v @ metric_batch(space, x) @ v)
    seg = geodesic_shoot(space, p, tangent_from_chart(space, v), length, atol=1e-12)
    run = shoot_rows(space, x, _partner_rows(unit, 1e-7), length, atol=1e-12)
    assert len(run.end) == space.dim + 1
    want = chart_vector(space, seg.end)
    assert np.max(np.abs(run.end[0, :space.dim] - want)) <= 1e-14 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("name", ["Horn", "H2", "COUPLED"])
def test_shared_step_jacobian_matches_central_differences(name):
    space, blocks, vel, _ = CASES[name]
    p = make_point(space, blocks)
    x0 = chart_vector(space, p)
    v = np.array(vel)
    end, J = _shoot_with_jacobian(space, x0, v)

    def exp_end(w):  # exp_x0(w), by an independent shoot of its own
        speed = math.sqrt(w @ metric_batch(space, x0) @ w)
        seg = geodesic_shoot(space, p, tangent_from_chart(space, w), speed, atol=1e-12)
        return chart_vector(space, seg.end)

    eps = 1e-4
    ref = np.empty_like(J)
    for k in range(space.dim):
        e = eps * np.eye(space.dim)[k]
        ref[:, k] = (exp_end(v + e) - exp_end(v - e)) / (2 * eps)
    assert np.max(np.abs(end - exp_end(v))) <= 1e-12
    assert np.max(np.abs(J - ref)) <= 1e-6 * np.max(np.abs(ref))


@pytest.mark.parametrize("space", [HORN_E1, COUPLED], ids=["HornxE1", "COUPLED"])
def test_stacked_acceleration_matches_rows(space):
    accel = acceleration_fn(space)
    rng = np.random.default_rng(3)
    X = np.column_stack([rng.uniform(-1, 1, 4), rng.uniform(0.3, 1.2, 4), rng.uniform(-1, 1, 4)])
    V = rng.normal(size=(4, 3))
    stacked = accel(X, V)
    for row, x, v in zip(stacked, X, V):
        assert np.max(np.abs(row - accel(x, v))) <= 1e-14 * (1.0 + np.max(np.abs(row)))


@pytest.mark.parametrize("partner", [[0.0, -0.5], [math.nan, 0.5]], ids=["snaps", "nan"])
def test_bad_partner_row_leaves_base_row_alone(partner):
    # the base row climbs radially; the partner falls into the stratum
    # (or is not finite) and takes every partner with it
    p = make_point(HORN, [(0.3, 0.5)])
    x = chart_vector(HORN, p)
    rows = np.array([[0.0, 0.5], partner, [0.0, 0.49]])
    run = shoot_rows(HORN, x, rows, 1.5, atol=1e-12)
    alone = shoot_rows(HORN, x, rows[:1], 1.5, atol=1e-12)
    assert not run.hit and len(run.end) == 1
    assert np.array_equal(run.s, alone.s)
    assert np.max(np.abs(run.end[0] - alone.end[0])) <= 1e-15
    assert run.end[0, 1] == pytest.approx(1.25, abs=1e-12)


def test_underflow_pair_base_row_still_raises():
    p = make_point(UNDERFLOW, [(0.7148085531751387, 0.14718925640407762),
                               (0.45931089285988813,)])
    q = make_point(UNDERFLOW, [(-0.648688758794882, 1.1711044827554205),
                               (0.08292244049818343,)])
    a, b = (q, p) if point_key(q) < point_key(p) else (p, q)
    with pytest.raises(IntegrationError):
        shooting_connect(UNDERFLOW, a, b)
    # the split chart never shoots; 2.0517456505754383 is the product
    # oracle of tests/test_coupled.py (oracle_distance)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = distance(UNDERFLOW, p, q)
    assert abs(d - 2.0517456505754383) <= 1e-12


def test_coupled_distance_needs_no_sampled_segment(monkeypatch):
    calls = []
    real_shoot_rows = connect_mod.shoot_rows

    def counting(*args, **kwargs):
        calls.append(1)
        return real_shoot_rows(*args, **kwargs)

    monkeypatch.setattr(connect_mod, "shoot_rows", counting)
    # one coupled horn: the split chart shoots nothing
    p = make_point(COUPLED, [(0.0, 0.8), (0.0,)])
    q = make_point(COUPLED, [(0.4, 0.9), (0.7,)])
    distance(COUPLED, p, q)
    midpoint(COUPLED, p, q)
    geodesic_connect(COUPLED, p, q, samples=5)
    assert calls == []
    # two coupled horns: distance shoots exactly what its shooting solve
    # shoots, nothing more
    p = make_point(TWO_COUPLED, [(0.0, 0.8), (0.1, 0.7), (0.0,)])
    q = make_point(TWO_COUPLED, [(0.4, 0.9), (0.3, 0.9), (0.7,)])
    d = distance(TWO_COUPLED, p, q)
    in_distance = len(calls)
    calls.clear()
    shooting_connect(TWO_COUPLED, *sorted((p, q), key=point_key))
    assert in_distance == len(calls) > 0
    monkeypatch.undo()
    # points along the geodesic are shot again from its start
    m = midpoint(TWO_COUPLED, p, q)
    assert distance(TWO_COUPLED, p, m) == pytest.approx(0.5 * d, rel=1e-9)
    seg = geodesic_connect(TWO_COUPLED, p, q, samples=5)
    assert seg.length == d
    assert chart_vector(TWO_COUPLED, seg.point_at(0.5)) == pytest.approx(
        chart_vector(TWO_COUPLED, m), abs=1e-14)


@pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
def test_coupled_points_along_split_the_distance(frac):
    p = make_point(COUPLED, [(0.0, 0.8), (0.0,)])
    q = make_point(COUPLED, [(0.4, 0.9), (0.7,)])
    d = distance(COUPLED, p, q)
    for a, b in ((p, q), (q, p)):
        r = point_along(COUPLED, a, b, frac)
        assert distance(COUPLED, a, r) == pytest.approx(frac * d, rel=1e-9)
        assert distance(COUPLED, r, b) == pytest.approx((1 - frac) * d, rel=1e-9)
