"""Oracles for the eighth-order shoot: the imported tableau's order
conditions, closed-form hyperbolic geodesics, horn first integrals, its
step budget on a coupled reference shoot and the interpolation of shot segments."""

import math

import numpy as np
import pytest

import hornlab.geometry.connect as connect_mod
from hornlab.geometry import (
    Euclidean,
    Horn,
    HyperbolicPlane,
    PerturbedHorn,
    SpaceSpec,
    chart_vector,
    clairaut_series,
    distance,
    geodesic_shoot,
    make_point,
    shooting_connect,
    tangent_from_chart,
)
from hornlab.geometry.shoot import _tableau
from hornlab.geometry.spaces import point_key

HORN = SpaceSpec((Horn(),))
HYP = SpaceSpec((HyperbolicPlane(),))
COUPLED = SpaceSpec((PerturbedHorn(B=1.0, a4=0.1, b3=0.2), Euclidean(1)))


def test_tableau_order_conditions():
    A, B, E5, E3 = _tableau()
    n = len(B)
    assert len(A) == n and len(E5) == len(E3) == n + 1
    c = np.array([row.sum() for row in A])
    assert B.sum() == pytest.approx(1.0, abs=1e-14)
    for k in range(1, 9):  # quadrature conditions of order 8
        assert B @ c ** (k - 1) == pytest.approx(1.0 / k, abs=1e-14)
    # E5 and E3 are B less embedded weights of orders 5 and 3; their
    # last entry weighs stage n, evaluated at the new state (c = 1)
    c_ext = np.append(c, 1.0)
    for k in range(1, 6):
        assert abs(E5 @ c_ext ** (k - 1)) <= 1e-14
    for k in range(1, 4):
        assert abs(E3 @ c_ext ** (k - 1)) <= 1e-14


def _hyperbolic_exp(x0, y0, phi, s):
    """Closed-form geodesic of the upper half-plane: ``i e^s`` rotated about
    i by ``theta`` (which turns tangents by 2 theta), then scaled by y0 and
    moved by x0; phi is the Euclidean angle of the initial velocity."""
    th = 0.5 * (phi - 0.5 * math.pi)
    z = 1j * math.exp(s)
    w = (math.cos(th) * z + math.sin(th)) / (-math.sin(th) * z + math.cos(th))
    return x0 + y0 * w.real, y0 * w.imag


@pytest.mark.parametrize("seed", range(6))
def test_hyperbolic_shoot_matches_closed_form(seed):
    rng = np.random.default_rng(seed)
    x0, y0 = rng.uniform(-1.0, 1.0), rng.uniform(0.3, 3.0)
    phi, s = rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 2.5)
    p = make_point(HYP, [(x0, y0)])
    seg = geodesic_shoot(HYP, p, tangent_from_chart(HYP, [math.cos(phi), math.sin(phi)]), s,
                         atol=1e-12)
    want = np.array(_hyperbolic_exp(x0, y0, phi, s))
    got = chart_vector(HYP, seg.end)
    assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_horn_shoot_conserves_clairaut_integral():
    # a heading with both angular and radial parts: the level swings
    # through a turning point, and f(xi) theta' stays put
    p = make_point(HORN, [(0.2, 0.5)])
    seg = geodesic_shoot(HORN, p, tangent_from_chart(HORN, [1.4, -0.3]), 1.5, atol=1e-12)
    assert not seg.hit_stratum
    cl = clairaut_series(HORN, seg)
    assert np.max(np.abs(cl - cl[:, :1])) <= 1e-11 * np.max(np.abs(cl))
    assert np.max(np.abs(seg.speeds - 1.0)) <= 1e-11


def test_coupled_distance_step_budget(monkeypatch):
    p = make_point(COUPLED, [(0.0, 0.8), (0.0,)])
    q = make_point(COUPLED, [(0.4, 0.9), (0.7,)])
    steps = []
    real_shoot_rows = connect_mod.shoot_rows

    def counting(*args, **kwargs):
        run = real_shoot_rows(*args, **kwargs)
        steps.append(len(run.s) - 1)  # accepted steps
        return run

    monkeypatch.setattr(connect_mod, "shoot_rows", counting)
    # one coupled horn splits off the chart and takes no step; the
    # reference shoot of the full chart keeps its budget
    distance(COUPLED, p, q)
    assert steps == []
    shooting_connect(COUPLED, *sorted((p, q), key=point_key))
    assert 0 < sum(steps) <= 60


@pytest.mark.parametrize("space, start, heading", [
    (HYP, [(-0.5, 1.0)], [1.0, 0.4]),
    (HORN, [(0.2, 0.8)], [1.4, 0.3]),
], ids=["H2", "Horn"])
def test_shot_segment_point_at_follows_arclength(space, start, heading):
    # one sample per accepted step is sparse: point_at must interpolate
    # to far better than the chord between samples
    p = make_point(space, start)
    seg = geodesic_shoot(space, p, tangent_from_chart(space, heading), 1.5)
    assert len(seg.params) < 20
    err = max(abs(distance(space, p, seg.point_at(x)) - x * seg.length)
              for x in np.linspace(0.01, 0.99, 99))
    assert err <= 1e-5
