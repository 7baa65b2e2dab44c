import math

import numpy as np
import pytest

from hornlab.geometry import (
    Euclidean,
    Horn,
    HyperbolicPlane,
    SpaceSpec,
    XI_SNAP,
    chart_vector,
    clairaut_series,
    geodesic_shoot,
    make_point,
    tangent_from_chart,
)

HORN = SpaceSpec((Horn(),))
HYP = SpaceSpec((HyperbolicPlane(),))


def reference_rk4(x0, v0, s_total, nsteps):
    """Independent fixed-step reference integration of the horn geodesic
    equation (the conservation oracle)."""
    y = np.array([x0[0], x0[1], v0[0], v0[1]], dtype=float)

    def rhs(y):
        th, xi, vt, vx = y
        return np.array([vt, vx, -(6.0 / xi) * vt * vx, 0.75 * xi**5 * vt * vt])

    h = s_total / nsteps
    for _ in range(nsteps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def test_radial_inward_shoot_hits_stratum():
    p = make_point(HORN, [(1.3, 1.0)])
    seg = geodesic_shoot(HORN, p, tangent_from_chart(HORN, [0.0, -1.0]), 2.0)
    assert seg.hit_stratum
    assert seg.end.stratum() == frozenset({0})
    # theta stays constant along the radial geodesic
    assert np.max(np.abs(seg.chart[:, 0] - 1.3)) == 0.0
    # the run covers the radial distance up to the snap tail
    assert seg.length == pytest.approx(2.0 - 2.0 * XI_SNAP, abs=1e-9)


def test_vertical_hyperbolic_shoot():
    p = make_point(HYP, [(0.0, 1.0)])
    seg = geodesic_shoot(HYP, p, tangent_from_chart(HYP, [0.0, 1.0]), math.log(2.0))
    end = chart_vector(HYP, seg.end)
    assert end[0] == pytest.approx(0.0, abs=1e-12)
    assert end[1] == pytest.approx(2.0, abs=1e-9)


def test_speed_and_clairaut_conservation():
    p = make_point(HORN, [(0.0, 0.8)])
    seg = geodesic_shoot(HORN, p, tangent_from_chart(HORN, [1.0, 0.0]), 1.0)
    assert np.max(np.abs(seg.speeds - 1.0)) <= 1e-8
    cl = clairaut_series(HORN, seg)
    assert np.max(np.abs(cl - cl[:, :1])) <= 1e-8


def test_shoot_matches_reference_integration():
    # unit initial speed: metric diag(xi^6, 4) at xi = 0.8
    xi0 = 0.8
    vth = 1.0 / math.sqrt(xi0**6)
    p = make_point(HORN, [(0.0, xi0)])
    seg = geodesic_shoot(HORN, p, tangent_from_chart(HORN, [vth, 0.0]), 0.7, atol=1e-12)
    ref = reference_rk4((0.0, xi0), (vth, 0.0), 0.7, 700)
    end = chart_vector(HORN, seg.end)
    assert end[0] == pytest.approx(ref[0], abs=1e-8)
    assert end[1] == pytest.approx(ref[1], abs=1e-8)


def test_shoot_product_space():
    space = SpaceSpec((Horn(), Euclidean(2)))
    p = make_point(space, [(0.0, 1.0), (0.0, 0.0)])
    v = tangent_from_chart(space, [0.3, 0.1, 0.5, -0.2])
    seg = geodesic_shoot(space, p, v, 1.2)
    assert np.max(np.abs(seg.speeds - 1.0)) <= 1e-8
    # Euclidean block moves on a straight line
    e = seg.chart[:, 2:]
    d = e[-1] - e[0]
    cross = np.abs(e[:, 0] * d[1] - e[:, 1] * d[0])
    assert np.max(cross) <= 1e-10


def test_step_underflow_reports_last_state():
    from hornlab.errors import IntegrationError

    p = make_point(HORN, [(0.0, 1.0)])
    with pytest.raises(IntegrationError) as exc:
        geodesic_shoot(HORN, p, tangent_from_chart(HORN, [1.0, 0.0]), 1.0,
                       h_max=1e-3, min_step=1e-2)
    assert exc.value.last_state is not None


def test_shoot_rejects_bad_input():
    p = make_point(HORN, [(0.0, 1.0)])
    with pytest.raises(ValueError):
        geodesic_shoot(HORN, p, tangent_from_chart(HORN, [0.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        geodesic_shoot(HORN, p, tangent_from_chart(HORN, [1.0, 0.0]), -1.0)
    bd = make_point(HORN, [None])
    with pytest.raises(ValueError):
        geodesic_shoot(HORN, bd, tangent_from_chart(HORN, [1.0, 0.0]), 1.0)


def test_point_at_interpolation():
    p = make_point(HYP, [(0.0, 1.0)])
    seg = geodesic_shoot(HYP, p, tangent_from_chart(HYP, [0.0, 1.0]), 1.0)
    # cubic Hermite between accepted steps (see test_shoot_order.py for its bound)
    mid = seg.point_at(0.5)
    x, y = mid.blocks[0]
    assert y == pytest.approx(math.exp(0.5), abs=1e-3)
