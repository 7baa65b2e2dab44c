"""Every leg kind of an interior horn geodesic: one monotone leg, up or
down, or two legs meeting at the turning level (symmetric, asymmetric, a
shallow dip below one ulp of the lower level), and a perturbed profile on
the Gauss-Legendre panel route."""

import math

import numpy as np
import pytest

from hornlab.geometry import (
    Horn,
    PerturbedHorn,
    SpaceSpec,
    chart_vector,
    distance,
    geodesic_connect,
    geodesic_shoot,
    make_point,
    point_along,
)
from hornlab.geometry.connect import _branch_integral, _WarpedPath

HORN = SpaceSpec((Horn(),))
PERTURBED = SpaceSpec((PerturbedHorn(B=2.0, a4=0.1, c6=0.05),))

# angle swept by the path tangent at xi = 0.5 up to xi = 1.5: the largest
# gap a monotone leg between those levels can span
TANGENT = _branch_integral(Horn().profile, 0.5, 0.0, 1.0, "theta")

# name: (space, p block, q block, leg directions in path order)
CASES = {
    "monotone-up": (HORN, (0.0, 0.5), (0.5 * TANGENT, 1.5), [False]),
    "monotone-down": (HORN, (0.3, 1.5), (0.3 - 0.5 * TANGENT, 0.5), [True]),
    "turning-symmetric": (HORN, (-0.4, 0.9), (0.4, 0.9), [True, False]),
    "turning-asymmetric": (HORN, (-2.0, 0.6), (2.0, 1.3), [True, False]),
    "shallow-dip": (HORN, (0.0, 0.5), (TANGENT * (1.0 + 1e-9), 1.5), [True, False]),
    "perturbed-panels": (PERTURBED, (-1.5, 0.7), (1.5, 1.2), [True, False]),
}


def _case(name):
    space, a, b, downs = CASES[name]
    p, q = make_point(space, [a]), make_point(space, [b])
    path = _WarpedPath(space.factors[0].profile, p.blocks[0], q.blocks[0])
    return space, p, q, path, downs


@pytest.mark.parametrize("name", CASES)
def test_leg_layout(name):
    _, p, q, path, downs = _case(name)
    assert [leg.down for leg in path.legs] == downs
    if len(downs) == 2:  # both legs start at the turning level
        assert all(leg.off == 0.0 for leg in path.legs)
        assert path.length == path.legs[0].length + path.legs[1].length
    else:
        assert path.legs[0].off > 0.0
        assert path.legs[0].span == abs(q.blocks[0].xi - p.blocks[0].xi)


def test_shallow_dip_sits_below_one_ulp():
    _, p, _, path, _ = _case("shallow-dip")
    lo = p.blocks[0].xi
    assert 0.0 < path.legs[0].span < 0.5 * math.ulp(lo)


@pytest.mark.parametrize("name", CASES)
def test_point_along_splits_the_distance(name):
    space, p, q, _, _ = _case(name)
    d = distance(space, p, q)
    for k in range(1, 8):
        r = point_along(space, p, q, k / 8)
        assert abs(distance(space, p, r) - (k / 8) * d) <= 1e-12 * d, k


@pytest.mark.parametrize("name", [n for n, c in CASES.items() if len(c[3]) == 2])
def test_turning_path_reaches_turning_level(name):
    _, _, _, path, _ = _case(name)
    assert path.point(path.legs[0].length).xi == path.xi_star
    assert path.velocity(0.0)[1] < 0.0 < path.velocity(path.length)[1]


@pytest.mark.parametrize("name", CASES)
def test_velocity_shoots_to_q(name):
    space, p, q, _, _ = _case(name)
    seg = geodesic_connect(space, p, q)
    shot = geodesic_shoot(space, p, seg.velocity, seg.length, atol=1e-12)
    end = chart_vector(space, shot.end)
    want = chart_vector(space, q)
    assert np.linalg.norm(end - want) <= 1e-7 * (1 + np.linalg.norm(want))
