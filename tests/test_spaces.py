import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornlab.actions import base_point, random_point
from hornlab.geometry import (
    XI_SNAP,
    BoundaryPoint,
    Euclidean,
    Horn,
    HornPoint,
    HyperbolicPlane,
    PerturbedHorn,
    SpaceSpec,
    chart_vector,
    make_point,
    point_from_chart,
    point_from_json,
    point_key,
    point_to_json,
    points_equal,
    space_from_json,
    space_to_json,
)
from hornlab.geometry.spaces import XI_ATTAIN, point_from_search


def test_space_validation():
    with pytest.raises(ValueError):
        SpaceSpec(())
    with pytest.raises(ValueError):
        Euclidean(0)
    with pytest.raises(ValueError):
        PerturbedHorn(B=0.0)
    with pytest.raises(ValueError):
        PerturbedHorn(B=1.0, a4=-0.1)
    # b3 coupling needs a Euclidean factor somewhere in the product
    with pytest.raises(ValueError):
        SpaceSpec((PerturbedHorn(B=1.0, b3=0.5),))
    SpaceSpec((PerturbedHorn(B=1.0, b3=0.5), Euclidean(2)))


def test_dimensions_and_slices():
    space = SpaceSpec((Horn(), Euclidean(3), HyperbolicPlane()))
    assert space.dim == 7
    assert [
        (s.start, s.stop) for s in space.chart_slices()
    ] == [(0, 2), (2, 5), (5, 7)]
    assert space.horn_indices == (0,)
    assert space.first_euclidean_offset() == 2


def test_snap_canonicalization_and_stratum():
    space = SpaceSpec((Horn(), Horn(), Euclidean(1)))
    p = make_point(space, [(0.3, 1e-8), (0.1, 0.5), (2.0,)])
    assert isinstance(p.blocks[0], BoundaryPoint)
    assert p.stratum() == frozenset({0})
    q = make_point(space, [None, None, (0.0,)])
    assert q.stratum() == frozenset({0, 1})
    assert not q.is_interior()
    r = make_point(space, [(0.3, XI_SNAP), (0.1, 0.5), (2.0,)])
    assert isinstance(r.blocks[0], HornPoint)  # exactly at the threshold stays interior


def test_chart_roundtrip():
    space = SpaceSpec((Horn(), HyperbolicPlane(), Euclidean(2)))
    p = make_point(space, [(0.3, 0.7), (1.0, 2.0), (3.0, -4.0)])
    v = chart_vector(space, p)
    assert list(v) == [0.3, 0.7, 1.0, 2.0, 3.0, -4.0]
    assert points_equal(point_from_chart(space, v), p)
    b = make_point(space, [None, (0.0, 1.0), (0.0, 0.0)])
    with pytest.raises(ValueError):
        chart_vector(space, b)


def test_invalid_points():
    space = SpaceSpec((HyperbolicPlane(),))
    with pytest.raises(ValueError):
        make_point(space, [(0.0, -1.0)])
    with pytest.raises(ValueError):
        make_point(space, [(math.nan, 1.0)])
    horn = SpaceSpec((Horn(),))
    with pytest.raises(ValueError):
        make_point(horn, [(0.0, math.inf)])


def test_space_json_wire_format():
    space = SpaceSpec((
        Horn(), HyperbolicPlane(), Euclidean(2),
        PerturbedHorn(B=1.5, a4=0.1, b3=0.0, c6=0.05),
    ))
    doc = space_to_json(space)
    assert doc == {"factors": [
        {"kind": "horn"},
        {"kind": "hyperbolic"},
        {"kind": "euclidean", "dim": 2},
        {"kind": "perturbed_horn", "B": 1.5, "a4": 0.1, "b3": 0.0, "c6": 0.05},
    ]}
    assert space_from_json(json.dumps(doc)) == space


def test_point_json_wire_format():
    space = SpaceSpec((Horn(), Euclidean(2)))
    p = make_point(space, [(0.25, 1.5), (1.0, -2.0)])
    doc = point_to_json(p)
    assert doc == {"blocks": [
        {"kind": "interior", "theta": 0.25, "xi": 1.5},
        {"coords": [1.0, -2.0]},
    ]}
    assert points_equal(point_from_json(space, doc), p)
    b = make_point(space, [None, (0.0, 0.0)])
    assert point_to_json(b)["blocks"][0] == {"kind": "boundary"}
    assert points_equal(point_from_json(space, point_to_json(b)), b)


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(-50, 50, allow_nan=False),
    xi=st.floats(1e-6, 100.0, allow_nan=False),
    x=st.floats(-50, 50),
    y=st.floats(1e-6, 100.0),
)
def test_point_json_roundtrip_property(theta, xi, x, y):
    space = SpaceSpec((Horn(), HyperbolicPlane()))
    p = make_point(space, [(theta, xi), (x, y)])
    q = point_from_json(space, json.loads(json.dumps(point_to_json(p))))
    assert points_equal(p, q)


def test_horn_point_and_raw_pair_give_equal_blocks():
    space = SpaceSpec((Horn(), PerturbedHorn(B=2.0, a4=0.1)))
    a = make_point(space, [HornPoint(0.3, 0.7), HornPoint(-1.0, 2.0)])
    b = make_point(space, [(0.3, 0.7), [-1.0, 2.0]])
    assert a == b and hash(a) == hash(b)
    blk = b.blocks[0]
    assert isinstance(blk, HornPoint)
    assert (blk.theta, blk.xi) == tuple(blk) == (0.3, 0.7)
    assert repr(blk) == "HornPoint(theta=0.3, xi=0.7)"


def test_point_key_orders_boundary_first_then_coordinates():
    space = SpaceSpec((Horn(), HyperbolicPlane(), Euclidean(1)))
    pts = [make_point(space, blocks) for blocks in (
        [(0.5, 1.0), (0.0, 1.0), (0.0,)],
        [None, (5.0, 1.0), (9.0,)],
        [(0.5, 0.9), (0.0, 1.0), (0.0,)],
        [(0.4, 2.0), (0.0, 1.0), (0.0,)],
        [(0.5, 1.0), (0.0, 1.0), (-1.0,)],
    )]
    assert sorted(pts, key=point_key) == [pts[1], pts[3], pts[2], pts[4], pts[0]]


@pytest.mark.parametrize("horn", [Horn(), PerturbedHorn(B=2.0, a4=0.1)])
def test_search_inside_at_the_clamp_margins(horn):
    assert horn.search_inside(HornPoint(0.0, XI_ATTAIN))
    assert not horn.search_inside(HornPoint(0.0, math.nextafter(XI_ATTAIN, 0.0)))
    assert horn.search_inside(HornPoint(0.0, math.nextafter(math.exp(29.5), 0.0)))
    assert not horn.search_inside(HornPoint(0.0, math.exp(29.5)))
    hyp = HyperbolicPlane()
    for sign in (1.0, -1.0):
        assert not hyp.search_inside((0.0, math.exp(sign * 59.0)))
        assert hyp.search_inside((0.0, math.exp(sign * 58.99)))
    assert Euclidean(2).search_inside((1e300, -1e300))


@pytest.mark.parametrize("factor", [Horn(), PerturbedHorn(B=2.0, a4=0.1),
                                    HyperbolicPlane(), Euclidean(3)])
def test_base_point_is_the_search_chart_origin(factor):
    space = SpaceSpec((factor,))
    want = make_point(space, [(0.0, 1.0) if factor.profile else (0.0,) * factor.dim])
    assert base_point(space) == point_from_search(space, np.zeros(space.dim)) == want
    assert all(type(c) is float for c in base_point(space).blocks[0])


def test_random_point_draws_are_pinned():
    space = SpaceSpec((Horn(), HyperbolicPlane(), Euclidean(2)))
    p = random_point(space, np.random.default_rng(0))
    assert p.blocks == (
        HornPoint(0.5478467492858172, 0.19462463661062224),
        (-1.8361059042552212, 0.23447247077231523),
        (1.2530809568010897, 1.6510223091108869),
    )
    assert isinstance(p.blocks[0], HornPoint)
