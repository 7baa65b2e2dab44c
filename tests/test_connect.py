import math
import warnings

import numpy as np
import pytest

from hornlab.geometry import (
    Euclidean,
    Horn,
    HyperbolicPlane,
    PerturbedHorn,
    SpaceSpec,
    chart_vector,
    curve_shortening_connect,
    distance,
    factor_distances,
    geodesic_connect,
    geodesic_shoot,
    lower_bound_distance,
    make_point,
    midpoint,
    point_along,
    points_equal,
    shooting_connect,
)

HORN = SpaceSpec((Horn(),))
HYP = SpaceSpec((HyperbolicPlane(),))
EU2 = SpaceSpec((Euclidean(2),))


def random_point(space, rng):
    blocks = []
    for f in space.factors:
        if isinstance(f, Horn) or isinstance(f, PerturbedHorn):
            blocks.append((rng.uniform(-2, 2), rng.uniform(0.08, 2.0)))
        elif isinstance(f, HyperbolicPlane):
            blocks.append((rng.uniform(-2, 2), rng.uniform(0.2, 4.0)))
        else:
            blocks.append(tuple(rng.uniform(-2, 2, f.dim)))
    return make_point(space, blocks)


# ---------------------------------------------------------------------------
# spec examples


def test_boundary_radial_connect():
    p = make_point(HORN, [None])
    q = make_point(HORN, [(2.0, 0.5)])
    seg = geodesic_connect(HORN, p, q)
    assert seg.length == pytest.approx(1.0, abs=1e-12)
    assert points_equal(seg.point_at(0.0), p)
    assert points_equal(seg.point_at(1.0), q)
    for x, pt in seg.samples:
        if x > 0:
            blk = pt.blocks[0]
            assert not pt.stratum()
            assert blk.theta == pytest.approx(2.0, abs=1e-12)
            assert blk.xi == pytest.approx(x * 0.5, rel=1e-9)


def test_two_horn_product_pythagoras():
    space = SpaceSpec((Horn(), Horn()))
    p = make_point(space, [(0.4, 0.3), None])
    q = make_point(space, [None, (1.1, 0.4)])
    seg = geodesic_connect(space, p, q)
    assert seg.length == pytest.approx(1.0, abs=1e-12)
    for x, pt in seg.samples:
        if 0.0 < x < 1.0:
            assert not pt.stratum()  # both blocks interior strictly between


def test_euclidean_line():
    p = make_point(EU2, [(0.0, 0.0)])
    q = make_point(EU2, [(3.0, 4.0)])
    seg = geodesic_connect(EU2, p, q)
    assert seg.length == pytest.approx(5.0, abs=1e-14)
    m = seg.point_at(0.5)
    assert m.blocks[0] == pytest.approx((1.5, 2.0))


def test_line_survives_underflowing_squares():
    # distinct blocks closer than sqrt(float min) ~ 1.5e-154 have a zero
    # sum of squares: the length must not read 0, nor the direction NaN
    eu1 = SpaceSpec((Euclidean(1),))
    p, q = make_point(eu1, [(0.0,)]), make_point(eu1, [(1e-200,)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert midpoint(eu1, p, q).blocks[0] == (5e-201,)
        assert point_along(eu1, p, q, 0.3).blocks[0] == pytest.approx((3e-201,), rel=1e-15)
        assert distance(eu1, p, q) == 1e-200
        p2, q2 = make_point(EU2, [(0.0, 0.0)]), make_point(EU2, [(3e-200, 4e-200)])
        assert distance(EU2, p2, q2) == pytest.approx(5e-200, rel=1e-15)
        assert midpoint(EU2, p2, q2).blocks[0] == pytest.approx((1.5e-200, 2e-200), rel=1e-15)
    # above the underflow every length keeps the bits of its sum of squares
    rng = np.random.default_rng(3)
    for scale in (1e-150, 1.0, 1e150):
        a, b = rng.uniform(-1.0, 1.0, (2, 2)) * scale
        want = math.sqrt(math.dist(a, b) ** 2)
        assert distance(EU2, make_point(EU2, [tuple(a)]), make_point(EU2, [tuple(b)])) == want


def test_distance_examples():
    assert distance(HORN, make_point(HORN, [None]), make_point(HORN, [(9.9, 0.5)])) == 1.0
    p = make_point(HORN, [(0.3, 0.7)])
    assert distance(HORN, p, p) == 0.0
    a = make_point(HYP, [(0.0, 1.0)])
    b = make_point(HYP, [(0.0, 4.0)])
    assert distance(HYP, a, b) == pytest.approx(math.log(4.0), abs=1e-14)


def test_midpoint_examples():
    m = midpoint(EU2, make_point(EU2, [(0.0, 0.0)]), make_point(EU2, [(2.0, 2.0)]))
    assert m.blocks[0] == pytest.approx((1.0, 1.0))
    m = midpoint(HORN, make_point(HORN, [None]), make_point(HORN, [(0.9, 0.5)]))
    assert m.blocks[0].theta == pytest.approx(0.9)
    assert m.blocks[0].xi == pytest.approx(0.25, abs=1e-12)
    m = midpoint(HYP, make_point(HYP, [(0.0, 1.0)]), make_point(HYP, [(0.0, 4.0)]))
    assert m.blocks[0][1] == pytest.approx(2.0, abs=1e-12)


def test_connect_requires_distinct_endpoints():
    p = make_point(HORN, [(0.0, 1.0)])
    with pytest.raises(ValueError):
        geodesic_connect(HORN, p, p)


# ---------------------------------------------------------------------------
# cross-validation: independent integration of the geodesic equation


def assert_connect_agrees_with_shooting(space, seed, count):
    """Shoot each connecting geodesic's initial velocity over its length
    and compare the end with the target point."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = random_point(space, rng)
        q = random_point(space, rng)
        seg = geodesic_connect(space, p, q)
        shot = geodesic_shoot(space, p, seg.velocity, seg.length, atol=1e-12)
        end = chart_vector(space, shot.end)
        want = chart_vector(space, q)
        assert np.linalg.norm(end - want) <= 1e-7 * (1 + np.linalg.norm(want))


def test_connect_agrees_with_shooting():
    assert_connect_agrees_with_shooting(HORN, 3, 12)


PERTURBED = (PerturbedHorn(B=2.0, a4=0.1, c6=0.05),)  # the `queries` perturbed factor
HORN_H2 = (Horn(), HyperbolicPlane())


@pytest.mark.parametrize("factors", [PERTURBED, HORN_H2])
def test_product_and_perturbed_connect_agree_with_shooting(factors):
    assert_connect_agrees_with_shooting(SpaceSpec(factors), 3, 12)


def test_hyperbolic_connect_agrees_with_shooting():
    assert_connect_agrees_with_shooting(HYP, 4, 8)


# ---------------------------------------------------------------------------
# metric space structure


@pytest.mark.parametrize("factors", [
    (Horn(),),
    (HyperbolicPlane(),),
    (Euclidean(2),),
    (Horn(), Euclidean(1)),
    PERTURBED,
    HORN_H2,
])
def test_symmetry_and_triangle(factors):
    space = SpaceSpec(factors)
    rng = np.random.default_rng(11)
    for _ in range(60):
        p, q, z = (random_point(space, rng) for _ in range(3))
        dpq = distance(space, p, q)
        assert distance(space, q, p) == pytest.approx(dpq, abs=1e-9)
        assert dpq <= distance(space, p, z) + distance(space, z, q) + 1e-9


@pytest.mark.parametrize("factors", [
    (Horn(),),
    (HyperbolicPlane(),),
    (Horn(), Euclidean(1)),
    PERTURBED,
    HORN_H2,
])
def test_midpoint_bisects_and_npc_inequality(factors):
    space = SpaceSpec(factors)
    rng = np.random.default_rng(23)
    for _ in range(40):
        p, q, z = (random_point(space, rng) for _ in range(3))
        m = midpoint(space, p, q)
        d = distance(space, p, q)
        assert distance(space, p, m) == pytest.approx(d / 2, abs=1e-7)
        assert distance(space, m, q) == pytest.approx(d / 2, abs=1e-7)
        lhs = distance(space, m, z) ** 2
        rhs = (0.5 * distance(space, p, z) ** 2 + 0.5 * distance(space, q, z) ** 2
               - 0.25 * d**2)
        assert lhs <= rhs + 1e-7


def test_convexity_of_distance_to_stratum():
    # second differences of x -> distance(u(x), collapsed face) stay >= -1e-6
    rng = np.random.default_rng(5)
    boundary = make_point(HORN, [None])
    for _ in range(10):
        p = random_point(HORN, rng)
        q = random_point(HORN, rng)
        seg = geodesic_connect(HORN, p, q, samples=33)
        vals = [distance(HORN, pt, boundary) for _, pt in seg.samples]
        second = np.diff(vals, 2)
        assert np.min(second) >= -1e-6


def test_constant_speed_along_connect():
    rng = np.random.default_rng(9)
    space = SpaceSpec((Horn(), HyperbolicPlane()))
    p = random_point(space, rng)
    q = random_point(space, rng)
    seg = geodesic_connect(space, p, q, samples=17)
    xs = np.linspace(0, 1, 17)
    pts = [seg.point_at(x) for x in xs]
    gaps = [distance(space, a, b) for a, b in zip(pts[:-1], pts[1:])]
    assert np.max(np.abs(np.array(gaps) - seg.length / 16)) <= 1e-8 * max(1, seg.length)


def test_point_along_fraction():
    p = make_point(HORN, [(0.0, 0.8)])
    q = make_point(HORN, [(1.0, 0.6)])
    d = distance(HORN, p, q)
    r = point_along(HORN, p, q, 0.25)
    assert distance(HORN, p, r) == pytest.approx(0.25 * d, abs=1e-9)


# ---------------------------------------------------------------------------
# perturbed horns and the coupled chart


def test_perturbed_horn_radial_distance():
    B, a4 = 2.0, 0.4
    space = SpaceSpec((PerturbedHorn(B=B, a4=a4),))
    p = make_point(space, [None])
    q = make_point(space, [(0.3, 0.8)])
    # independent quadrature of the radial primitive
    from scipy.integrate import quad

    want, _ = quad(lambda s: 2.0 * math.sqrt(B * (1 + a4 * s**4)), 0.0, 0.8)
    assert distance(space, p, q) == pytest.approx(want, rel=1e-10)


def test_perturbed_horn_reduces_to_horn():
    plain = SpaceSpec((Horn(),))
    pert = SpaceSpec((PerturbedHorn(B=1.0),))
    rng = np.random.default_rng(2)
    for _ in range(5):
        blocks = [(rng.uniform(-1, 1), rng.uniform(0.1, 1.5))]
        blocks2 = [(rng.uniform(-1, 1), rng.uniform(0.1, 1.5))]
        d1 = distance(plain, make_point(plain, blocks), make_point(plain, blocks2))
        d2 = distance(pert, make_point(pert, blocks), make_point(pert, blocks2))
        assert d2 == pytest.approx(d1, rel=1e-12)


def test_coupled_chart_connect():
    space = SpaceSpec((PerturbedHorn(B=1.0, a4=0.1, b3=0.2, c6=0.0), Euclidean(1)))
    p = make_point(space, [(0.0, 0.8), (0.0,)])
    q = make_point(space, [(0.4, 0.9), (0.7,)])
    seg = geodesic_connect(space, p, q, samples=9)
    assert points_equal(seg.point_at(0.0), p)
    end = chart_vector(space, seg.point_at(1.0))
    assert np.linalg.norm(end - chart_vector(space, q)) <= 1e-7
    # symmetric and close to the uncoupled limit
    assert distance(space, q, p) == pytest.approx(seg.length, rel=1e-7)
    flat = SpaceSpec((PerturbedHorn(B=1.0, a4=0.1, b3=0.0, c6=0.0), Euclidean(1)))
    d0 = distance(flat, make_point(flat, [(0.0, 0.8), (0.0,)]),
                  make_point(flat, [(0.4, 0.9), (0.7,)]))
    assert abs(seg.length - d0) <= 0.05 * d0


def test_coupled_chart_lower_bound_and_factor_distances():
    # one coupled horn splits off y = x + b3 xi^4 / 4: the parts are the
    # reduced horn's distance and the y line's; two coupled horns do not split
    space = SpaceSpec((PerturbedHorn(B=1.0, b3=0.2), Euclidean(1)))
    p = make_point(space, [(0.0, 0.8), (0.0,)])
    q = make_point(space, [(0.4, 0.9), (0.7,)])
    d = distance(space, p, q)
    horn, line = factor_distances(space, p, q)
    assert abs(math.hypot(horn, line) - d) <= 1e-15 * d
    assert line == pytest.approx(0.7 + 0.2 * (0.9**4 - 0.8**4) / 4.0, rel=1e-15)
    assert lower_bound_distance(space, p, q) <= d + 1e-9
    two = SpaceSpec((PerturbedHorn(B=1.0, b3=0.2), PerturbedHorn(B=1.0, b3=0.2), Euclidean(1)))
    p2 = make_point(two, [(0.0, 0.8), (0.1, 0.7), (0.0,)])
    q2 = make_point(two, [(0.4, 0.9), (0.3, 0.9), (0.7,)])
    assert factor_distances(two, p2, q2) is None


def test_generic_solvers_match_closed_form():
    p = make_point(HYP, [(-0.5, 1.0)])
    q = make_point(HYP, [(1.0, 2.0)])
    want = distance(HYP, p, q)
    v, length = shooting_connect(HYP, p, q)
    assert length == pytest.approx(want, rel=1e-8)
    poly = curve_shortening_connect(HYP, p, q)
    assert poly.length == pytest.approx(want, rel=1e-6)


def test_two_stage_solver_agrees_with_first_integral_route():
    # same horn boundary value problem through two independent solvers
    cases = [((0.0, 0.8), (1.0, 0.8)), ((0.2, 0.5), (0.9, 1.2)), ((0.0, 1.5), (0.4, 1.1))]
    for a, b in cases:
        p, q = make_point(HORN, [a]), make_point(HORN, [b])
        want = distance(HORN, p, q)  # rotational first-integral route
        v, length = shooting_connect(HORN, p, q)
        assert length == pytest.approx(want, rel=1e-6)
        poly = curve_shortening_connect(HORN, p, q)
        assert poly.length == pytest.approx(want, rel=1e-6)


def test_warp_solver_extreme_angles():
    # far winding stays on the turning branch and respects the two-sided bounds
    p = make_point(HORN, [(0.0, 0.3)])
    q = make_point(HORN, [(200.0, 0.3)])
    d = distance(HORN, p, q)
    assert 0.0 < d <= 2 * 0.6
    seg = geodesic_connect(HORN, p, q, samples=5)
    mid = seg.point_at(0.5)
    assert mid.blocks[0].theta == pytest.approx(100.0, rel=1e-9)


@pytest.mark.parametrize("factor", [Horn(), PerturbedHorn(B=2.0)])
def test_snap_threshold_continuity_bound(factor):
    # straddling XI_SNAP on one ray: the lower point snaps to the axis,
    # which moves it by less than 2 sqrt(B) XI_SNAP
    from hornlab.geometry import XI_SNAP

    space = SpaceSpec((factor,))
    root_b = math.sqrt(getattr(factor, "B", 1.0))
    p = make_point(space, [(0.4, 1.01e-7)])
    q = make_point(space, [(0.4, 0.99e-7)])
    assert q.stratum()
    d = distance(space, p, q)
    unsnapped = 2.0 * root_b * (1.01e-7 - 0.99e-7)
    assert d == pytest.approx(2.0 * root_b * 1.01e-7, rel=1e-12)
    assert abs(d - unsnapped) <= 2.0 * root_b * XI_SNAP * (1 + 1e-12)


def test_coupled_step_underflow_pair_is_exact():
    # a b3-coupled pair whose reference shoot underflows its step size; the
    # split chart solves it exactly: 2.0517456505754383 is the value of the
    # product oracle of tests/test_coupled.py (oracle_distance)
    from hornlab.errors import IntegrationError
    from hornlab.geometry import upper_bound_distance
    from hornlab.geometry.spaces import point_key

    space = SpaceSpec((PerturbedHorn(B=1.0, b3=0.3), Euclidean(1)))
    p = make_point(space, [(0.7148085531751387, 0.14718925640407762), (0.45931089285988813,)])
    q = make_point(space, [(-0.648688758794882, 1.1711044827554205), (0.08292244049818343,)])
    with pytest.raises(IntegrationError):
        shooting_connect(space, *sorted((p, q), key=point_key))
    d = distance(space, p, q)
    assert abs(d - 2.0517456505754383) <= 1e-12
    assert distance(space, q, p) == d
    assert lower_bound_distance(space, p, q) <= d <= upper_bound_distance(space, p, q)
