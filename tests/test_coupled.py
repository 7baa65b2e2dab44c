"""b3-coupled charts: an exact product oracle, a reference shoot, distance
bounds, the exact connection and the banded curve-shortening step.

With one coupled horn, ``y = x + b3 xi^4 / 4`` on the Euclidean coordinate
turns ``f dtheta^2 + h dxi^2 + 2 b3 xi^3 dxi dx + dx^2`` into the product
``f dtheta^2 + (h - b3^2 xi^6) dxi^2`` times the ``y`` line.  ``distance``
solves that split chart itself, so the product oracle below checks its
plumbing, and damped-Newton shooting on the full chart (``shooting_connect``)
is the independent reference.  On the split chart an isometry acts factor by
factor, so ``classify`` gives the labels of the b3 = 0 twins.  Two or more
coupled horns still shoot.
"""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from hornlab.actions import EuclideanAction, HornAction, Isometry, classify
from hornlab.cli import main
from hornlab.errors import ConnectError, DistanceIntervalError, IntegrationError
from hornlab.geometry import (
    XI_SNAP,
    Euclidean,
    Horn,
    PathBundle,
    PerturbedHorn,
    SpaceSpec,
    WarpProfile,
    acceleration_fn,
    chart_vector,
    christoffel,
    distance,
    lower_bound_distance,
    make_point,
    midpoint,
    point_along,
    shooting_connect,
    upper_bound_distance,
)
from hornlab.geometry.connect import _block_tridiagonal_solve, _WarpedPath
from hornlab.geometry.spaces import HornPoint, point_key, tangent_chart_vector

COUPLED = SpaceSpec((PerturbedHorn(B=1.0, a4=0.1, b3=0.2), Euclidean(1)))
UNDERFLOW = SpaceSpec((PerturbedHorn(B=1.0, b3=0.3), Euclidean(1)))
UNDERFLOW_P = [(0.7148085531751387, 0.14718925640407762), (0.45931089285988813,)]
UNDERFLOW_Q = [(-0.648688758794882, 1.1711044827554205), (0.08292244049818343,)]


class ReducedProfile(WarpProfile):
    """``f dtheta^2 + (h - b3^2 xi^6) dxi^2`` of a coupled perturbed horn.

    ``a4`` is set nonzero only to send the branch integrals down the
    quadrature route, which evaluates ``h`` pointwise; the coefficient
    itself uses the factor's own ``a4``.
    """

    def __init__(self, factor: PerturbedHorn):
        super().__init__(B=factor.B, a4=1.0, c6=factor.c6)
        self._a4 = factor.a4
        self._b3 = factor.b3

    def h(self, xi):
        return 4.0 * self.B * (1.0 + self._a4 * xi**4) - self._b3**2 * xi**6


def oracle_distance(space, p_blocks, q_blocks):
    factor = space.factors[0]
    (th_p, xi_p), (x_p,) = p_blocks
    (th_q, xi_q), (x_q,) = q_blocks
    warp = _WarpedPath(ReducedProfile(factor), HornPoint(th_p, xi_p), HornPoint(th_q, xi_q))
    dy = (x_q + factor.b3 * xi_q**4 / 4.0) - (x_p + factor.b3 * xi_p**4 / 4.0)
    return math.hypot(warp.length, dy)


def _seeded_pairs(count, seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield tuple([(rng.uniform(-0.6, 0.6), rng.uniform(0.3, 1.2)), (rng.uniform(-0.6, 0.6),)]
                    for _ in range(2))


@pytest.mark.parametrize("pair", list(_seeded_pairs(4)))
def test_coupled_distance_matches_product_oracle(pair):
    p_blocks, q_blocks = pair
    p, q = make_point(COUPLED, p_blocks), make_point(COUPLED, q_blocks)
    want = oracle_distance(COUPLED, p_blocks, q_blocks)
    assert distance(COUPLED, p, q) == pytest.approx(want, rel=1e-8)


COUPLED_P = [(0.0, 0.8), (0.0,)]
COUPLED_Q = [(0.4, 0.9), (0.7,)]


@pytest.mark.parametrize("pair", list(_seeded_pairs(6)) + [(COUPLED_P, COUPLED_Q)],
                         ids=[f"seeded{k}" for k in range(6)] + ["COUPLED"])
def test_coupled_distance_matches_reference_shoot(pair):
    # an independent solver on the full chart, shot from either end
    p, q = (make_point(COUPLED, blocks) for blocks in pair)
    d = distance(COUPLED, p, q)
    assert distance(COUPLED, q, p) == d
    for a, b in ((p, q), (q, p)):
        _, shot = shooting_connect(COUPLED, a, b)
        assert d == pytest.approx(shot, rel=1e-8)
    for a, b in ((p, q), (q, p)):
        m = midpoint(COUPLED, a, b)
        assert abs(distance(COUPLED, a, m) - 0.5 * d) <= 1e-12
        assert abs(distance(COUPLED, m, b) - 0.5 * d) <= 1e-12


def test_split_velocity_matches_reference_shoot():
    # dx = dy - b3 xi^3 dxi on the coupled coordinate; a second Euclidean
    # coordinate and an uncoupled horn ride along unchanged
    wide = SpaceSpec((Euclidean(2), PerturbedHorn(B=2.0, c6=0.05, b3=0.3), Horn()))
    cases = [(COUPLED, COUPLED_P, COUPLED_Q),
             (wide, [(0.1, -0.3), (0.2, 0.6), (0.0, 0.5)], [(0.5, 0.4), (-0.3, 1.0), (0.3, 0.7)])]
    for space, p_blocks, q_blocks in cases:
        p, q = make_point(space, p_blocks), make_point(space, q_blocks)
        for a, b in ((p, q), (q, p)):
            bundle = PathBundle(space, a, b)
            v, shot = shooting_connect(space, a, b)
            assert bundle.length == pytest.approx(shot, rel=1e-8)
            got = tangent_chart_vector(space, bundle.initial_velocity())
            assert np.max(np.abs(got - v / shot)) <= 1e-8


def test_underflow_pair_equals_oracle():
    # the reference shoot underflows its step at the positive-definite edge
    # (next test); the split chart never leaves the levels of the endpoints
    p, q = make_point(UNDERFLOW, UNDERFLOW_P), make_point(UNDERFLOW, UNDERFLOW_Q)
    truth = oracle_distance(UNDERFLOW, UNDERFLOW_P, UNDERFLOW_Q)
    assert truth == pytest.approx(2.051746, abs=1e-6)
    assert abs(distance(UNDERFLOW, p, q) - truth) <= 1e-12
    assert abs(distance(UNDERFLOW, q, p) - truth) <= 1e-12


def test_underflow_pair_stops_at_positive_definite_edge():
    # the chord guess runs into xi^6 = 4B (1 + a4 xi^4) / b3^2, where the
    # chart metric degenerates; the step underflows there
    p, q = make_point(UNDERFLOW, UNDERFLOW_P), make_point(UNDERFLOW, UNDERFLOW_Q)
    a, b = (q, p) if point_key(q) < point_key(p) else (p, q)
    with pytest.raises(IntegrationError) as exc:
        shooting_connect(UNDERFLOW, a, b)
    factor = UNDERFLOW.factors[0]
    edge = (4.0 * factor.B / factor.b3**2) ** (1.0 / 6.0)  # a4 = 0
    _, state = exc.value.last_state
    assert abs(state[1] - edge) <= 1e-3


def test_coupled_distance_from_the_boundary():
    # the boundary endpoint is pulled off to the snap level; below it the
    # reduced warp's radial tail is exact, so only the snap itself errs
    factor = COUPLED.factors[0]
    p = make_point(COUPLED, [None, (0.0,)])
    q = make_point(COUPLED, [(0.4, 0.9), (0.7,)])
    radial, _ = quad(lambda t: math.sqrt(factor.profile.h(t) - factor.b3**2 * t**6), 0.0, 0.9,
                     epsabs=1e-13, epsrel=1e-13)
    want = math.hypot(radial, 0.7 + factor.b3 * 0.9**4 / 4.0)
    snap = 2.0 * math.sqrt(factor.B) * XI_SNAP * math.sqrt(1.0 + factor.a4 * XI_SNAP**4)
    assert abs(distance(COUPLED, p, q) - want) <= snap


@pytest.mark.parametrize("frac", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_radial_points_near_the_edge_split_the_distance(frac):
    # a radial reduced horn up to xi = 1.85, just below the edge 1.88207 of
    # UNDERFLOW: the arclength inverter's bracket stays below the top level,
    # past which h - b3^2 xi^6 turns negative
    p = make_point(UNDERFLOW, [(0.3, 0.2), (0.0,)])
    q = make_point(UNDERFLOW, [(0.3, 1.85), (0.1,)])
    d = distance(UNDERFLOW, p, q)
    for a, b in ((p, q), (q, p)):
        r = point_along(UNDERFLOW, a, b, frac)
        assert abs(distance(UNDERFLOW, a, r) - frac * d) <= 1e-12
        assert abs(distance(UNDERFLOW, r, b) - (1.0 - frac) * d) <= 1e-12


def quad_oracle_distance(space, p_blocks, q_blocks):
    """The split chart's distance by adaptive quadrature and a bracketed
    turning-level solve, apart from the horn kernel.  Levels above the
    turning level xs are taken as ``xs + u^2``, which absorbs its square
    root; quad adapts to the one at the edge."""
    factor = space.factors[0]
    (th_p, xi_p), (x_p,) = p_blocks
    (th_q, xi_q), (x_q,) = q_blocks

    def h(t):
        return 4.0 * factor.B * (1.0 + factor.a4 * t**4) - factor.b3**2 * t**6

    def f(t):
        return factor.B * t**6 * (1.0 + factor.c6 * t**6)

    def branch(xs, lo, hi, kind):
        c2 = f(xs)

        def rate(u):
            xi = xs + u * u
            gap = f(xi) - c2
            if gap <= 0.0:
                return 0.0
            dens = math.sqrt(c2 * h(xi) / f(xi)) if kind == "theta" else math.sqrt(h(xi) * f(xi))
            return 2.0 * u * dens / math.sqrt(gap)

        return quad(rate, math.sqrt(lo - xs), math.sqrt(hi - xs),
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]

    lo, hi, dth = min(xi_p, xi_q), max(xi_p, xi_q), abs(th_q - th_p)
    if dth == 0.0:
        horn = quad(lambda t: math.sqrt(h(t)), lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    elif dth <= branch(lo, lo, hi, "theta"):  # one monotone leg
        xs = brentq(lambda x: branch(x, lo, hi, "theta") - dth, 1e-6, lo, xtol=1e-15)
        horn = branch(xs, lo, hi, "len")
    else:  # two legs from a turning level below both endpoints
        xs = brentq(lambda x: branch(x, x, xi_p, "theta") + branch(x, x, xi_q, "theta") - dth,
                    0.5 * lo, lo, xtol=1e-15)
        horn = branch(xs, xs, xi_p, "len") + branch(xs, xs, xi_q, "len")
    dy = (x_q + factor.b3 * xi_q**4 / 4.0) - (x_p + factor.b3 * xi_p**4 / 4.0)
    return math.hypot(horn, dy)


_EDGE = brentq(lambda t: 4.0 - 0.09 * t**6, 1.0, 3.0, xtol=1e-15)  # UNDERFLOW: B = 1, b3 = 0.3
_TOP = _EDGE * (1.0 - 1e-9)


@pytest.mark.parametrize("pair", [
    ([(0.3, 0.8), (0.0,)], [(0.3, _TOP), (0.1,)]),           # radial
    ([(0.0, 0.8), (0.0,)], [(0.4, _TOP), (0.1,)]),           # one monotone leg
    ([(0.0, 0.9 * _TOP), (0.0,)], [(0.2, _TOP), (0.1,)]),    # two legs
], ids=["radial", "monotone", "turning"])
def test_endpoint_just_below_the_edge_matches_quadrature(pair):
    # sqrt(h - b3^2 xi^6) vanishes like sqrt(edge - xi); the kernel takes
    # the levels near the edge in sqrt(edge - xi), where it is smooth
    want = quad_oracle_distance(UNDERFLOW, *pair)
    p, q = (make_point(UNDERFLOW, blocks) for blocks in pair)
    for a, b in ((p, q), (q, p)):
        assert abs(distance(UNDERFLOW, a, b) - want) <= 1e-10


def test_block_beyond_the_edge_gives_the_bounds():
    # xi = 2.5 lies past the edge, where the chart metric is indefinite and
    # the reduced coefficient negative: no distance, only the bounds
    p = make_point(UNDERFLOW, [(0.0, 0.8), (0.0,)])
    q = make_point(UNDERFLOW, [(0.4, 2.5), (0.7,)])
    with pytest.raises(ConnectError):
        PathBundle(UNDERFLOW, p, q)
    for a, b in ((p, q), (q, p)):
        with pytest.raises(DistanceIntervalError) as exc:
            distance(UNDERFLOW, a, b)
        assert exc.value.lower == lower_bound_distance(UNDERFLOW, a, b)
        assert exc.value.upper == upper_bound_distance(UNDERFLOW, a, b)
        assert exc.value.lower == pytest.approx(4.0379, abs=1e-4)
        assert exc.value.upper == pytest.approx(7.5175, abs=1e-4)


def test_bounds_stay_finite_far_past_the_edge():
    # y^2 and b3^2 xi^6 overflow at xi = 1e60; the interval once read [inf, inf]
    p = make_point(UNDERFLOW, [(0.0, 0.8), (0.0,)])
    q = make_point(UNDERFLOW, [(0.4, 1e60), (0.7,)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DistanceIntervalError) as exc:
            distance(UNDERFLOW, p, q)
    assert math.isfinite(exc.value.upper)
    assert 0.0 <= exc.value.lower <= exc.value.upper


@pytest.mark.parametrize("a, shift, label, L", [
    (0.0, 1.0, "pseudoAnosov-analog", 1.0),                # d = 1 everywhere
    (0.5, 0.0, "strictly-pseudoperiodic-analog", 0.0),     # the horn part closes at the axis
], ids=["pseudoAnosov", "strictly-pseudoperiodic"])
def test_classify_on_one_coupled_horn(a, shift, label, L):
    # in the split chart the rotation moves the reduced horn and the shift
    # the y line, so the displacement is hypot(shift, d_red): the labels of
    # the b3 = 0 twins on PerturbedHorn(B=1, a4=0.1) x E^1
    res = classify(Isometry(COUPLED, (HornAction(a=a), EuclideanAction([[1.0]], [shift]))))
    assert res.label == label
    assert abs(res.L_estimate - L) <= 1e-10


def test_classify_cli_on_one_coupled_horn(capsys):
    # hypot(1, d_red) tends to 1 only at the axis, where d_red vanishes:
    # the collapse ray watches the horn part close, so 1 is not attained
    space = json.dumps({"factors": [{"kind": "perturbed_horn", "B": 1.0, "a4": 0.1, "b3": 0.2},
                                    {"kind": "euclidean", "dim": 1}]})
    iso = json.dumps({"factor_actions": [{"kind": "horn_translate", "a": 0.5},
                                         {"kind": "euclid", "Q": [[1.0]], "t": [1.0]}]})
    assert main(["classify", "--space", space, "--iso", iso]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"] == "reducible-not-pseudoperiodic-analog"
    assert doc["evidence"]["decided_by"] == "collapse-ray"
    assert abs(doc["L_estimate"] - 1.0) <= 1e-10


def test_two_coupled_horns_still_shoot():
    # the y coordinate does not split the two horns from each other
    space = SpaceSpec((PerturbedHorn(B=1.0, b3=0.2), PerturbedHorn(B=1.0, a4=0.1, b3=0.2),
                       Euclidean(1)))
    p = make_point(space, [(0.0, 0.8), (0.1, 0.7), (0.0,)])
    q = make_point(space, [(0.4, 0.9), (0.3, 0.9), (0.7,)])
    d = distance(space, p, q)
    assert distance(space, q, p) == d
    assert lower_bound_distance(space, p, q) <= d <= upper_bound_distance(space, p, q)


def test_coupled_bounds_contain_distance():
    # the product bounds overshot the true distance on this pair
    p_blocks = [(0.78342214089, 0.82664664590), (-0.05738066964,)]
    q_blocks = [(0.54655401930, 0.32731140690), (0.41393019131,)]
    p, q = make_point(COUPLED, p_blocks), make_point(COUPLED, q_blocks)
    d = distance(COUPLED, p, q)
    assert d == pytest.approx(oracle_distance(COUPLED, p_blocks, q_blocks), rel=1e-8)
    assert lower_bound_distance(COUPLED, p, q) <= d <= upper_bound_distance(COUPLED, p, q)


def test_coupled_acceleration_is_minus_gamma_vv():
    accel = acceleration_fn(COUPLED)
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = make_point(COUPLED, [(rng.uniform(-1, 1), rng.uniform(0.3, 1.5)),
                                 (rng.uniform(-1, 1),)])
        v = rng.normal(size=3)
        gamma = christoffel(COUPLED, p)
        want = -np.einsum("kij,i,j->k", gamma, v, v)
        got = accel(chart_vector(COUPLED, p), v)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 17])
def test_banded_block_tridiagonal_solve_matches_dense(d, m):
    rng = np.random.default_rng(10 * d + m)
    # symmetric block rows made positive definite by diagonal dominance
    C = rng.normal(size=(m, d, d))
    C[-1] = 0.0
    A = np.concatenate([np.zeros((1, d, d)), C[:-1].transpose(0, 2, 1)])
    S = rng.normal(size=(m, d, d))
    B = S @ S.transpose(0, 2, 1) + 4.0 * d * np.eye(d)
    M = np.zeros((m * d, m * d))
    for i in range(m):
        rows = slice(i * d, (i + 1) * d)
        M[rows, rows] = B[i]
        if i + 1 < m:
            M[rows, (i + 1) * d:(i + 2) * d] = C[i]
            M[(i + 1) * d:(i + 2) * d, rows] = C[i].T
    assert np.all(np.linalg.eigvalsh(M) > 0)
    R = rng.normal(size=(m, d))
    got = _block_tridiagonal_solve(A, B, C, R)
    want = np.linalg.solve(M, R.ravel())
    assert np.linalg.norm(M @ got.ravel() - R.ravel()) <= 1e-12 * np.linalg.norm(R)
    assert np.linalg.norm(got.ravel() - want) <= 1e-12 * np.linalg.norm(want)
