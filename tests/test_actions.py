import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hornlab.actions as actions_mod
from hornlab.actions import (
    PERIODIC,
    PSEUDO_ANOSOV,
    REDUCIBLE,
    STRICTLY_PSEUDOPERIODIC,
    Axis,
    EscapeWitness,
    EuclideanAction,
    HornAction,
    Isometry,
    MobiusAction,
    axis,
    classify,
    displacement,
    displacement_growth,
    divergence_profile,
    identity,
    isometry_from_json,
    isometry_to_json,
    properness_probe,
    random_point,
    translation_length,
)
from hornlab.errors import BasinError, FlowBudgetError
from hornlab.geometry import (
    Euclidean,
    Horn,
    HornPoint,
    HyperbolicPlane,
    SpaceSpec,
    chart_vector,
    distance,
    make_point,
    metric_tensor,
    point_along,
    points_equal,
)
from hornlab.paths import DiscretePath, equivariant_seed, heat_flow

HORN = SpaceSpec((Horn(),))
HYP = SpaceSpec((HyperbolicPlane(),))
EU2 = SpaceSpec((Euclidean(2),))


def z4() -> Isometry:
    return Isometry(HYP, (MobiusAction(((2.0, 0.0), (0.0, 0.5))),))


def golden() -> Isometry:
    return Isometry(HYP, (MobiusAction(((5.0, 3.0), (3.0, 2.0))),))


# ---------------------------------------------------------------------------
# group structure


def test_compose_inverse_roundtrip():
    space = SpaceSpec((Horn(), HyperbolicPlane(), Euclidean(2)))
    g = Isometry(space, (
        HornAction(a=0.7, reflect=True),
        MobiusAction(((1.0, 1.0), (0.5, 1.0))),
        EuclideanAction([[0.0, -1.0], [1.0, 0.0]], [0.3, -0.2]),
    ))
    rng = np.random.default_rng(0)
    p = random_point(space, rng)
    q = g.inverse().apply(g.apply(p))
    assert np.allclose(chart_vector(space, q), chart_vector(space, p), atol=1e-12)
    e = g.compose(g.inverse())
    assert np.allclose(chart_vector(space, e.apply(p)), chart_vector(space, p), atol=1e-12)


def test_permutation_action():
    space = SpaceSpec((Horn(), Horn()))
    swap = Isometry(space, (HornAction(), HornAction()), permutation=(1, 0))
    p = make_point(space, [(0.1, 0.5), (0.9, 1.5)])
    q = swap.apply(p)
    assert q.blocks[0] == HornPoint(0.9, 1.5)
    assert q.blocks[1] == HornPoint(0.1, 0.5)
    # swap composed with itself is the identity
    p2 = swap.compose(swap).apply(p)
    assert points_equal(p2, p)
    with pytest.raises(ValueError):
        Isometry(SpaceSpec((Horn(), HyperbolicPlane())),
                 (HornAction(), MobiusAction(((1, 0), (0, 1)))), permutation=(1, 0))


def test_permutation_composition_law():
    space = SpaceSpec((Horn(), Horn(), Horn()))
    acts = lambda a: tuple(HornAction(a=a + i) for i in range(3))
    g = Isometry(space, acts(0.1), permutation=(1, 2, 0))
    h = Isometry(space, acts(-0.4), permutation=(2, 0, 1))
    rng = np.random.default_rng(5)
    p = random_point(space, rng)
    lhs = h.compose(g).apply(p)
    rhs = h.apply(g.apply(p))
    assert np.allclose(chart_vector(space, lhs), chart_vector(space, rhs), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=8, max_size=8))
def test_mobius_group_laws(vals):
    m1 = np.array(vals[:4]).reshape(2, 2)
    m2 = np.array(vals[4:]).reshape(2, 2)
    for m in (m1, m2):
        if abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) < 0.1:
            return
        if m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] < 0:
            return
    a = MobiusAction(m1)
    b = MobiusAction(m2)
    z = (0.3, 1.7)
    lhs = a.compose(b).apply_block(z)
    rhs = a.apply_block(b.apply_block(z))
    assert lhs == pytest.approx(rhs, abs=1e-9)
    back = a.inverse().apply_block(a.apply_block(z))
    assert back == pytest.approx(z, abs=1e-9)


def test_metric_preservation_validation():
    from hornlab.geometry import PerturbedHorn

    # the b3 cross term ties the horn to the first Euclidean coordinate:
    # rotating it, reflecting it or tilting it by any angle breaks the term
    space = SpaceSpec((PerturbedHorn(B=1.0, b3=0.4), Euclidean(2)))
    tilts = [[[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]] for a in (1e-8, 1e-10)]
    for Q in [[[0.0, -1.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 1.0]], *tilts]:
        with pytest.raises(ValueError):
            Isometry(space, (HornAction(a=1.0), EuclideanAction(Q, [0.0, 0.0])))
    # translations, a reflection of the second coordinate and a horn
    # reflection leave the cross term alone
    Isometry(space, (HornAction(a=1.0), EuclideanAction(np.eye(2), [1.0, 2.0])))
    Isometry(space, (HornAction(a=0.3, reflect=True),
                     EuclideanAction(np.diag([1.0, -1.0]), [0.5, 0.0])))
    # so does a rotation of a second Euclidean factor, but not a swap of
    # the first Euclidean factor with another
    two = SpaceSpec((PerturbedHorn(B=1.0, b3=0.2), Euclidean(1), Euclidean(1)))
    flat = EuclideanAction([[1.0]], [0.0])
    with pytest.raises(ValueError):
        Isometry(two, (HornAction(), flat, flat), (0, 2, 1))
    wide = SpaceSpec((PerturbedHorn(B=1.0, b3=0.2), Euclidean(1), Euclidean(2)))
    Isometry(wide, (HornAction(), flat, EuclideanAction([[0.0, -1.0], [1.0, 0.0]], [1.0, 0.0])))
    # swapping two equal coupled horns; the rule survives inverse and powers
    pair = SpaceSpec((PerturbedHorn(B=1.0, b3=0.2), PerturbedHorn(B=1.0, b3=0.2),
                      Euclidean(2)))
    g = Isometry(pair, (HornAction(a=0.3, reflect=True), HornAction(a=1.0),
                        EuclideanAction(np.diag([1.0, -1.0]), [0.5, 1.0])), (1, 0, 2))
    assert g.power(5).permutation == g.inverse().permutation == (1, 0, 2)


def test_pullback_metric_invariance_fd():
    space = SpaceSpec((Horn(), HyperbolicPlane()))
    g = Isometry(space, (
        HornAction(a=0.5),
        MobiusAction(((2.0, 1.0), (1.0, 1.0))),
    ))
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(5):
        p = random_point(space, rng)
        x = chart_vector(space, p)
        gp = metric_tensor(space, p)
        gq = metric_tensor(space, g.apply(p))
        d = space.dim
        J = np.empty((d, d))
        from hornlab.geometry import point_from_chart

        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            plus = chart_vector(space, g.apply(point_from_chart(space, x + e)))
            minus = chart_vector(space, g.apply(point_from_chart(space, x - e)))
            J[:, k] = (plus - minus) / (2 * h)
        pullback = J.T @ gq @ J
        assert np.allclose(pullback, gp, atol=1e-6 * np.max(np.abs(gp)) + 1e-9)


def test_boundary_maps_to_boundary():
    g = Isometry(HORN, (HornAction(a=2.0),))
    b = make_point(HORN, [None])
    assert g.apply(b).stratum() == frozenset({0})


def test_isometry_preserves_distances():
    space = SpaceSpec((Horn(), HyperbolicPlane()))
    g = Isometry(space, (
        HornAction(a=-0.3, reflect=True),
        MobiusAction(((1.2, 0.3), (0.1, 0.9))),
    ))
    rng = np.random.default_rng(8)
    for _ in range(500):
        p = random_point(space, rng)
        q = random_point(space, rng)
        d1 = distance(space, p, q)
        d2 = distance(space, g.apply(p), g.apply(q))
        assert abs(d1 - d2) <= 1e-8 * (1 + d1)


def test_isometry_json_roundtrip():
    space = SpaceSpec((Horn(), HyperbolicPlane(), Euclidean(2)))
    g = Isometry(space, (
        HornAction(a=0.7, reflect=True),
        MobiusAction(((2.0, 0.0), (0.0, 0.5))),
        EuclideanAction([[0.0, -1.0], [1.0, 0.0]], [0.3, -0.2]),
    ))
    doc = isometry_to_json(g)
    assert doc["factor_actions"][0] == {"kind": "horn_reflect", "a": 0.7}
    assert doc["factor_actions"][1]["kind"] == "mobius"
    assert doc["permutation"] == [0, 1, 2]
    back = isometry_from_json(space, doc)
    rng = np.random.default_rng(1)
    p = random_point(space, rng)
    assert np.allclose(
        chart_vector(space, back.apply(p)), chart_vector(space, g.apply(p)), atol=1e-12
    )


# ---------------------------------------------------------------------------
# displacement and translation length


def test_displacement_examples():
    tr = Isometry(EU2, (EuclideanAction(np.eye(2), [3.0, 4.0]),))
    assert displacement(tr, make_point(EU2, [(7.0, -2.0)])) == pytest.approx(5.0)
    d = displacement(Isometry(HORN, (HornAction(a=1.0),)), make_point(HORN, [(0.0, 0.1)]))
    assert 0.0 < d <= 1e-3  # bounded by the constant-level arc xi^3 |a|
    assert displacement(z4(), make_point(HYP, [(0.0, 1.0)])) == pytest.approx(math.log(4.0))


def test_translation_length_fast_cases():
    rot = Isometry(EU2, (EuclideanAction([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0]),))
    res = translation_length(rot)
    assert res.status == "ok" and res.attained and res.L_estimate < 1e-6
    res4 = translation_length(z4())
    assert res4.attained and res4.L_estimate == pytest.approx(math.log(4.0), abs=1e-6)
    parab = Isometry(HYP, (MobiusAction(((1.0, 1.0), (0.0, 1.0))),))
    rp = translation_length(parab)
    assert not rp.attained and rp.L_estimate < 1e-6 and rp.witness.unbounded


def test_conjugation_invariance():
    h = Isometry(HYP, (MobiusAction(((1.0, 0.7), (0.2, 1.1))),))
    g = z4()
    conj = h.compose(g).compose(h.inverse())
    r1 = translation_length(g)
    r2 = translation_length(conj)
    assert abs(r1.L_estimate - r2.L_estimate) <= 1e-6
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = random_point(HYP, rng)
        d1 = displacement(g, p)
        d2 = displacement(conj, h.apply(p))
        assert abs(d1 - d2) <= 1e-9 * (1 + d1)


def test_identity_is_periodic():
    res = classify(identity(EU2))
    assert res.label == PERIODIC and res.L_estimate == 0.0


# ---------------------------------------------------------------------------
# axes


def make_z4_axis(n=16):
    psi = 2 * math.atan(math.exp(-0.5))
    w = make_point(HYP, [(math.cos(psi), math.sin(psi))])
    return axis(z4(), equivariant_seed(HYP, z4(), w, n))


@pytest.fixture(scope="module")
def z4_axis():
    """The N=16 z4 axis, built once for the tests that only read it."""
    return make_z4_axis()


def test_axis_period_and_uniqueness_seed(z4_axis):
    ax = z4_axis
    assert ax.period_length == pytest.approx(math.log(4.0), abs=1e-4)
    for pt in ax.path.nodes:
        x, y = pt.blocks[0]
        assert abs(x) / y <= 1e-6  # nodes on the imaginary axis


def test_axis_equivariant_invariance(z4_axis):
    # applying gamma to its own axis reproduces the axis one period on
    ax = z4_axis
    g = z4()
    n = ax.path.n_segments
    for i, node in enumerate(ax.path.nodes[:-1]):
        shifted = g.apply(node)
        want = ax.point_at(ax.period_length * (1.0 + i / n))
        assert distance(HYP, shifted, want) <= 1e-6


def test_axis_on_axis_seed_immediate():
    seed = equivariant_seed(HYP, z4(), make_point(HYP, [(0.0, 1.0)]), 8)
    ax = axis(z4(), seed, tol=1e-10)
    assert ax.period_length == pytest.approx(math.log(4.0), abs=1e-9)


def test_axis_escape_raises():
    tr = Isometry(HORN, (HornAction(a=1.0),))
    nodes = tuple(make_point(HORN, [(i / 8, 0.1)]) for i in range(9))
    seed = DiscretePath(HORN, nodes, periodic_shift=tr)
    with pytest.raises(BasinError):
        axis(tr, seed, max_iter=120)


def test_axis_out_of_budget_raises():
    # three sweeps leave the z4 flow far from its axis (nodes at |x|/y up
    # to 0.7); a period read off there would be 1.6556 against ln 4
    seed = equivariant_seed(HYP, z4(), make_point(HYP, [(0.8, 1.0)]), 16)
    with pytest.raises(FlowBudgetError) as info:
        axis(z4(), seed, max_iter=3)
    report = info.value.report
    assert report.iterations == 3
    assert not report.converged and not report.escaped


def test_axis_refuses_a_fixed_point():
    # the rotation by pi/2 about i fixes a point: its flow converges with a
    # period at rounding level, which is no axis (Axis.point_at would
    # compose the shift t / period times)
    c = math.sqrt(0.5)
    rot = Isometry(HYP, (MobiusAction(((c, c), (-c, c))),))
    seed = equivariant_seed(HYP, rot, make_point(HYP, [(0.3, 1.0)]), 8)
    with pytest.raises(ValueError, match="fixed point"):
        axis(rot, seed)


def test_axis_hartman_monotonicity():
    # along the plain flow the sup over the nodes of the distance to the
    # axis of z4 (the imaginary axis) never increases
    sups = []

    def watch(nodes):
        sups.append(max(math.asinh(abs(x) / y) for x, y in (p.blocks[0] for p in nodes)))

    psi = 2 * math.atan(math.exp(-0.5))
    w = make_point(HYP, [(math.cos(psi), math.sin(psi))])
    _, report = heat_flow(equivariant_seed(HYP, z4(), w, 16), max_iter=200_000, tol=1e-10,
                          on_iterate=watch)
    assert report.converged
    assert len(sups) > 1
    assert all(b <= a + 1e-10 for a, b in zip(sups[:-1], sups[1:]))


def test_product_axis_length():
    space = SpaceSpec((HyperbolicPlane(), Euclidean(1)))
    g = Isometry(space, (
        MobiusAction(((2.0, 0.0), (0.0, 0.5))),
        EuclideanAction([[1.0]], [3.0]),
    ))
    seed = equivariant_seed(space, g, make_point(space, [(0.0, 1.0), (0.0,)]), 16)
    ax = axis(g, seed)
    want = math.hypot(math.log(4.0), 3.0)
    assert ax.period_length == pytest.approx(want, abs=1e-6)


# ---------------------------------------------------------------------------
# displacement growth and divergence


def test_displacement_growth_oracle(z4_axis):
    ax = z4_axis
    g = z4()
    grid = [0.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    rep = displacement_growth(g, ax, grid)
    L = math.log(4.0)
    assert rep.values[0] == pytest.approx(L, abs=1e-6)
    for D, val in zip(grid[1:], rep.values[1:]):
        want = 2.0 * math.asinh(math.cosh(D) * math.sinh(L / 2.0))
        assert val == pytest.approx(want, abs=1e-6)
    assert rep.convex_ok and rep.increasing_ok


def test_divergence_same_axis_zero(z4_axis):
    ax = z4_axis
    prof = divergence_profile(ax, ax, [1.0, 2.0, 3.0])
    assert prof.center_distance <= 1e-9
    assert all(m <= 1e-9 for m in prof.m_values)


def test_divergence_euclidean_lines():
    # two straight lines through the origin at an angle: m(R) grows linearly
    space = EU2
    tr1 = Isometry(space, (EuclideanAction(np.eye(2), [1.0, 0.0]),))
    c, s = math.cos(0.9), math.sin(0.9)
    tr2 = Isometry(space, (EuclideanAction(np.eye(2), [c, s]),))
    n1 = tuple(make_point(space, [(i / 8.0, 0.0)]) for i in range(9))
    n2 = tuple(make_point(space, [(i / 8.0 * c, i / 8.0 * s)]) for i in range(9))
    ax1 = Axis(DiscretePath(space, n1, periodic_shift=tr1), tr1, 1.0)
    ax2 = Axis(DiscretePath(space, n2, periodic_shift=tr2), tr2, 1.0)
    grid = [1.0, 2.0, 4.0, 8.0]
    prof = divergence_profile(ax1, ax2, grid)
    # exact oracle: on the quadrant t = st_ (R - a), s = ss a the chord
    # between the rays is u + a v, so its square is quadratic in a and
    # least at the vertex clipped to [0, R]
    def oracle(R):
        best = math.inf
        for st_, ss in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            u = np.array([st_ * R, 0.0])
            v = np.array([-(st_ + ss * c), -ss * s])
            a = min(max(-(u @ v) / (v @ v), 0.0), R)
            best = min(best, math.hypot(*(u + a * v)))
        return best

    for R, m in zip(grid, prof.m_values):
        assert m == pytest.approx(oracle(R), abs=1e-9)
    ratios = [m / R for m, R in zip(prof.m_values, grid)]
    assert max(ratios) - min(ratios) <= 0.05  # linear growth


def test_divergence_independent_pair(monkeypatch):
    base = make_point(HYP, [(0.05, 1.0)])
    ax1 = axis(z4(), equivariant_seed(HYP, z4(), base, 16))
    ax2 = axis(golden(), equivariant_seed(HYP, golden(), base, 16))
    calls = [0]
    point_at = Axis.point_at

    def counted(self, t):
        calls[0] += 1
        return point_at(self, t)

    monkeypatch.setattr(Axis, "point_at", counted)
    prof = divergence_profile(ax1, ax2, list(range(2, 11)))
    assert all(b > a for a, b in zip(prof.m_values[:-1], prof.m_values[1:]))
    assert prof.m_values[-1] > prof.m_values[0] + 1.0
    # two point_at calls per gap: 176 gaps in the nested centre line
    # searches and 470 in one line search per quadrant and R (1,292 calls)
    assert prof.evaluations["centre_search"] <= 200
    assert calls[0] <= 1300


def test_divergence_independent_pair_closed_form():
    # the axes cross at i at the angle phi with cos phi = 1/sqrt(5); by the
    # hyperbolic law of cosines the gap at arclengths R - a and a from i on
    # the nearer quadrant has cosh = cosh(R-a) cosh(a) - sinh(R-a) sinh(a)
    # cos phi = ((1 - cos phi) cosh R + (1 + cos phi) cosh(R - 2a)) / 2,
    # least at a = R / 2
    base = make_point(HYP, [(0.05, 1.0)])
    ax1 = axis(z4(), equivariant_seed(HYP, z4(), base, 16))
    ax2 = axis(golden(), equivariant_seed(HYP, golden(), base, 16))
    grid = list(range(2, 11))
    prof = divergence_profile(ax1, ax2, grid)
    cos_phi = 1.0 / math.sqrt(5.0)
    for R, m in zip(grid, prof.m_values):
        want = math.acosh(((1.0 - cos_phi) * math.cosh(R) + 1.0 + cos_phi) / 2.0)
        assert m == pytest.approx(want, abs=1e-8)


def test_divergence_ultraparallel_axes_closed_form():
    # z -> 4z and its conjugate by z -> (3z + 1)/(z + 1) have the axes
    # {0, oo} and {1, 3}, which stay acosh 2 apart (the semicircle's centre
    # over its radius); at arclengths a and b from the common perpendicular
    # cosh gap = 2 cosh a cosh b - sinh a sinh b
    # = (cosh(a + b) + 3 cosh(a - b)) / 2, least at a = b = R / 2
    conj = Isometry(HYP, (MobiusAction(((2.75, -2.25), (0.75, -0.25))),))
    ax1 = axis(z4(), equivariant_seed(HYP, z4(), make_point(HYP, [(0.05, 1.0)]), 16))
    ax2 = axis(conj, equivariant_seed(HYP, conj, make_point(HYP, [(2.0, 1.0)]), 16))
    grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    prof = divergence_profile(ax1, ax2, grid)
    assert prof.center_distance == pytest.approx(math.acosh(2.0), abs=1e-8)
    for R, m in zip(grid, prof.m_values):
        assert m == pytest.approx(math.acosh((math.cosh(R) + 3.0) / 2.0), abs=1e-8)


def test_divergence_asymptotic_axes_have_no_centre_window():
    # z -> 4z and z -> 4z - 3 share the endpoint oo, so the gap has no
    # least value: it falls like exp(-t) as both axes run up, and the
    # centre search follows it far past the first period
    shifted = Isometry(HYP, (MobiusAction(((2.0, -1.5), (0.0, 0.5))),))
    base = make_point(HYP, [(0.05, 1.0)])
    ax1 = axis(z4(), equivariant_seed(HYP, z4(), base, 16))
    ax2 = axis(shifted, equivariant_seed(HYP, shifted, base, 16))
    prof = divergence_profile(ax1, ax2, [1.0, 2.0, 4.0])
    assert prof.center_distance < 1e-6
    assert all(0.0 <= m < 1e-6 for m in prof.m_values)


def test_axis_point_at_is_point_along_on_every_period():
    # the cached segment bundles give what a fresh point_along solve gives,
    # bit for bit, on both sides of the base period; the Euclidean axis
    # repeats its first node, so whole periods land on a degenerate segment
    base = make_point(HYP, [(0.05, 1.0)])
    tr = Isometry(EU2, (EuclideanAction(np.eye(2), [1.0, 0.0]),))
    line = tuple(make_point(EU2, [(x, 0.0)]) for x in (0.0, 0.0, 0.25, 0.5, 0.75, 1.0))
    for ax in (axis(golden(), equivariant_seed(HYP, golden(), base, 16)),
               Axis(DiscretePath(EU2, line, periodic_shift=tr), tr, 1.0)):
        cum, pairs = ax._segments()
        total = cum[-1]
        for t in [*np.linspace(-2.6 * total, 3.3 * total, 157), *(total * np.arange(-2, 4))]:
            k = math.floor(t / total)
            r = t - k * total
            i = min(max(int(np.searchsorted(cum, r)), 1), len(cum) - 1)
            seg_len = cum[i] - cum[i - 1]
            w = 0.0 if seg_len == 0 else (r - cum[i - 1]) / seg_len
            want = point_along(ax.path.space, *pairs[i - 1], w)
            if k != 0:
                want = ax.shift.power(k).apply(want)
            assert ax.point_at(float(t)).blocks == want.blocks


# ---------------------------------------------------------------------------
# properness


def test_properness_independent_pair_bounded():
    rep = properness_probe([z4(), golden()], [2.0, 3.0, 4.0], 2500, seed=0)
    assert all(not e.unbounded_evidence for e in rep.entries)
    m4 = rep.entries[-1]
    assert m4.admissible_found and m4.radius < 16.0


def test_properness_single_translation_unbounded():
    tr5 = Isometry(EU2, (EuclideanAction(np.eye(2), [3.0, 4.0]),))
    rep = properness_probe([tr5], [5.0], 2500, seed=0)
    assert rep.entries[0].unbounded_evidence


def test_properness_single_hyperbolic_unbounded():
    rep = properness_probe([z4()], [2.0], 2500, seed=0)
    assert rep.entries[0].unbounded_evidence  # the whole axis is admissible


def test_certificate_probe_stops_at_first_improvement():
    calls = []

    def F(u):
        calls.append(u)
        return 0.0  # every probe improves on the value 1

    u = np.array([0.3, -0.2, 1.5])
    w = actions_mod._certificate_probe(F, u, 1.0, np.random.default_rng(0))
    assert len(calls) == 1
    assert np.array_equal(w, u + [actions_mod.PROBE_RADIUS, 0.0, 0.0])
    assert actions_mod._certificate_probe(
        lambda v: 1.0, u, 1.0, np.random.default_rng(0)) is None


class _RayObjective:
    """Displacement |u0|; the watched factor distance reads ``start`` at
    the ray's origin and ``end`` after its last step."""

    def __init__(self, start=1.0, end=1e-3):
        self.start, self.end = start, end
        self.calls, self.parts = 0, 0

    def __call__(self, u):
        self.calls += 1
        return abs(float(u[0]))

    def part(self, u, ids):
        assert ids == (0,)
        self.parts += 1
        return self.start if self.parts == 1 else self.end


def test_ray_contract():
    ray = actions_mod._ray
    start = np.array([3.0, 0.5])
    pts, vals = ray(_RayObjective(), EU2, start, 0, [-1.0, -1.0, 0.0, -0.5, -0.5],
                    3.0, 3.0, (0,))
    assert vals == [2.0, 1.0, 1.0, 0.5, 0.0] and np.array_equal(start, [3.0, 0.5])
    assert len(pts) == 4 and points_equal(pts[0], make_point(EU2, [(1.0, 0.5)]))
    assert points_equal(pts[-1], make_point(EU2, [(0.0, 0.5)]))
    # a rise of 1e-12 (1 + |ref|) is flat; a flat ray that closes is a hit
    assert ray(_RayObjective(), EU2, start, [0], [1e-12], 3.0, 0.0, (0,)) is not None
    assert ray(_RayObjective(), EU2, start, [0], [1e-11], 3.0, 0.0, (0,)) is None
    assert ray(_RayObjective(), EU2, start, [0], [0.0], 3.0, 3.0, (0,)) is not None
    # the watched distance must close to a thousandth of a positive start
    assert ray(_RayObjective(end=1.001e-3), EU2, start, [0], [0.0], 3.0, 3.0, (0,)) is None
    unwalked = _RayObjective(start=0.0, end=0.0)
    assert ray(unwalked, EU2, start, [0], [0.0], 3.0, 3.0, (0,)) is None
    assert unwalked.calls == 0


PARABOLIC = MobiusAction(((1.0, 1.0), (0.0, 1.0)))


@pytest.mark.parametrize("second, action, L", [
    (Euclidean(1), EuclideanAction([[1.0]], [1.0]), 1.0),
    (HyperbolicPlane(), MobiusAction(((2.0, 0.0), (0.0, 0.5))), math.log(4.0)),
], ids=["H2xE1", "H2xH2"])
def test_parabolic_factor_is_never_attained(second, action, L):
    # a parabolic's displacement closes only as y -> infinity, under a
    # total that stays flat at double precision (Bridson-Haefliger II.6)
    res = classify(Isometry(SpaceSpec((HyperbolicPlane(), second)), (PARABOLIC, action)))
    assert res.label == REDUCIBLE and res.evidence["decided_by"] == "infinity-ray"
    assert abs(res.L_estimate - L) <= 1e-6
    assert isinstance(res.witness, EscapeWitness) and res.witness.unbounded


def test_factor_at_rest_is_not_an_escape():
    # the Euclidean factor and the horn are fixed, so their rays watch a
    # zero distance: nothing closes and the hyperbolic axis is attained
    z4_act = z4().actions[0]
    he, nh = SpaceSpec((HyperbolicPlane(), Euclidean(1))), SpaceSpec((Horn(), HyperbolicPlane()))
    for space, acts in ((he, (z4_act, EuclideanAction([[1.0]], [0.0]))),
                        (nh, (HornAction(a=0.0), z4_act))):
        res = classify(Isometry(space, acts))
        assert res.label == PSEUDO_ANOSOV and res.evidence["decided_by"] == "certificate"
        assert abs(res.L_estimate - math.log(4.0)) <= 1e-6


def test_horn_escape_beats_a_parabolic_factor():
    space = SpaceSpec((Horn(), HyperbolicPlane()))
    res = classify(Isometry(space, (HornAction(a=0.5), PARABOLIC)))
    assert res.label == STRICTLY_PSEUDOPERIODIC and not res.attained
