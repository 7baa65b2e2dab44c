"""The Anderson-accelerated equivariant flow behind ``axis`` against the
plain damped flow, the closed-form periods and the horn escapes, and the
fixed-point fact that lets ``axis`` run it once, with no node doubling."""

import math

import pytest

import hornlab.paths as paths_mod
from hornlab.actions import REDUCIBLE, HornAction, Isometry, axis
from hornlab.errors import BasinError
from hornlab.experiments import canonical_isometries, independent_pair
from hornlab.geometry import (
    XI_SNAP,
    Euclidean,
    Horn,
    SpaceSpec,
    distance,
    make_point,
    midpoint,
)
from hornlab.geometry.spaces import point_from_search, search_vector
from hornlab.paths import DiscretePath, equivariant_seed, heat_flow, refine_flow

HORN = SpaceSpec((Horn(),))


def closed_form_period(iso) -> float:
    return 2.0 * math.acosh(abs(iso.actions[0].trace) / 2.0)


@pytest.fixture(scope="module")
def pair_flows():
    """Accelerated flows of the N=16 `independent_pair()` seeds of `diverge`."""
    hyp, g1, g2 = independent_pair()
    base = make_point(hyp, [(0.05, 1.0)])
    out = {}
    for name, g in (("g1", g1), ("g2", g2)):
        seed = equivariant_seed(hyp, g, base, 16)
        out[name] = (g, heat_flow(seed, accelerate=True))
    return out


@pytest.mark.parametrize("name", ["g1", "g2"])
def test_accelerated_pair_converges(pair_flows, name):
    g, (flowed, rep) = pair_flows[name]
    assert rep.converged and not rep.escaped
    assert rep.iterations <= 200
    assert rep.accelerated > 0
    assert rep.accelerated + rep.fallbacks <= rep.iterations
    assert abs(rep.final_length - closed_form_period(g)) <= 1e-12
    # a refused extrapolation takes the plain sweep, whose energy falls
    # only up to the rounding of a sum of squared distances
    series = rep.energy_series
    assert all(b <= a * (1.0 + 1e-14) for a, b in zip(series[:-1], series[1:]))
    assert series[-1] < series[0]
    glued = g.apply(flowed.nodes[0])
    assert distance(flowed.space, flowed.nodes[-1], glued) <= 1e-9


def test_accelerated_g1_on_imaginary_axis(pair_flows):
    _, (flowed, _) = pair_flows["g1"]
    for pt in flowed.nodes:
        x, y = pt.blocks[0]
        assert abs(x) / y <= 1e-8


def test_axis_periods_match_closed_form():
    hyp, g1, g2 = independent_pair()
    base = make_point(hyp, [(0.05, 1.0)])
    for g in (g1, g2):
        ax = axis(g, equivariant_seed(hyp, g, base, 16))
        assert abs(ax.period_length - closed_form_period(g)) <= 1e-12


def test_plain_flow_counts_no_extrapolation():
    hyp, g1, _ = independent_pair()
    seed = equivariant_seed(hyp, g1, make_point(hyp, [(0.05, 1.0)]), 8)
    _, rep = heat_flow(seed, max_iter=20)
    assert rep.accelerated == 0 and rep.fallbacks == 0
    doc = rep.to_json()
    assert doc["accelerated"] == 0 and doc["fallbacks"] == 0
    assert doc["iterations"] == 20


def test_z4_two_seed_sup_distance():
    # criterion 5's seeds, at a bound 100 times tighter
    hyp, z4, _ = independent_pair()
    psi = 2.0 * math.atan(math.exp(-0.5))
    axes = [axis(z4, equivariant_seed(hyp, z4, make_point(hyp, [(sx * math.cos(psi),
                                                                   math.sin(psi))]), 16))
            for sx in (1.0, -1.0)]
    assert axes[0].path.n_segments == axes[1].path.n_segments
    sup = max(distance(hyp, a, b) for a, b in zip(axes[0].path.nodes, axes[1].path.nodes))
    assert sup <= 1e-7


@pytest.mark.parametrize("xi", [0.1, 0.03, 0.026, 0.01])
def test_horn_translation_escapes_in_both_flows(xi):
    # segments at these levels are about xi^3 / 8 long, so a sweep moves a
    # node by far less than an absolute 1e-10 without converging
    tr = Isometry(HORN, (HornAction(a=1.0),))
    seed = DiscretePath(HORN, tuple(make_point(HORN, [(i / 8, xi)]) for i in range(9)),
                        periodic_shift=tr)
    _, rep = heat_flow(seed, max_iter=30)
    assert rep.escaped and not rep.converged
    with pytest.raises(BasinError):  # axis runs the accelerated flow
        axis(tr, seed, max_iter=30)


def test_search_chart_round_trip_and_clamps():
    space = SpaceSpec((Horn(), independent_pair()[0].factors[0], Euclidean(1)))
    p = make_point(space, [(0.3, 0.5), (-1.0, 2.0), (4.0,)])
    u = search_vector(space, p)
    assert u.tolist() == [0.3, math.log(0.5), -1.0, math.log(2.0), 4.0]
    back = point_from_search(space, u)
    assert back.blocks[2] == (4.0,)
    assert back.blocks[0].theta == 0.3 and back.blocks[0].xi == pytest.approx(0.5, rel=1e-15)
    low = point_from_search(space, [0.0, -1e3, 0.0, -1e3, 0.0])
    assert low.blocks[0].xi == XI_SNAP  # clamped at the snap level, not snapped
    assert low.blocks[1][1] == math.exp(-80.0)


def _reducible_seed() -> DiscretePath:
    """The reducible representative's N=16 seed at xi = 0.5."""
    iso = canonical_isometries()[REDUCIBLE]
    return equivariant_seed(iso.space, iso, make_point(iso.space, [(0.0, 0.5), (0.0,)]), 16)


def test_refine_flow_is_one_accelerated_flow(monkeypatch):
    # the reducible representative's flow takes about a hundred sweeps;
    # refine_flow runs it once, through the module-level heat_flow
    seed = _reducible_seed()
    _, want = heat_flow(seed, tol=1e-10, max_iter=200_000, accelerate=True)
    calls = []

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return heat_flow(*args, **kwargs)

    monkeypatch.setattr(paths_mod, "heat_flow", recorded)
    _, rep = refine_flow(seed, tol=1e-10, max_iter=200_000)
    assert calls == [{"max_iter": 200_000, "tol": 1e-10, "accelerate": True}]
    assert rep == want
    assert rep.iterations > 50 and rep.accelerated > 0
    assert rep.converged and rep.final_length == pytest.approx(2.0, abs=1e-9)


def _with_midpoints(path: DiscretePath) -> DiscretePath:
    """The chain on 2N segments: every segment's midpoint inserted."""
    nodes = []
    for a, b in path.segment_endpoints():
        nodes += [a, midpoint(path.space, a, b)]
    return DiscretePath(path.space, (*nodes, path.nodes[-1]),
                        periodic_shift=path.periodic_shift)


@pytest.mark.parametrize("case", ["reducible", "g1", "g2"])
def test_converged_chain_is_already_the_axis(pair_flows, case):
    # a converged equivariant chain is a local geodesic, so the chain with
    # its midpoints inserted is a fixed point too: one sweep at 2N stops
    # the flow, and the period does not move
    if case == "reducible":
        flowed, rep = refine_flow(_reducible_seed())
    else:
        _, (flowed, rep) = pair_flows[case]
    assert rep.converged
    _, fine = heat_flow(_with_midpoints(flowed), accelerate=True)
    assert fine.converged and fine.iterations == 1
    assert abs(fine.final_length - rep.final_length) < 1e-12
