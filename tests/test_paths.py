import math

import numpy as np
import pytest

from hornlab.actions import HornAction, Isometry, MobiusAction
from hornlab.experiments import ExperimentConfig, run_experiment
from hornlab.geometry import (
    Euclidean,
    Horn,
    HyperbolicPlane,
    SpaceSpec,
    distance,
    make_point,
    points_equal,
)
from hornlab.paths import (
    DiscretePath,
    equivariant_seed,
    geodesic_nodes,
    heat_flow,
    midpoint_competitor_test,
    path_energy,
    path_from_csv,
    path_length,
    path_to_csv,
)

EU2 = SpaceSpec((Euclidean(2),))
HORN = SpaceSpec((Horn(),))
HYP = SpaceSpec((HyperbolicPlane(),))


def euclid_path(coords):
    return DiscretePath(EU2, tuple(make_point(EU2, [c]) for c in coords))


def test_length_and_energy_examples():
    # two segments along a straight run of length 5
    p = euclid_path([(0.0, 0.0), (1.5, 2.0), (3.0, 4.0)])
    assert path_length(p) == pytest.approx(5.0, abs=1e-14)
    assert path_energy(p) == pytest.approx(25.0, abs=1e-12)  # E = L^2 at constant speed
    const = euclid_path([(1.0, 1.0)] * 3)
    assert path_length(const) == 0.0
    assert path_energy(const) == 0.0


def test_radial_discretization_exact():
    n = 16
    nodes = [make_point(HORN, [None])] + [
        make_point(HORN, [(0.7, 0.5 * i / n)]) for i in range(1, n + 1)
    ]
    path = DiscretePath(HORN, tuple(nodes))
    assert path_length(path) == pytest.approx(1.0, abs=1e-12)
    assert path_energy(path) == pytest.approx(1.0, abs=1e-12)


def test_length_energy_inequality_and_equality_case():
    rng = np.random.default_rng(1)
    for _ in range(25):
        coords = [tuple(rng.uniform(-3, 3, 2)) for _ in range(7)]
        p = euclid_path(coords)
        L, E = path_length(p), path_energy(p)
        assert L <= math.sqrt(E) + 1e-12
    # constant-speed discretized geodesic: equality to relative 1e-9
    g = geodesic_nodes(EU2, make_point(EU2, [(0.0, 0.0)]), make_point(EU2, [(3.0, 4.0)]), 8)
    assert path_length(g) == pytest.approx(math.sqrt(path_energy(g)), rel=1e-9)
    # unequal segment speeds break the equality strictly
    uneven = euclid_path([(0.0, 0.0), (0.5, 0.0), (3.0, 0.0)])
    assert path_length(uneven) < math.sqrt(path_energy(uneven)) * (1.0 - 1e-9)


def test_gluing_validation():
    tr = Isometry(HORN, (HornAction(a=1.0),))
    nodes = tuple(make_point(HORN, [(i / 4, 0.5)]) for i in range(5))
    DiscretePath(HORN, nodes, periodic_shift=tr)  # node_4 = gamma node_0 exactly
    bad = nodes[:-1] + (make_point(HORN, [(1.5, 0.5)]),)
    with pytest.raises(ValueError):
        DiscretePath(HORN, bad, periodic_shift=tr)


def test_heat_flow_euclid_zigzag():
    n = 16
    nodes = []
    for i in range(n + 1):
        y = 0.4 * ((-1) ** i) if 0 < i < n else 0.0
        nodes.append(make_point(EU2, [(5.0 * i / n, y)]))
    path = DiscretePath(EU2, tuple(nodes))
    flowed, rep = heat_flow(path, max_iter=50000, tol=1e-12)
    assert rep.converged and not rep.escaped
    assert rep.final_energy == pytest.approx(25.0, abs=1e-8)
    series = rep.energy_series
    assert all(b <= a + 1e-12 for a, b in zip(series[:-1], series[1:]))


def test_heat_flow_fixed_point_invariant():
    pa = make_point(HYP, [(0.0, 1.0)])
    pb = make_point(HYP, [(2.0, 3.0)])
    g = geodesic_nodes(HYP, pa, pb, 16)
    _, rep = heat_flow(g, max_iter=1, tol=1e-10)
    assert rep.max_displacement <= 10 * 1e-10


def test_heat_flow_equivariance_preserved():
    z4 = Isometry(HYP, (MobiusAction(((2.0, 0.0), (0.0, 0.5))),))
    seed = equivariant_seed(HYP, z4, make_point(HYP, [(0.4, 1.0)]), 8)
    flowed, rep = heat_flow(seed, max_iter=400, tol=1e-12)
    glued = z4.apply(flowed.nodes[0])
    assert distance(HYP, flowed.nodes[-1], glued) <= 1e-9


def test_heat_flow_horn_escape():
    tr = Isometry(HORN, (HornAction(a=1.0),))
    nodes = tuple(make_point(HORN, [(i / 16, 0.1)]) for i in range(17))
    path = DiscretePath(HORN, nodes, periodic_shift=tr)
    flowed, rep = heat_flow(path, max_iter=120, tol=1e-10)
    assert rep.escaped and not rep.converged
    assert rep.final_length < 1e-3 * (1.0 - 1e-10)
    series = rep.energy_series
    assert all(b <= a + 1e-15 for a, b in zip(series[:-1], series[1:]))


@pytest.mark.parametrize("level", [1e-7, 2e-7])
def test_heat_flow_fixed_endpoint_below_snap_level(level):
    # a fixed endpoint at the snap level (a CSV row with xi = 1e-07 and
    # boundary 0) is not a node the flow moves, so it is no escape
    path = DiscretePath(HORN, tuple(make_point(HORN, [p]) for p in
                                    [(0.0, level), (0.1, 0.5), (0.3, 0.6), (0.5, 0.8)]))
    flowed, rep = heat_flow(path)
    assert rep.converged and not rep.escaped
    assert rep.iterations < 100
    assert flowed.nodes[0] == path.nodes[0] and flowed.nodes[-1] == path.nodes[-1]


def test_competitor_identical_paths():
    u = geodesic_nodes(EU2, make_point(EU2, [(0.0, 0.0)]), make_point(EU2, [(3.0, 4.0)]), 8)
    rep = midpoint_competitor_test(u, u)
    assert rep.holds
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_competitor_parallel_segments_equality():
    u = euclid_path([(3.0 * i / 8, 0.0) for i in range(9)])
    w = euclid_path([(3.0 * i / 8, 1.0) for i in range(9)])
    rep = midpoint_competitor_test(u, w)
    assert rep.holds
    assert rep.slack == pytest.approx(0.0, abs=1e-10)  # flat parallelogram identity


def test_competitor_random_horn_pairs():
    rng = np.random.default_rng(42)
    for _ in range(500):
        nodes_u, nodes_w = [], []
        for i in range(4):
            nodes_u.append(make_point(HORN, [(rng.uniform(-1, 1), rng.uniform(0.2, 1.5))]))
            nodes_w.append(make_point(HORN, [(rng.uniform(-1, 1), rng.uniform(0.2, 1.5))]))
        rep = midpoint_competitor_test(
            DiscretePath(HORN, tuple(nodes_u)), DiscretePath(HORN, tuple(nodes_w))
        )
        assert rep.slack >= -1e-7


def test_competitor_grid_mismatch():
    u = geodesic_nodes(EU2, make_point(EU2, [(0.0, 0.0)]), make_point(EU2, [(1.0, 0.0)]), 4)
    w = geodesic_nodes(EU2, make_point(EU2, [(0.0, 0.0)]), make_point(EU2, [(1.0, 0.0)]), 8)
    with pytest.raises(ValueError):
        midpoint_competitor_test(u, w)


def test_csv_roundtrip():
    space = SpaceSpec((Horn(), Euclidean(2)))
    nodes = [
        make_point(space, [None, (0.0, 1.0)]),
        make_point(space, [(0.2, 0.4), (0.5, 1.5)]),
        make_point(space, [(0.4, 0.8), (1.0, 2.0)]),
    ]
    path = DiscretePath(space, tuple(nodes))
    text = path_to_csv(path)
    lines = text.split("\n")
    assert lines[0] == "x,f0_theta,f0_xi,f0_boundary,f1_c0,f1_c1"
    assert lines[1].startswith("0.0,,,1,")  # boundary row keeps coords empty
    back = path_from_csv(space, text)
    assert all(points_equal(a, b) for a, b in zip(path.nodes, back.nodes))


def test_csv_header_mismatch():
    other = SpaceSpec((Euclidean(2),))
    path = geodesic_nodes(other, make_point(other, [(0.0, 0.0)]),
                          make_point(other, [(1.0, 1.0)]), 2)
    text = path_to_csv(path)
    with pytest.raises(ValueError):
        path_from_csv(HORN, text)


@pytest.mark.parametrize("name, space, nodes", [
    ("interior", SpaceSpec((Horn(), Euclidean(1))), 33),
    ("corners", SpaceSpec((Horn(), Horn())), 65),
])
def test_experiment_sample_tables_read_back_as_paths(name, space, nodes, tmp_path):
    """The experiments write their geodesic samples in the path layout."""
    run_experiment(ExperimentConfig(name, out_dir=str(tmp_path)))
    path = path_from_csv(space, (tmp_path / f"{name}_samples.csv").read_text())
    assert len(path.nodes) == nodes
    assert path.nodes[0].stratum()  # both start on a stratum
