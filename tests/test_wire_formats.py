"""Golden bytes of the JSON and CSV wire formats.

Each expected string is the exact output of the writers on a product of
every factor kind, with boundary blocks, so any change to a key order, a
column name or a float rendering shows up here.
"""

import json

import pytest

from hornlab.actions import (
    EuclideanAction,
    HornAction,
    Isometry,
    MobiusAction,
    isometry_from_json,
    isometry_to_json,
)
from hornlab.cli import main
from hornlab.geometry import (
    Euclidean,
    Horn,
    HyperbolicPlane,
    PerturbedHorn,
    SpaceSpec,
    make_point,
    point_to_json,
    space_to_json,
)
from hornlab.paths import DiscretePath, path_to_csv

FULL = SpaceSpec((Horn(), HyperbolicPlane(), Euclidean(2),
                  PerturbedHorn(B=1.5, a4=0.1, b3=0.2, c6=0.05)))
P_BLOCKS = [(0.25, 0.5), (-1.0, 2.0), (0.1, -3.0), None]
Q_BLOCKS = [None, (0.5, 0.75), (1e-3, 2.5), (-0.125, 1.25)]

HEADER = "x,f0_theta,f0_xi,f0_boundary,f1_c0,f1_c1,f2_c0,f2_c1,f3_theta,f3_xi,f3_boundary\n"


def test_space_to_json_golden():
    assert json.dumps(space_to_json(FULL)) == (
        '{"factors": [{"kind": "horn"}, {"kind": "hyperbolic"}, '
        '{"kind": "euclidean", "dim": 2}, '
        '{"kind": "perturbed_horn", "B": 1.5, "a4": 0.1, "b3": 0.2, "c6": 0.05}]}'
    )


def test_point_to_json_golden():
    p = make_point(FULL, P_BLOCKS)
    q = make_point(FULL, Q_BLOCKS)
    assert json.dumps(point_to_json(p)) == (
        '{"blocks": [{"kind": "interior", "theta": 0.25, "xi": 0.5}, '
        '{"coords": [-1.0, 2.0]}, {"coords": [0.1, -3.0]}, {"kind": "boundary"}]}'
    )
    assert json.dumps(point_to_json(q)) == (
        '{"blocks": [{"kind": "boundary"}, {"coords": [0.5, 0.75]}, '
        '{"coords": [0.001, 2.5]}, {"kind": "interior", "theta": -0.125, "xi": 1.25}]}'
    )


def test_path_to_csv_golden():
    nodes = (
        make_point(FULL, P_BLOCKS),
        make_point(FULL, Q_BLOCKS),
        make_point(FULL, [(1.0 / 3.0, 0.7), (0.0, 1.0), (0.0, 0.0), (2.0, 0.1)]),
    )
    assert path_to_csv(DiscretePath(FULL, nodes)) == (
        HEADER
        + "0.0,0.25,0.5,0,-1.0,2.0,0.1,-3.0,,,1\n"
        + "0.5,,,1,0.5,0.75,0.001,2.5,-0.125,1.25,0\n"
        + "1.0,0.3333333333333333,0.7,0,0.0,1.0,0.0,0.0,2.0,0.1,0\n"
    )


def test_geodesic_segment_csv_golden(tmp_path, capsys):
    # b3 = 0 keeps the product uncoupled, so every factor path is exact
    space = SpaceSpec((Horn(), HyperbolicPlane(), Euclidean(2),
                       PerturbedHorn(B=1.5, a4=0.1, c6=0.05)))
    p = make_point(space, P_BLOCKS)
    q = make_point(space, Q_BLOCKS)
    rc = main(["geodesic", "--space", json.dumps(space_to_json(space)),
               "--from", json.dumps(point_to_json(p)),
               "--to", json.dumps(point_to_json(q)),
               "--samples", "5", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "segment.csv").read_text() == (
        HEADER
        + "0.0,0.25,0.5,0,-1.0,2.0,0.1,-3.0,,,1\n"
        + "0.25,0.25,0.375,0,-0.3573610546372127,1.7544968948839623,"
          "0.07525000000000001,-1.625,-0.125,0.3198568373280638,0\n"
        + "0.5,0.25,0.25,0,0.09090909090909105,1.3950917502929823,"
          "0.05050000000000001,-0.25,-0.125,0.6387200196512403,0\n"
        + "0.75,0.25,0.125,0,0.35696733868083963,1.0413327191462114,"
          "0.02575000000000001,1.125,-0.125,0.9519404934131335,0\n"
        + "1.0,,,1,0.5,0.75,0.001,2.5,-0.125,1.25,0\n"
    )
    doc = json.loads((tmp_path / "geodesic.json").read_text())
    assert doc["length"] == pytest.approx(6.574005654132021, rel=1e-15)


def test_isometry_to_json_golden():
    # every action kind, and a swap of the two isomorphic horn factors
    space = SpaceSpec((Horn(), Horn(), HyperbolicPlane(), Euclidean(2)))
    iso = Isometry(space, (
        HornAction(a=1.0 / 3.0),
        HornAction(a=-0.25, reflect=True),
        MobiusAction(((2.0, 1.0), (1.0, 1.0))),
        EuclideanAction([[0.0, -1.0], [1.0, 0.0]], [3.0, 0.125]),
    ), permutation=(1, 0, 2, 3))
    text = json.dumps(isometry_to_json(iso))
    assert text == (
        '{"factor_actions": [{"kind": "horn_translate", "a": 0.3333333333333333}, '
        '{"kind": "horn_reflect", "a": -0.25}, '
        '{"kind": "mobius", "m": [[2.0, 1.0], [1.0, 1.0]]}, '
        '{"kind": "euclid", "Q": [[0.0, -1.0], [1.0, 0.0]], "t": [3.0, 0.125]}], '
        '"permutation": [1, 0, 2, 3]}'
    )
    back = isometry_from_json(space, text)
    assert back == iso
    assert json.dumps(isometry_to_json(back)) == text
