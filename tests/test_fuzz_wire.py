"""Fuzzing of the wire formats.

Space, point and CSV documents go through ``cli.main``: whatever the
document, the command must end in exit code 0, 2 or 3 and never raise.
Isometry documents go straight to ``isometry_from_json`` (``classify``
takes seconds per call): each must give an ``Isometry`` or raise
``ValueError``.

Numbers are drawn on a moderate scale (|x| <= 1e3) plus the non-finite
and snap-threshold values; coupled (``b3`` > 0) spaces reach ``tensor``
only, because one coupled distance can take seconds.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hornlab.actions import Isometry, isometry_from_json
from hornlab.cli import main
from hornlab.geometry import Euclidean, Horn, HyperbolicPlane, SpaceSpec

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

numbers = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 1e-7, 0.99e-7, 1e-300,
                     math.nan, math.inf, -math.inf]),
    st.integers(-3, 4),
)
garbage = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                    st.lists(st.integers(0, 2), max_size=2), st.just({}))
values = st.one_of(numbers, numbers, numbers, garbage)
KINDS = ["horn", "hyperbolic", "euclidean", "perturbed_horn", "bogus"]


def factor_docs(coupled):
    b3 = values if coupled else st.sampled_from([0.0, -0.5, "x", None, math.nan])
    return st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(KINDS)},
                              optional={"dim": st.one_of(st.integers(-1, 3), values),
                                        "B": values, "a4": values, "b3": b3, "c6": values}),
        st.fixed_dictionaries({}, optional={"dim": st.integers(1, 2)}),
        garbage,
    )


def space_docs(coupled=False):
    return st.one_of(
        st.fixed_dictionaries({"factors": st.lists(factor_docs(coupled), min_size=1, max_size=3)}),
        st.fixed_dictionaries({}, optional={"factors": garbage}),
        garbage,
    )


block_docs = st.one_of(
    st.just({"kind": "boundary"}),
    st.fixed_dictionaries({"kind": st.sampled_from(["interior", "other"])},
                          optional={"theta": values, "xi": values}),
    st.fixed_dictionaries({"coords": st.lists(values, max_size=3)}),
    garbage,
)
point_docs = st.one_of(
    st.fixed_dictionaries({"blocks": st.lists(block_docs, max_size=4)}),
    garbage,
)


def _run(argv):
    rc = main(argv)
    assert rc in (0, 2, 3)


@FUZZ
@given(space=space_docs(coupled=True), point=point_docs)
def test_fuzz_tensor(space, point):
    _run(["tensor", "--space", json.dumps(space), "--point", json.dumps(point)])


@FUZZ
@given(space=space_docs(), p=point_docs, q=point_docs)
def test_fuzz_distance(space, p, q):
    _run(["distance", "--space", json.dumps(space),
          "--from", json.dumps(p), "--to", json.dumps(q)])


HORN_E1 = '{"factors":[{"kind":"horn"},{"kind":"euclidean","dim":1}]}'
CSV_HEADER = "x,f0_theta,f0_xi,f0_boundary,f1_c0"
cells = st.one_of(
    st.floats(-3.0, 3.0).map(repr),
    st.sampled_from(["", "0", "1", "0.5", "1e-8", "nan", "inf", "-1", "x", "1,2", '"']),
)
csv_texts = st.builds(
    lambda header, rows: "\n".join([header] + [",".join(r) for r in rows]) + "\n",
    st.one_of(st.just(CSV_HEADER), st.just(CSV_HEADER), st.text(max_size=8)),
    st.lists(st.lists(cells, min_size=3, max_size=6), min_size=0, max_size=5),
)


@FUZZ
@given(text=csv_texts)
def test_fuzz_relax_csv(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "path.csv"
        path.write_text(text)
        _run(["relax", "--space", HORN_E1, "--path", str(path), "--max-iter", "3"])


SPACES = [
    SpaceSpec((Horn(),)),
    SpaceSpec((HyperbolicPlane(),)),
    SpaceSpec((Euclidean(2),)),
    SpaceSpec((Horn(), Horn())),
    SpaceSpec((HyperbolicPlane(), Euclidean(1))),
]
matrices = st.one_of(
    st.lists(st.lists(values, min_size=1, max_size=3), min_size=1, max_size=3),
    st.sampled_from([[[1, 0], [0, 1]], [[2, 0], [0, 0.5]], [[0, -1], [1, 0]],
                     [[2, 0, 9], [0, 0.5, 9], [9, 9, 9]]]),
    garbage,
)
action_docs = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["horn_translate", "horn_reflect", "mobius", "euclid", "x"])},
        optional={"a": values, "m": matrices, "Q": matrices,
                  "t": st.one_of(st.lists(values, max_size=3), garbage)}),
    garbage,
)
iso_docs = st.one_of(
    st.fixed_dictionaries(
        {"factor_actions": st.lists(action_docs, max_size=3)},
        optional={"permutation": st.one_of(st.lists(values, max_size=3), garbage)}),
    garbage,
)


@FUZZ
@given(space=st.sampled_from(SPACES), doc=iso_docs)
def test_fuzz_isometry_from_json(space, doc):
    try:
        iso = isometry_from_json(space, json.loads(json.dumps(doc)))
    except ValueError:
        return
    assert isinstance(iso, Isometry)
