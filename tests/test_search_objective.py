"""The translation-length search's objective and its decision record.

The search's objective (``actions._Objective``) reads chart points as
Python floats and takes them through ``search_blocks`` and
``Isometry.apply_blocks`` straight into ``connect.distance``; it must
give the float of ``displacement(iso, point_from_search(space, u))``,
bit for bit, on every chart point, snapped levels included.  The
search's result records which phase decided and what each phase spent;
the table-1 artifact carries that record under one new ``evidence`` key
and must otherwise stay byte-identical to the committed artifacts in
``tests/data``, whose values are checked against closed forms.  The
search's minimizer seeds an axis (a second oracle), and the Horn x Horn
swap is decided at the clamp within a fixed evaluation budget.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

import hornlab.geometry.connect as connect_mod
from hornlab.actions import (
    DECIDERS,
    L_TOL,
    PHASES,
    PSEUDO_ANOSOV,
    REDUCIBLE,
    STRICTLY_PSEUDOPERIODIC,
    EuclideanAction,
    HornAction,
    Isometry,
    _Objective,
    classify,
    displacement,
    translation_length,
)
from hornlab.errors import ConnectError, DistanceIntervalError
from hornlab.experiments import ExperimentConfig, canonical_isometries, run_experiment
from hornlab.geometry import (
    XI_SNAP,
    Euclidean,
    Horn,
    PerturbedHorn,
    SpaceSpec,
    factor_distances,
    point_from_json,
)
from hornlab.geometry.spaces import point_from_search
from hornlab.paths import equivariant_seed, refine_flow

DATA = Path(__file__).parent / "data"

HORN2 = SpaceSpec((Horn(), Horn()))
PERTURBED = SpaceSpec((PerturbedHorn(a4=0.1, c6=0.05),))
EU2 = SpaceSpec((Euclidean(2),))
c, s = math.cos(0.7), math.sin(0.7)

ISOMETRIES = {
    **{label: iso for label, iso in canonical_isometries().items()},
    "horn-swap": Isometry(HORN2, (HornAction(a=0.3), HornAction(a=0.0)), (1, 0)),
    "perturbed-rotation": Isometry(PERTURBED, (HornAction(a=0.8),)),  # panel route
    "euclidean-rotation": Isometry(EU2, (EuclideanAction([[c, -s], [s, c]], [0.5, -0.2]),)),
}


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _chart_points(space: SpaceSpec, n: int, seed: int):
    """Seeded search-chart points; level coordinates range from well
    below log(XI_SNAP), where the search chart holds horn levels at the
    snap threshold, past the upper clamps."""
    rng = np.random.default_rng(seed)
    levels = list(space.level_offsets)
    for _ in range(n):
        u = rng.uniform(-4.0, 4.0, space.dim)
        u[levels] = rng.uniform(-25.0, 32.0, len(levels))
        yield u


@pytest.mark.parametrize("name", ISOMETRIES)
def test_objective_equals_displacement_bit_for_bit(name):
    iso = ISOMETRIES[name]
    space = iso.space
    F = _Objective(iso)
    snapped = 0  # points with a horn level below the snap threshold
    for u in _chart_points(space, 200, seed=len(name)):
        p = point_from_search(space, u)
        snapped += any(u[k] < math.log(XI_SNAP) for k in space.xi_offsets)
        assert _bits(F(u)) == _bits(displacement(iso, p)), u
        if space.horn_indices:
            parts = factor_distances(space, p, iso.apply(p))
            want = max(parts[i] for i in space.horn_indices)
            assert _bits(F.part(u, space.horn_indices)) == _bits(want), u
    assert sum(F.evals.values()) == 200
    assert snapped > 0 or not space.horn_indices


def test_distance_interval_error_propagates(monkeypatch):
    iso = ISOMETRIES["horn-swap"]
    u = np.array([0.1, -0.5, 1.2, 0.3])

    def refuse(*args):
        raise ConnectError("refused")

    monkeypatch.setattr(connect_mod, "_WarpedPath", refuse)
    with pytest.raises(DistanceIntervalError) as want:
        displacement(iso, point_from_search(iso.space, u))
    with pytest.raises(DistanceIntervalError) as got:
        _Objective(iso)(u)
    assert (got.value.lower, got.value.upper) == (want.value.lower, want.value.upper)


def test_result_records_phases():
    res = translation_length(ISOMETRIES["reducible-not-pseudoperiodic-analog"])
    assert tuple(res.phase_evaluations) == PHASES
    assert res.evaluations == sum(res.phase_evaluations.values())
    assert res.decided_by == "collapse-ray"
    assert res.phase_evaluations["descent"] > 0 and res.phase_evaluations["certificate"] == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_table1_artifact_matches_the_committed_one(seed, tmp_path):
    """The table-1 artifact, less its ``evidence`` key, is the committed
    file byte for byte.  The files were written by the one-descent search,
    which draws no random start, so the three seeds' files are equal;
    ``test_table1_goldens_match_the_closed_forms`` checks their values."""
    run_experiment(ExperimentConfig("table1", seed=seed, out_dir=str(tmp_path)))
    doc = json.loads((tmp_path / "table1_classes.json").read_text())
    golden_text = (DATA / f"table1_classes_seed{seed}.json").read_text()
    golden = json.loads(golden_text)
    assert doc.keys() == golden.keys()
    decided = {}
    for label, entry in doc.items():
        assert set(entry) - set(golden[label]) == {"evidence"}
        evidence = entry.pop("evidence")
        assert entry == golden[label]
        assert evidence["decided_by"] in DECIDERS
        assert tuple(sorted(evidence["evaluations"])) == tuple(sorted(PHASES))
        decided[label] = evidence["decided_by"]
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == golden_text
    assert decided == {
        "periodic-analog": "fixed-point",
        "strictly-pseudoperiodic-analog": "clamp",
        "pseudoAnosov-analog": "certificate",
        "reducible-not-pseudoperiodic-analog": "collapse-ray",
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_table1_goldens_match_the_closed_forms(seed):
    # z -> 4z translates its axis x = 0 by ln 4, the reducible cell's
    # Euclidean factor shifts by 2 while its horn part closes, and the horn
    # rotation's displacement closes as the level falls
    golden = json.loads((DATA / f"table1_classes_seed{seed}.json").read_text())
    pa = golden[PSEUDO_ANOSOV]
    assert abs(pa["L_estimate"] - math.log(4.0)) <= 1e-12
    assert abs(golden[REDUCIBLE]["L_estimate"] - 2.0) <= 1e-12
    spp = golden[STRICTLY_PSEUDOPERIODIC]["L_estimate"]
    assert 0.0 <= spp <= 1e-12 and spp < L_TOL
    iso = canonical_isometries()[PSEUDO_ANOSOV]
    witness = point_from_json(iso.space, pa["witness"]["point"])
    assert abs(witness.blocks[0][0]) <= 1e-8
    assert abs(displacement(iso, witness) - pa["L_estimate"]) <= 1e-12


@pytest.mark.parametrize("n", [8, 16])
def test_minimizer_seeds_the_axis(n):
    # an attained minimizer p lies on the axis, so the chord from p to gp
    # already is one period of it: the flow stops at once, with period L
    iso = canonical_isometries()[PSEUDO_ANOSOV]
    res = translation_length(iso)
    assert res.attained
    _, report = refine_flow(equivariant_seed(iso.space, iso, res.witness, n))
    assert report.converged and report.iterations <= 16
    assert abs(report.final_length - math.log(4.0)) <= 1e-12


def test_horn_swap_decides_at_the_clamp():
    # the swap squared turns both horns by 0.3, so the displacement closes
    # only as both levels fall; at the clamp XI_SNAP the best angle gap is
    # 0.15 on each horn, where d = sqrt(2) 0.15 XI_SNAP^3
    res = classify(ISOMETRIES["horn-swap"])
    assert res.label == STRICTLY_PSEUDOPERIODIC
    assert res.evidence["decided_by"] == "clamp"
    assert sum(res.evidence["evaluations"].values()) <= 2500
    assert res.L_estimate == pytest.approx(math.sqrt(2.0) * 0.15 * XI_SNAP**3, rel=1e-12)
