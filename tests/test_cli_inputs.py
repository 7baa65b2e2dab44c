import json

import numpy as np
import pytest

from hornlab.actions import isometry_from_json, properness_probe
from hornlab.cli import main
from hornlab.geometry import (
    Euclidean,
    HyperbolicPlane,
    PerturbedHorn,
    SpaceSpec,
    geodesic_connect,
    make_point,
    metric_tensor,
    point_from_json,
    space_from_json,
)
from hornlab.paths import DiscretePath, heat_flow
from hornlab.geometry.spaces import coupling_sum

PERTURBED = {"kind": "perturbed_horn", "B": 1.0, "a4": 0.0, "b3": 0.0, "c6": 0.0}
LONG_SPACE = json.dumps({"factors": [PERTURBED] * 3 + [{"kind": "euclidean", "dim": 1}]})
LONG_POINT = json.dumps({"blocks": [{"kind": "interior", "theta": 0.0, "xi": 0.5}] * 3
                         + [{"coords": [0.0]}]})


def test_long_inline_json_is_not_taken_for_a_path(capsys):
    assert len(LONG_SPACE) > 255  # longer than a file name may be
    assert main(["tensor", "--space", LONG_SPACE, "--point", LONG_POINT]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["metric"]) == 7


def test_json_file_path_still_loads(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(LONG_SPACE)
    assert main(["tensor", "--space", str(path), "--point", LONG_POINT]) == 0
    assert len(json.loads(capsys.readouterr().out)["metric"]) == 7


def test_masur_unknown_pair_name_is_a_usage_error(capsys):
    assert main(["masur", "--pairs", "foo,bar", "--num", "2"]) == 3
    err = capsys.readouterr().err
    assert "'foo'" in err and "normal" in err and "tangential" in err


def test_mobius_matrix_must_be_2x2():
    hyp = SpaceSpec((HyperbolicPlane(),))
    doc = {"factor_actions": [{"kind": "mobius", "m": [[2, 0, 9], [0, 0.5, 9], [9, 9, 9]]}]}
    with pytest.raises(ValueError, match="2x2"):
        isometry_from_json(hyp, doc)
    assert main(["classify", "--space", '{"factors":[{"kind":"hyperbolic"}]}',
                 "--iso", json.dumps(doc)]) == 3


@pytest.mark.parametrize("dim", [2.7, float("inf"), "x"])
def test_euclidean_dim_must_be_an_integer(dim):
    with pytest.raises(ValueError):
        space_from_json({"factors": [{"kind": "euclidean", "dim": dim}]})


def test_euclidean_dim_accepts_integral_values():
    assert space_from_json({"factors": [{"kind": "euclidean", "dim": 2.0}]}) == \
        SpaceSpec((Euclidean(2),))
    assert main(["tensor", "--space", '{"factors":[{"kind":"euclidean","dim":2.7}]}',
                 "--point", '{"blocks":[{"coords":[0.0,0.0]}]}']) == 3


@pytest.mark.parametrize("entry", [0.7, float("inf"), "x"])
def test_permutation_entries_must_be_integers(entry):
    hyp = SpaceSpec((HyperbolicPlane(),))
    doc = {"factor_actions": [{"kind": "mobius", "m": [[1, 0], [0, 1]]}], "permutation": [entry]}
    with pytest.raises(ValueError):
        isometry_from_json(hyp, doc)


COUPLED = SpaceSpec((PerturbedHorn(B=1.0, b3=0.3), Euclidean(1)))
COUPLED_DOC = json.dumps({"factors": [{"kind": "perturbed_horn", "B": 1.0, "b3": 0.3},
                                      {"kind": "euclidean", "dim": 1}]})


@pytest.mark.parametrize("xi, total", [(1.8, 0.765), (1.9, 1.059), (2.0, 1.44)])
def test_coupling_sum_decides_positive_definiteness(xi, total):
    p = make_point(COUPLED, [(0.0, xi), (0.0,)])
    assert coupling_sum(COUPLED, p) == pytest.approx(total, abs=1e-3)
    smallest = np.linalg.eigvalsh(metric_tensor(COUPLED, p))[0]
    assert (smallest > 0) == (total < 1)


def test_coupling_sum_on_two_coupled_horns():
    space = SpaceSpec((PerturbedHorn(B=1.0, b3=0.3), PerturbedHorn(B=2.0, a4=0.1, b3=0.4),
                       Euclidean(1)))
    for xi1, xi2 in [(1.0, 1.0), (1.5, 1.4), (1.9, 0.5), (0.5, 1.7)]:
        p = make_point(space, [(0.0, xi1), (0.3, xi2), (0.0,)])
        smallest = np.linalg.eigvalsh(metric_tensor(space, p))[0]
        assert (smallest > 0) == (coupling_sum(space, p) < 1)
    assert coupling_sum(space, make_point(space, [None, None, (1.0,)])) == 0.0


def test_indefinite_coupled_points_are_rejected(capsys):
    def point(xi):
        return json.dumps({"blocks": [{"kind": "interior", "theta": 0.0, "xi": xi},
                                      {"coords": [0.0]}]})

    with pytest.raises(ValueError, match="positive definite"):
        point_from_json(COUPLED, point(2.0))
    assert main(["tensor", "--space", COUPLED_DOC, "--point", point(2.0)]) == 3
    assert main(["tensor", "--space", COUPLED_DOC, "--point", point(1.8)]) == 0


def test_indefinite_coupled_csv_nodes_are_rejected(tmp_path):
    path = tmp_path / "path.csv"
    rows = ["x,f0_theta,f0_xi,f0_boundary,f1_c0", "0.0,0.0,0.5,0,0.0",
            "0.5,0.0,{xi},0,0.5", "1.0,0.0,0.5,0,1.0"]
    path.write_text("\n".join(rows).format(xi=2.0) + "\n")
    argv = ["relax", "--space", COUPLED_DOC, "--path", str(path), "--max-iter", "1"]
    assert main(argv) == 3
    path.write_text("\n".join(rows).format(xi=0.6) + "\n")
    assert main(argv) in (0, 2)


def test_isometry_breaking_the_coupling_exits_usage(capsys):
    # reflecting the first Euclidean coordinate flips the b3 cross term
    iso = json.dumps({"factor_actions": [{"kind": "horn_translate", "a": 1.0},
                                         {"kind": "euclid", "Q": [[-1.0]], "t": [0.0]}]})
    with pytest.raises(ValueError, match="b3 cross term"):
        isometry_from_json(COUPLED, iso)
    assert main(["classify", "--space", COUPLED_DOC, "--iso", iso]) == 3


FLAT2_DOC = '{"factors":[{"kind":"euclidean","dim":2}]}'


@pytest.mark.parametrize("samples", [0, 1])
def test_geodesic_needs_two_samples(samples, capsys):
    space = space_from_json(FLAT2_DOC)
    p, q = make_point(space, [(0.0, 0.0)]), make_point(space, [(1.0, 0.0)])
    with pytest.raises(ValueError, match="samples >= 2"):
        geodesic_connect(space, p, q, samples=samples)
    argv = ["geodesic", "--space", FLAT2_DOC, "--from", '{"blocks":[{"coords":[0,0]}]}',
            "--to", '{"blocks":[{"coords":[1,0]}]}']
    assert main(argv + ["--samples", str(samples)]) == 3
    assert capsys.readouterr().out == ""
    assert main(argv + ["--samples", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["endpoint"] == {"blocks": [{"coords": [1.0, 0.0]}]}


@pytest.mark.parametrize("max_iter", [0, -1])
def test_relax_needs_one_sweep(max_iter, tmp_path, capsys):
    space = space_from_json(FLAT2_DOC)
    nodes = tuple(make_point(space, [(x, 0.0)]) for x in (0.0, 0.5, 1.0))
    with pytest.raises(ValueError, match="max_iter >= 1"):
        heat_flow(DiscretePath(space, nodes), max_iter=max_iter)
    path = tmp_path / "path.csv"
    path.write_text("x,f0_c0,f0_c1\n0.0,0.0,0.0\n0.5,0.5,0.3\n1.0,1.0,0.0\n")
    out = tmp_path / "out"
    assert main(["relax", "--space", FLAT2_DOC, "--path", str(path),
                 "--max-iter", str(max_iter), "--out", str(out)]) == 3
    assert capsys.readouterr().out == ""
    assert not (out / "flow.json").exists()


def test_experiment_takes_no_space(tmp_path):
    assert main(["experiment", "table1", "--space", '{"factors":[{"kind":"horn"}]}',
                 "--out", str(tmp_path / "t1")]) == 3
    assert not (tmp_path / "t1").exists()


HYP_DOC = '{"factors":[{"kind":"hyperbolic"}]}'
Z4_DOC = '{"factor_actions":[{"kind":"mobius","m":[[2,0],[0,0.5]]}]}'
PROPER_ARGV = ["proper", "--space", HYP_DOC, "--isos", f"[{Z4_DOC}]", "--mgrid", "2"]


@pytest.mark.parametrize("budget", [0, -5])
def test_proper_needs_one_sample(budget, capsys):
    z4 = isometry_from_json(space_from_json(HYP_DOC), Z4_DOC)
    with pytest.raises(ValueError, match="sample_budget must be >= 1"):
        properness_probe([z4], [2.0], budget)
    assert main(PROPER_ARGV + ["--budget", str(budget)]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("budget", [1, 5, 17, 40])
def test_proper_stays_within_budget(budget, capsys):
    assert main(PROPER_ARGV + ["--budget", str(budget)]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["entries"]
    assert 1 <= entry["samples"] <= budget


H2_PATH_CSV = "x,f0_c0,f0_c1\n0.0,0.0,1.0\n0.5,0.3,1.5\n1.0,1.0,1.0\n"
H2_POINT = '{"blocks":[{"coords":[0.0,1.0]}]}'
Z2_DOC = '{"factor_actions":[{"kind":"mobius","m":[[5,3],[3,2]]}]}'
AXIS_ARGV = ["axis", "--space", HYP_DOC, "--iso", Z4_DOC, "--base", H2_POINT]
SHOOT_ARGV = ["geodesic", "--space", HYP_DOC, "--from", H2_POINT]
DIVERGE_ARGV = ["diverge", "--space", HYP_DOC, "--iso", Z4_DOC, "--iso2", Z2_DOC,
                "--base", '{"blocks":[{"coords":[0.05,1.0]}]}', "--nodes", "4"]


@pytest.mark.parametrize("argv, message", [
    (["relax", "--space", HYP_DOC, "--path", "PATH", "--tol", "nan"], "finite tol > 0"),
    (["relax", "--space", HYP_DOC, "--path", "PATH", "--tol", "0"], "finite tol > 0"),
    (AXIS_ARGV + ["--tol", "nan"], "finite tol > 0"),
    (AXIS_ARGV + ["--tol", "-1"], "finite tol > 0"),
    (DIVERGE_ARGV + ["--tol", "inf"], "finite tol > 0"),
    (SHOOT_ARGV + ["--velocity", "[1,0]", "--length", "nan"], "positive and finite"),
    (SHOOT_ARGV + ["--velocity", "[1,0]", "--length", "inf"], "positive and finite"),
    (SHOOT_ARGV + ["--velocity", "[1,0,0]"], "must have length 2"),
    (PROPER_ARGV[:-1] + ["nan"], "finite levels"),
    (PROPER_ARGV[:-1] + ["inf"], "finite levels"),
    (DIVERGE_ARGV + ["--rgrid", "-3"], "finite R >= 0"),
    (DIVERGE_ARGV + ["--rgrid", "2,nan"], "finite R >= 0"),
], ids=lambda v: " ".join(v[:1] + v[-2:]) if isinstance(v, list) else None)
def test_malformed_numeric_inputs_exit_usage(argv, message, tmp_path, capsys):
    path = tmp_path / "path.csv"
    path.write_text(H2_PATH_CSV)
    out = tmp_path / "out"
    argv = [str(path) if a == "PATH" else a for a in argv] + ["--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err
    assert not out.exists()
