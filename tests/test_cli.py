import json
import math

import pytest

import hornlab.cli as cli_mod
import hornlab.experiments as experiments_mod
from hornlab.actions import DivergenceReport, isometry_from_json
from hornlab.cli import main
from hornlab.errors import BasinError, ConnectError, FlowBudgetError
from hornlab.experiments import EXPERIMENT_NAMES, ExperimentConfig, run_experiment
from hornlab.geometry import make_point, space_from_json
from hornlab.paths import equivariant_seed, path_to_csv

HORN_SPACE = '{"factors":[{"kind":"horn"}]}'
HYP_SPACE = '{"factors":[{"kind":"hyperbolic"}]}'
BOUNDARY = '{"blocks":[{"kind":"boundary"}]}'
TARGET = '{"blocks":[{"kind":"interior","theta":2.0,"xi":0.5}]}'
Z4 = '{"factor_actions":[{"kind":"mobius","m":[[2.0,0.0],[0.0,0.5]]}],"permutation":[0]}'


def test_tensor(capsys):
    rc = main(["tensor", "--space", HORN_SPACE,
               "--point", '{"blocks":[{"kind":"interior","theta":0.0,"xi":0.5}]}'])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metric"] == [[0.015625, 0.0], [0.0, 4.0]]


def test_distance(capsys):
    rc = main(["distance", "--space", HORN_SPACE, "--from", BOUNDARY, "--to", TARGET])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["distance"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("ends", [("1e-6", "1e12"), ("1e12", "1e-6")])
def test_distance_between_far_apart_levels(ends, capsys):
    """Levels 1e18 apart once ended in 'math domain error' and exit 3."""
    a, b = (f'{{"blocks":[{{"theta":{th},"xi":{xi}}}]}}' for th, xi in zip("01", ends))
    rc = main(["distance", "--space", HORN_SPACE, "--from", a, "--to", b])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["distance"] == pytest.approx(2e12, rel=1e-12)


def test_uncertified_distance_is_inconclusive(capsys):
    # two b3-coupled horns shoot, and on this pair neither the shoot nor
    # its curve-shortening fallback certifies: valid input, so exit 2 with
    # the interval, not the usage code 3
    space = json.dumps({"factors": [{"kind": "perturbed_horn", "B": 1.0, "b3": 0.2},
                                    {"kind": "perturbed_horn", "B": 1.0, "a4": 0.1, "b3": 0.2},
                                    {"kind": "euclidean", "dim": 1}]})

    def point(h1, h2, x):
        return json.dumps({"blocks": [{"theta": h1[0], "xi": h1[1]},
                                      {"theta": h2[0], "xi": h2[1]}, {"coords": [x]}]})

    rc = main(["distance", "--space", space,
               "--from", point((0.632, 0.303), (0.715, 0.34), 0.459),
               "--to", point((-0.649, 1.336), (0.083, 0.66), -0.155)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    lower, upper = (float(v) for v in err[err.index("[") + 1:err.index("]")].split(","))
    assert 2.18 < lower < upper < 3.87


def test_geodesic_connect_artifacts(tmp_path, capsys):
    rc = main(["geodesic", "--space", HORN_SPACE, "--from", BOUNDARY,
               "--to", TARGET, "--out", str(tmp_path)])
    assert rc == 0
    seg_csv = (tmp_path / "segment.csv").read_text()
    header = seg_csv.split("\n")[0]
    assert header == "x,f0_theta,f0_xi,f0_boundary"
    doc = json.loads((tmp_path / "geodesic.json").read_text())
    assert doc["length"] == pytest.approx(1.0, abs=1e-9)


def test_geodesic_shoot_mode(capsys):
    rc = main(["geodesic", "--space", HORN_SPACE,
               "--from", '{"blocks":[{"kind":"interior","theta":1.0,"xi":1.0}]}',
               "--velocity", "[0.0,-1.0]", "--length", "2.0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hit_stratum"] is True
    assert doc["endpoint"]["blocks"][0] == {"kind": "boundary"}


def test_relax(tmp_path, capsys):
    # zigzag between fixed endpoints in the flat plane
    rows = ["x,f0_c0,f0_c1"]
    n = 8
    for i in range(n + 1):
        y = 0.3 if 0 < i < n and i % 2 else 0.0
        rows.append(f"{i / n},{3.0 * i / n},{y}")
    path_file = tmp_path / "path.csv"
    path_file.write_text("\n".join(rows) + "\n")
    rc = main(["relax", "--space", '{"factors":[{"kind":"euclidean","dim":2}]}',
               "--path", str(path_file), "--tol", "1e-11",
               "--max-iter", "20000", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "flow.json").read_text())
    assert rep["converged"] and not rep["escaped"]
    assert rep["final_energy"] == pytest.approx(9.0, abs=1e-6)


def test_relax_equivariant_seed(tmp_path, capsys):
    space = space_from_json(json.loads(HYP_SPACE))
    iso = isometry_from_json(space, json.loads(Z4))
    seed = equivariant_seed(space, iso, make_point(space, [(0.8, 1.0)]), 8)
    path_file = tmp_path / "seed.csv"
    path_file.write_text(path_to_csv(seed))
    rc = main(["relax", "--space", HYP_SPACE, "--iso", Z4, "--path", str(path_file),
               "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "flow.json").read_text())
    assert rep["converged"] and not rep["escaped"]


def test_axis_escaping_flow_is_inconclusive(capsys):
    # the horn translation's flow runs off toward the stratum xi = 0
    rc = main(["axis", "--space", HORN_SPACE, "--nodes", "8",
               "--iso", '{"factor_actions":[{"kind":"horn_translate","a":1.0}]}',
               "--base", '{"blocks":[{"theta":0.0,"xi":0.5}]}'])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "escaped" in captured.err


ROTATION = ('{"factor_actions":[{"kind":"mobius","m":[[0.7071067811865476,0.7071067811865476],'
            '[-0.7071067811865476,0.7071067811865476]]}]}')


def test_axis_and_diverge_refuse_a_fixed_point(tmp_path, capsys):
    # an elliptic isometry's flow collapses onto its fixed point; both
    # commands stop with a configuration error instead of an axis of
    # period zero
    base = ["--base", '{"blocks":[{"coords":[0.3,1.0]}]}', "--nodes", "8"]
    rc = main(["axis", "--space", HYP_SPACE, "--iso", ROTATION, "--out", str(tmp_path)] + base)
    assert rc == 3
    assert list(tmp_path.iterdir()) == []
    rc = main(["diverge", "--space", HYP_SPACE, "--iso", ROTATION, "--iso2", Z4,
               "--rgrid", "2,3"] + base)
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: flow converged to a fixed point") == 2


GOLDEN = '{"factor_actions":[{"kind":"mobius","m":[[5,3],[3,2]]}]}'


def test_diverge_writes_deterministic_evaluation_counts(tmp_path, capsys):
    argv = ["diverge", "--space", HYP_SPACE, "--iso", Z4, "--iso2", GOLDEN,
            "--base", '{"blocks":[{"coords":[0.05,1.0]}]}', "--rgrid", "0,2,3"]
    docs = []
    for run in ("a", "b"):
        assert main(argv + ["--out", str(tmp_path / run)]) == 0
        docs.append(json.loads((tmp_path / run / "divergence.json").read_text()))
    capsys.readouterr()
    counts = docs[0]["evaluations"]
    assert counts == docs[1]["evaluations"]
    assert set(counts) == {"centre_search", "line_searches"}
    # two nested line searches find the centre (176 gaps here), then per
    # R > 0 four corners and four line searches; R = 0 takes its four
    # corners only
    assert 0 < counts["centre_search"] <= 300
    assert counts["line_searches"] > 4 * 3 + 2 * 4


def test_classify_exit_codes(capsys):
    rc = main(["classify", "--space", HYP_SPACE, "--iso", Z4])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"] == "pseudoAnosov-analog"
    assert doc["L_estimate"] == pytest.approx(math.log(4.0), abs=1e-6)
    assert doc["evidence"]["decided_by"] == "certificate"
    assert sum(doc["evidence"]["evaluations"].values()) > 0


def test_masur_and_expansion(tmp_path, capsys):
    rc = main(["masur", "--tmin", "1e-7", "--tmax", "1e-2", "--num", "7",
               "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    fit = doc["fits"]["pairing_normal_normal"]
    assert abs(fit["alpha"] - 2.0) < 0.02
    csv_lines = (tmp_path / "pairings.csv").read_text().strip().split("\n")
    assert csv_lines[0].startswith("t,pairing_")
    assert len(csv_lines) == 8
    rc = main(["expansion", "--svalues", "25,36,64", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(abs(r - 1) < 0.01 for r in doc["ratio_xixi"])
    # the layout `hornlab experiment expansion` writes
    csv_lines = (tmp_path / "expansion.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "t,xi,coeff_xixi,ratio_xixi,coeff_thth_over_xi6,ratio_thth"
    assert len(csv_lines) == 4


def test_masur_repeated_pair_is_one_column(capsys):
    rc = main(["masur", "--pairs", "normal,normal;normal,normal", "--num", "6"])
    assert rc == 0
    assert list(json.loads(capsys.readouterr().out)["fits"]) == ["pairing_normal_normal"]


def test_usage_errors():
    assert main(["distance", "--space", HORN_SPACE, "--from", BOUNDARY]) == 3
    # a geodesic needs --to or --velocity
    assert main(["geodesic", "--space", HORN_SPACE, "--from", TARGET]) == 3
    assert main(["tensor", "--space", HORN_SPACE, "--point", "not-json{"]) == 3
    assert main(["nonsense"]) == 3


@pytest.mark.parametrize("space, point", [
    (HORN_SPACE, '{"blocks":[{"kind":"interior","theta":2.0}]}'),  # no xi
    ('{"factors":[{}]}', BOUNDARY),  # no factor kind
    (HORN_SPACE, '{"blocks":[{"kind":"interior","theta":"east","xi":0.5}]}'),
])
def test_malformed_wire_documents_exit_usage(space, point):
    assert main(["distance", "--space", space, "--from", point, "--to", BOUNDARY]) == 3


def test_experiment_runner(tmp_path, capsys):
    rc = main(["experiment", "corners", "--out", str(tmp_path / "c"), "--seed", "3"])
    assert rc == 0
    rep = json.loads((tmp_path / "c" / "report.json").read_text())
    assert rep["passed"] is True
    assert "runtime" not in rep  # byte-deterministic artifact
    assert (tmp_path / "c" / "corners_samples.csv").exists()


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_report_lists_the_files_beside_it(name, tmp_path):
    report = run_experiment(ExperimentConfig(name, out_dir=str(tmp_path)))
    listed = json.loads((tmp_path / "report.json").read_text())["artifacts"]
    assert listed and listed == sorted(report.artifacts)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(listed + ["report.json"])


def test_report_lists_no_files_without_out_dir():
    assert run_experiment(ExperimentConfig("interior")).artifacts == []


def test_solver_failure_writes_the_report_alone(monkeypatch, tmp_path):
    def give_up(config):
        raise ConnectError("gave up")

    monkeypatch.setattr(experiments_mod, "run_corners", give_up)
    report = run_experiment(ExperimentConfig("corners", out_dir=str(tmp_path)))
    assert report.inconclusive and report.artifacts == []
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["assertions"][0]["measured"] == "gave up"


@pytest.mark.parametrize("iso", [
    "{}",  # no factor_actions
    '{"factor_actions":[{"kind":"mobius"}]}',  # no matrix
    '{"factor_actions":[{"kind":"mobius","m":[[1,2]]}]}',  # one-row matrix
])
def test_malformed_isometry_exits_usage(iso):
    assert main(["classify", "--space", HYP_SPACE, "--iso", iso]) == 3


def test_short_csv_row_exits_usage(tmp_path):
    path_file = tmp_path / "path.csv"
    path_file.write_text("x,f0_theta,f0_xi,f0_boundary\n0.0,0.1,0.5,0\n1.0,0.2\n")
    assert main(["relax", "--space", HORN_SPACE, "--path", str(path_file),
                 "--out", str(tmp_path)]) == 3


def test_flags_only_where_read():
    # --tol and --seed are accepted only by the subcommands that read them
    assert main(["distance", "--tol", "1e-3", "--space", HORN_SPACE,
                 "--from", BOUNDARY, "--to", TARGET]) == 3
    assert main(["tensor", "--seed", "1", "--space", HORN_SPACE, "--point", TARGET]) == 3
    assert main(["classify", "--tol", "1e-3", "--space", HYP_SPACE, "--iso", Z4]) == 3


def test_axis_out_of_budget_is_inconclusive(monkeypatch, capsys):
    real_axis = cli_mod.compute_axis
    monkeypatch.setattr(cli_mod, "compute_axis",
                        lambda iso, seed_path, tol: real_axis(iso, seed_path, tol, max_iter=3))
    rc = main(["axis", "--space", HYP_SPACE, "--iso", Z4,
               "--base", '{"blocks":[{"coords":[0.8,1.0]}]}'])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "neither converged nor escaped" in captured.err


def test_diverge_passes_tol_to_both_axes(monkeypatch, capsys):
    seen = []

    def fake_axis(iso, seed_path, tol=None):
        seen.append(tol)

    monkeypatch.setattr(cli_mod, "compute_axis", fake_axis)
    monkeypatch.setattr(cli_mod, "divergence_profile",
                        lambda a, b, r: DivergenceReport(r, [0.0] * len(r), None, 0.0))
    args = ["diverge", "--space", HYP_SPACE, "--iso", Z4, "--iso2", Z4,
            "--base", '{"blocks":[{"coords":[0.05,1.0]}]}', "--rgrid", "2,3"]
    assert main(args + ["--tol", "1e-3"]) == 0
    assert main(args) == 0
    assert seen == [1e-3, 1e-3, 1e-10, 1e-10]


@pytest.mark.parametrize("error", [BasinError, FlowBudgetError])
@pytest.mark.parametrize("failing_call", [1, 2])
def test_axis_and_diverge_flow_errors_are_inconclusive(monkeypatch, capsys, error, failing_call):
    calls = []

    def failing_axis(iso, seed_path, tol=None):
        calls.append(tol)
        if len(calls) == failing_call:
            raise error("flow gave up")

    monkeypatch.setattr(cli_mod, "compute_axis", failing_axis)
    base = ["--base", '{"blocks":[{"coords":[0.05,1.0]}]}']
    diverge = ["diverge", "--space", HYP_SPACE, "--iso", Z4, "--iso2", Z4, "--rgrid", "2,3"]
    assert main(diverge + base) == 2
    assert calls == [1e-10] * failing_call
    if failing_call == 1:
        calls.clear()
        assert main(["axis", "--space", HYP_SPACE, "--iso", Z4] + base) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "flow gave up" in captured.err
