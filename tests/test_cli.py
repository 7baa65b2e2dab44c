import json
import math

import pytest

from hornlab.cli import main

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


def test_classify_exit_codes(capsys):
    rc = main(["classify", "--space", HYP_SPACE, "--iso", Z4])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"] == "pseudoAnosov-analog"
    assert doc["L_estimate"] == pytest.approx(math.log(4.0), abs=1e-6)


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


def test_usage_errors():
    assert main(["distance", "--space", HORN_SPACE, "--from", BOUNDARY]) == 3
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
