import json
from types import SimpleNamespace

import numpy as np
import pytest

from squidcavity import cli
from squidcavity.cli import main
from squidcavity.model import CouplingParams, analytic_eigenvalues


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eig_json(capsys):
    code, out, err = run(capsys, "eig", "--g", "1.0", "--gprime", "1.0")
    assert code == 0
    assert "units" in err
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    expected = analytic_eigenvalues(CouplingParams.symmetric(1.0, 1.0))
    assert np.allclose(payload["analytic"], expected, atol=1e-14)
    assert np.allclose(payload["numeric"], expected, atol=1e-10)


def test_eig_csv(capsys):
    code, out, _ = run(capsys, "eig", "--g", "0.5", "--gprime", "0.7",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,analytic,numeric"
    assert len(lines) == 7
    for line in lines[1:]:
        _, a, n = line.split(",")
        assert abs(float(a) - float(n)) < 1e-10


def test_evolve(capsys):
    code, out, _ = run(capsys, "evolve", "--g", "1.0", "--gprime", "1.0",
                       "--t", "0.0")
    assert code == 0
    payload = json.loads(out)
    amps = np.array([complex(re, im) for re, im in payload["amplitudes"]])
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
    assert abs(sum(payload["probabilities"]) - 1.0) < 1e-8


def test_evolve_requires_time(capsys):
    code, _, err = run(capsys, "evolve", "--g", "1.0")
    assert code == 1
    assert "error" in err


def test_trace_csv_constant_when_uncoupled(capsys):
    code, out, _ = run(capsys, "trace", "--g", "0.5", "--t-max", "5",
                       "--n-steps", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,P1,P2,P3,P4,sum"
    assert len(lines) == 7
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.max(np.abs(rows[:, 1:5] - rows[0, 1:5])) < 1e-10
    assert np.max(np.abs(rows[:, 5] - 1.0)) < 1e-8


def test_optimize_feasible(capsys):
    code, out, _ = run(capsys, "optimize", "--g", "0.6", "--gprime", "1.37",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "g,gprime,j,feasible,t0,p1p2,p3,p4,pi_over_gprime"
    fields = lines[1].split(",")
    assert fields[3] == "true"
    assert float(fields[5]) <= 1e-6


def test_optimize_require_feasible_exit_code(capsys):
    code, out, err = run(capsys, "optimize", "--g", "0.5", "--gprime", "0",
                         "--require-feasible", "--t-max", "20")
    assert code == 2
    assert "infeasible" in err
    payload = json.loads(out)
    assert payload["feasible"] is False


def test_sweep_csv_row_count(capsys):
    code, out, err = run(capsys, "sweep", "--grid", "0.5:1.0:2,0.5:1.0:2",
                         "--threshold-exp", "2", "--threshold-exp", "4",
                         "--t-max", "30", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "g,gprime,j,feasible,t0,p3,p1p2"
    assert len(lines) == 1 + 2 * 4
    assert "cells 4/4" in err


def test_reruns_byte_identical(capsys):
    args = ("optimize", "--g", "1.1", "--gprime", "0.9", "--t-max", "40")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"g": 1.0, "gprime": 1.0, "t": 0.5}))
    code, out, _ = run(capsys, "evolve", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["t"] == 0.5
    # explicit flags win over the file
    code, out, _ = run(capsys, "evolve", "--config", str(cfg), "--t", "0.25")
    assert code == 0
    assert json.loads(out)["t"] == 0.25


@pytest.mark.parametrize("command,cfg", [
    ("optimize", {"g": 0.6, "threshold_exp": 6}),
    ("fig4", {"g": 0.6, "threshold_exp": 6}),
    ("evolve", {"g": 0.6, "t": "abc"}),
    ("eig", {"g": "0.6"}),
    ("trace", {"g": 0.6, "n_steps": 2.5}),
    ("sweep", {"grid": 5}),
    ("eig", {"g": 0.6, "format": "xml"}),
    ("optimize", {"g": 0.6, "require_feasible": 1}),
    ("evolve", {"g": True, "t": 1.0}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_config_values_are_checked_like_flags(tmp_path, capsys, command, cfg):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"g": 1.0, "bogus": 3}))
    code, _, err = run(capsys, "eig", "--config", str(cfg))
    assert code == 1
    assert "bogus" in err


def test_config_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _, err = run(capsys, "eig", "--config", str(cfg))
    assert code == 1
    assert "error" in err
    cfg.write_text("[1, 2]")
    code, _, err = run(capsys, "eig", "--config", str(cfg))
    assert code == 1
    assert "must be a JSON object" in err
    code, _, err = run(capsys, "eig", "--config", str(tmp_path / "missing.json"))
    assert code == 1
    assert "cannot read config" in err


def test_bad_flags(capsys):
    assert run(capsys, "eig")[0] == 1
    assert run(capsys, "eig", "--g", "-1")[0] == 1
    assert run(capsys, "eig", "--g1", "1.0")[0] == 1
    assert run(capsys, "sweep", "--grid", "nope")[0] == 1
    assert run(capsys, "nosuchcmd")[0] == 1


POINT = ("--g", "0.6", "--gprime", "1.37")


@pytest.mark.parametrize("argv", [
    ("evolve", *POINT, "--t", "-1"),
    ("evolve", *POINT, "--t", "nan"),
    ("evolve", *POINT, "--t", "inf"),
    ("evolve", "--g1", "0.5", "--g2", "0.7", "--omega1", "1", "--omega2", "1",
     "--t", "1"),
    ("optimize", *POINT, "--t-max", "inf"),
    ("trace", *POINT, "--t-max", "inf"),
    ("sweep", "--grid", "0.5:1.0:2,0.5:1.0:2", "--t-max", "inf"),
    ("fig4", *POINT, "--t-max", "inf"),
    ("evolve", *POINT, "--t", "1e300"),
    ("trace", *POINT, "--t-max", "1e300", "--n-steps", "3"),
    ("optimize", *POINT, "--t-max", "1e300"),
    ("optimize", *POINT, "--threshold-exp", "-400"),
    ("fig4", *POINT, "--threshold-exp", "-400"),
    ("optimize", *POINT, "--threshold-exp", "400"),
    ("fig4", *POINT, "--threshold-exp", "400"),
    ("sweep", "--grid", "0.5:1:2,0.5:1:1", "--threshold-exp", "400"),
    ("optimize", *POINT, "--threshold-exp", "6", "--threshold-exp", "1"),
    ("fig4", *POINT, "--threshold-exp", "6", "--threshold-exp", "1"),
    ("sweep", "--grid", "0.5:1.0:2,0.5:1.0:3", "--threshold-exp", "1", "--threshold-exp", "1"),
    ("sweep", "--grid", "0.1:1:1000000000000,0.1:1:2"),
    ("eig", "--g", "1e200", "--gprime", "1"),
    ("eig", "--g", "1", "--gprime", "1e200"),
    ("evolve", "--g", "1e200", "--t", "1"),
    ("trace", "--g", "1e200"),
    ("optimize", "--g", "1e200"),
    ("fig4", "--g", "1e200"),
    ("sweep", "--grid", "0.1:1e200:2,0.1:1:2"),
], ids=lambda argv: " ".join(argv))
def test_bad_times_are_errors(capsys, forbid_large_grids, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("grid", ["0.5:inf:2,0.5:1:2", "0.5:1:2,0.5:1e76:2", "0.5:1:2,inf:inf:2"])
def test_sweep_names_its_ranges_when_they_are_too_large(capsys, grid):
    code, out, err = run(capsys, "sweep", "--grid", grid)
    assert (code, out) == (1, "")
    assert err == "error: ranges must be finite and at most 1e+75\n"


GENERAL = ("--g1", "0.5", "--g2", "0.5", "--omega1", "1", "--omega2", "1", "--gprime", "1")


@pytest.mark.parametrize("argv", [
    ("sweep", "--grid", "0.5:1:2,0.5:1:2", "--g", "5"),
    ("sweep", "--grid", "0.5:1:2,0.5:1:2", "--gprime", "3"),
    ("fig4", *GENERAL),
    ("fig4", "--gprime", "1.5"),
    ("eig", "--g1", "1", "--g2", "1", "--omega1", "2", "--omega2", "2", "--gprime", "1"),
    ("trace", *POINT, "--t", "5"),
    ("optimize", *POINT, "--thr", "1"),
    ("eig", "--config", {"g1": 0.5, "g2": 0.5, "omega1": 1.0, "omega2": 1.0, "gprime": 1.0}),
    ("sweep", "--grid", "0.5:1:2,0.5:1:2", "--config", {"g": 1.0}),
], ids=lambda argv: " ".join(a if isinstance(a, str) else json.dumps(a) for a in argv))
def test_commands_take_only_the_flags_they_read(tmp_path, capsys, argv):
    # a dict stands for a config file holding it
    path = tmp_path / "run.json"
    for arg in argv:
        if isinstance(arg, dict):
            path.write_text(json.dumps(arg))
    code, out, err = run(capsys, *(str(path) if isinstance(a, dict) else a for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "spec.csv"
    code, out, _ = run(capsys, "eig", "--g", "1.0", "--out", str(dest))
    assert code == 0
    assert out == ""
    assert dest.read_text().startswith("n,analytic,numeric")


def test_fig4_small(capsys):
    code, out, _ = run(capsys, "fig4", "--g", "0.6", "--gprime", "1.37",
                       "--t-max", "40", "--n-steps", "41", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 41
    assert lines[0].startswith("g,gprime,t,P1,P2,P3,P4,feasible")
    first = lines[1].split(",")
    assert first[7] == "true"
    t0 = float(first[8])
    gp = 1.37
    assert abs(float(first[11]) - np.pi / gp) < 1e-12
    assert abs(float(first[13]) - abs(t0 - np.pi / gp)) < 1e-10


_EDGE_PAYLOADS = [
    {}, [], [[]], [1, 2.0], [True, 1.0], None, "ünïcode ☃", {"κ": ["é", 1.0]},
    [1.0, float("nan"), 2.0], [float("inf"), 1.0], [-float("inf")],
    [[1.0, 2.0], [float("nan"), 1.0]], [[1.0], [float("-inf")]],
    [-0.0, 5e-324, 1e16, 1e-05, 0.1, 1.7976931348623157e308],
    [np.float64(0.5), 1.0], [[np.float64(0.1), 0.2]], np.float64(-0.0),
    [[1.0, 2.0], [3.0]], [[1.0], []], [[1.0], 2.0], [[[1.0, 2.0]]], (1.0,), (1.0, 2.0),
    {"times": [0.0, 0.5], "rows": [[0.25, 0.75], [1.0, 0.0]], "nested": {"v": [2.5], "e": {}}},
]


@pytest.mark.parametrize("payload", _EDGE_PAYLOADS, ids=repr)
def test_json_writer_matches_json_dumps(capsys, payload):
    cli._render(payload, "", None, SimpleNamespace(format="json", out=None))
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def _old_line(row):
    """Reference CSV line: each cell formatted on its own by its type."""
    cell = {bool: lambda v: "true" if v else "false", int: str, str: str}
    return ",".join([cell.get(type(v), lambda x: f"{float(x):.17g}")(v) for v in row])


def test_csv_row_writer_matches_per_cell_formatting():
    rows = [
        (True, 3, "φ0", 0.1, np.float64(2.5), -0.0, float("nan"), float("inf"), -float("inf")),
        (False, -7, "x", 1e-300, np.float64(-1e16), 5e-324, 1.0, 123456789.125, 0.0),
    ]
    assert cli._lines(rows) == [_old_line(r) for r in rows]
    assert cli._lines([rows[1][3:]]) == [_old_line(rows[1][3:])]
    assert cli._lines([]) == []


def test_fig4_json_avoids_the_pure_python_encoder(capsys, monkeypatch):
    # json.dumps(indent=...) always runs the pure-Python encoder built by
    # json.encoder._make_iterencode, the cost the writer exists to avoid
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    code, out, _ = run(capsys, "fig4")
    assert code == 0
    bundles = json.loads(out)["bundles"]
    assert len(bundles) == 3 and all(len(b["rows"]) == len(b["times"]) > 1000 for b in bundles)
