"""Command-line frontend: subcommand outputs, formats, exit codes."""

import importlib
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sixjvol
from sixjvol.cli import main

PI = math.pi
PI6 = ["pi/6"] * 6
# The JSON objects of a growth fit and of one level sample.
FIT_KEYS = {"c0", "c1", "c2", "residual_rms"}
SAMPLE_KEYS = {"r", "log_abs", "scaled", "sign"}


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse parse failures
        code = exc.code
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ------------------------------------------------------------------ evaluate

def test_sixj_trivial_symbol(capsys):
    code, out, _ = run(capsys, ["sixj", "0", "0", "0", "0", "0", "0",
                                "--r", "7"])
    assert code == 0
    assert out == ('{"colors":[0,0,0,0,0,0],"log_abs":0.0,"r":7,'
                   '"sign":1,"value":1.0}\n')


def test_sixj_imaginary_symbol_is_domain_error(capsys):
    code, _, err = run(capsys, ["sixj", "0", "0", "0", "1", "1", "1",
                                "--r", "31"])
    assert code == 1
    assert "6j phase parity broken" in err


def test_sixj_inadmissible_colors(capsys):
    code, _, err = run(capsys, ["sixj", "2", "2", "2", "2", "2", "3",
                                "--r", "31"])
    assert code == 1
    assert "inadmissible tuple" in err


def test_sixj_rejects_even_level(capsys):
    code, _, err = run(capsys, ["sixj", "0", "0", "0", "0", "0", "0",
                                "--r", "8"])
    assert code == 2
    assert "level must be odd" in err


# ------------------------------------------------------- classify and volume

def test_classify_equilateral_hyperbolic(capsys):
    code, out, _ = run(capsys, ["classify"] + PI6)
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "GeneralizedHyperbolic"
    assert doc["signature"] == [3, 1, 0]
    assert doc["admissible"] and doc["strictly_admissible"]
    assert doc["cofactor_signs"][0][0] == -1


def test_classify_spherical(capsys):
    code, out, _ = run(capsys, ["classify"] + ["pi/2"] * 6)
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "Spherical"
    assert doc["signature"] == [4, 0, 0]


def test_pi_literals_match_decimal_angles(capsys):
    _, a, _ = run(capsys, ["classify"] + PI6)
    _, b, _ = run(capsys, ["classify"] + [repr(PI / 6)] * 6)
    assert a == b


def test_mu_flag_changes_alpha(capsys):
    code, out, _ = run(capsys, ["classify", "--mu", "++++++"] + PI6)
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == [1] * 6
    assert doc["alpha"][0] == pytest.approx(PI + PI / 6)


def test_no_tolerance_option(capsys):
    code, _, err = run(capsys, ["classify"] + PI6 + ["--tol", "1e-6"])
    assert code == 2
    assert "unrecognized arguments" in err
    for name in sixjvol.__all__:
        obj = getattr(sixjvol, name)
        if inspect.isfunction(obj):
            assert "tol" not in inspect.signature(obj).parameters, name


# Each command takes --format only if it streams, and --mu only if it
# reads angles; every pairing outside that is a usage error.
@pytest.mark.parametrize("argv", [
    ["classify", *PI6, "--format", "csv"],
    ["tetra", *PI6, "--format", "csv"],
    ["volume", *PI6, "--format", "csv"],
    ["schlafli", *PI6, "--format", "csv"],
    ["sixj", "0", "0", "0", "0", "0", "0", "--r", "7", "--format", "csv"],
    ["sixj", "0", "0", "0", "0", "0", "0", "--r", "7", "--mu", "++++++"],
    ["prism", "SPEC", "--r-end", "109", "--mu", "++++++"],
    ["lobachevsky-table", "--points", "3", "--mu", "++++++"],
])
def test_options_only_where_the_command_reads_them(capsys, tmp_path, argv):
    spec = write_spec(tmp_path, {"vertical": [0.5, 0.5, 0.5],
                                 "base_b": [0.6, 0.7, 0.8],
                                 "base_c": [0.9, 1.0, 1.1]})
    code, out, err = run(capsys, [spec if a == "SPEC" else a for a in argv])
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


def test_mu_flag_validation(capsys):
    code, _, err = run(capsys, ["classify", "--mu", "+++"] + PI6)
    assert code == 2
    assert "need six characters" in err


def test_angle_range_validation(capsys):
    code, _, err = run(capsys, ["classify", "7.0", "0", "0", "0", "0", "0"])
    assert code == 2
    assert "outside [0, 2*pi]" in err


def test_volume_octahedral(capsys):
    code, out, _ = run(capsys, ["volume", "0", "0", "0", "0", "0", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["vol"] == pytest.approx(3.663862376708876, abs=1e-12)
    assert doc["xi"] == pytest.approx(7 * PI / 4)
    assert doc["xi_star"] == pytest.approx(5 * PI / 4)
    assert not doc["degenerate"]
    assert doc["edge_lengths"] == pytest.approx([0.0] * 6, abs=1e-6)


def test_volume_flat_reports_degenerate(capsys):
    code, out, _ = run(capsys, ["volume", "pi", "0", "0", "pi", "0", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["degenerate"] is True
    assert doc["vol"] == pytest.approx(0.0, abs=1e-10)
    assert doc["edge_lengths"] is None


def test_tetra_report(capsys):
    th = ["1.2"] + [repr(PI - 1.2), repr(PI - 1.2), "1.2",
                    repr(PI - 1.2), repr(PI - 1.2)]
    code, out, _ = run(capsys, ["tetra"] + th)
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "1c"
    assert doc["case_operations"] == []
    assert doc["vertex_types"] == ["Regular"] * 4
    assert len(doc["vertices"]) == 4 and len(doc["vertices"][0]) == 4
    assert len(doc["normals"]) == 4
    expect = [0.775766, -0.775766, -0.775766, 0.775766, -0.775766, -0.775766]
    assert doc["edge_lengths"] == pytest.approx(expect, abs=1e-6)
    assert doc["edge_data"][0] == {"ideal": False, "kind": "VertexVertex"}


def test_tetra_and_volume_compute_shared_data_once(capsys, monkeypatch,
                                                   empty_gram_memos):
    import sixjvol.cli as cli_mod
    import sixjvol.volfun as volfun_mod

    calls = []

    def counted(mod, name):
        fn = getattr(mod, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(mod, name, wrapper)

    counted(volfun_mod, "critical_xi")
    counted(cli_mod, "critical_xi")
    # The cofactor matrix and the signature are computed on a memo miss
    # only, so the misses count the computations.
    code, out, _ = run(capsys, ["tetra"] + PI6)
    assert code == 0 and json.loads(out)["signature"] == [3, 1, 0]
    info = sixjvol.gram_cache_info()
    assert info["cofactor_matrix"].misses == info["signature"].misses == 1
    assert calls == []
    code, out, _ = run(capsys, ["volume"] + PI6)
    assert code == 0 and calls.count("critical_xi") == 1
    assert json.loads(out)["vol"] == sixjvol.volume(
        sixjvol.AngleSixTuple((PI / 6,) * 6))


# --------------------------------------------------------------------- growth

def test_growth_csv_stream(capsys):
    code, out, _ = run(capsys, ["growth", "--r-start", "101", "--r-end",
                                "109", "--r-step", "2", "--format", "csv"]
                       + PI6)
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "r,log_abs,scaled,sign"
    assert len(lines) == 7 and lines[-1] == ""  # 5 rows + trailing CRLF
    first = lines[1].split(",")
    assert first[0] == "101"
    assert float(first[2]) == pytest.approx(2 * PI * float(first[1]) / 101)
    assert first[3] in {"-1", "0", "1"}


def test_growth_json_fit_and_determinism(capsys):
    argv = ["growth", "--r-start", "101", "--r-end", "121",
            "--r-step", "4"] + PI6
    code, out, _ = run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert {"samples", "fit", "vol", "gap"} <= set(doc)
    assert set(doc["fit"]) == FIT_KEYS
    assert all(set(s) == SAMPLE_KEYS for s in doc["samples"])
    assert doc["vol"] == pytest.approx(3.2259951354175156)
    assert len(doc["samples"]) == 6
    code2, out2, _ = run(capsys, argv)
    assert out2 == out  # byte-identical reruns


def test_growth_range_validation(capsys):
    code, _, err = run(capsys, ["growth", "--r-start", "301",
                                "--r-end", "101"] + PI6)
    assert code == 2
    assert "--r-end must be >= --r-start" in err
    code, _, err = run(capsys, ["growth", "--r-start", "100",
                                "--r-end", "109"] + PI6)
    assert code == 2
    assert "--r-start must be odd" in err
    code, _, err = run(capsys, ["growth", "--r-step", "3"] + PI6)
    assert code == 2
    assert "--r-step must be even" in err


# ---------------------------------------------------------------------- prism

def write_spec(tmp_path, doc, name="prism.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_prism_json_report(capsys, tmp_path):
    spec = write_spec(tmp_path, {"vertical": ["pi/6"] * 3,
                                 "base_b": ["pi/6"] * 3,
                                 "base_c": ["pi/6"] * 3})
    code, out, _ = run(capsys, ["prism", spec, "--r-start", "101",
                                "--r-end", "121", "--r-step", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["vol"] == pytest.approx(6.451990270835031)
    assert doc["vertical"] == pytest.approx([PI / 6] * 3)
    assert set(doc["fit"]) == FIT_KEYS
    assert all(set(s) == SAMPLE_KEYS for s in doc["samples"])
    assert len(doc["samples"]) == 6
    assert doc["gap"] == pytest.approx(abs(doc["fit"]["c0"] - doc["vol"]))


def test_prism_csv_stream(capsys, tmp_path):
    spec = write_spec(tmp_path, {"vertical": [0.5, 0.5, 0.5],
                                 "base_b": [0.6, 0.7, 0.8],
                                 "base_c": [0.9, 1.0, 1.1]})
    code, out, _ = run(capsys, ["prism", spec, "--r-start", "101",
                                "--r-end", "109", "--r-step", "2",
                                "--format", "csv"])
    assert code == 0
    assert out.split("\r\n")[0] == "r,log_abs,scaled,sign"


def test_prism_spec_file_errors(capsys, tmp_path):
    code, _, err = run(capsys, ["prism", str(tmp_path / "missing.json")])
    assert code == 2 and "cannot read prism spec" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, ["prism", str(bad)])
    assert code == 2 and "cannot read prism spec" in err
    code, _, err = run(capsys, ["prism", write_spec(
        tmp_path, {"vertical": [0.1, 0.1, 0.1]}, "miss.json")])
    assert code == 2 and "missing key" in err


def test_prism_apex_validation_is_domain_error(capsys, tmp_path):
    spec = write_spec(tmp_path, {"vertical": ["pi/2"] * 3,
                                 "base_b": [0.3] * 3, "base_c": [0.3] * 3})
    code, _, err = run(capsys, ["prism", spec, "--r-start", "101",
                                "--r-end", "121", "--r-step", "4"])
    assert code == 1
    assert "apex not hyperideal" in err


# ------------------------------------------------------------------- schlafli

def test_schlafli_report(capsys):
    code, out, _ = run(capsys, ["schlafli", "0.6", "0.7", "0.8",
                                "0.9", "1.0", "1.1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == 1e-4
    assert len(doc["residuals"]) == 6
    assert doc["max_abs"] < 1e-5
    assert doc["max_abs"] == pytest.approx(max(abs(x)
                                               for x in doc["residuals"]))


def test_schlafli_spherical_is_domain_error(capsys):
    code, _, err = run(capsys, ["schlafli"] + ["pi/2"] * 6)
    assert code == 1
    assert "not a generalized hyperbolic tetrahedron" in err


# ----------------------------------------------------------- function table

def test_lobachevsky_table_csv(capsys):
    code, out, _ = run(capsys, ["lobachevsky-table", "--start", "0",
                                "--end", repr(PI / 2), "--points", "5",
                                "--format", "csv"])
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "theta,lambda"
    assert len(lines) == 7 and lines[-1] == ""
    last = lines[5].split(",")
    assert float(last[0]) == pytest.approx(PI / 2)
    assert float(last[1]) == pytest.approx(0.0, abs=1e-12)


def test_lobachevsky_table_json(capsys):
    code, out, _ = run(capsys, ["lobachevsky-table", "--points", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == 3
    assert doc["table"][0] == [0.0, 0.0]
    assert doc["table"][-1][0] == pytest.approx(PI)
    assert doc["table"][-1][1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("points", ["0", "-3", "2.5"])
def test_lobachevsky_table_points_validation(capsys, points):
    code, out, err = run(capsys, ["lobachevsky-table", f"--points={points}"])
    assert code == 2 and out == ""
    assert "--points" in err


@pytest.mark.parametrize("h", ["0", "-1e-4", "nan", "inf", "-inf"])
def test_schlafli_step_validation(capsys, h):
    code, out, err = run(capsys, ["schlafli", *PI6, f"--h={h}"])
    assert code == 2 and out == ""
    assert "--h must be positive and finite" in err


# ------------------------------------------------------------ entry points

def test_module_invocation_runs():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "sixjvol.cli", "volume",
         "0", "0", "0", "0", "0", "0"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["vol"] == pytest.approx(3.663862376708876)


def test_console_script_entry_point_runs_help(capsys, monkeypatch):
    # The installed script calls the [project.scripts] target with no
    # arguments; resolve that target and run it the same way, in-process.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, attr = scripts["sixjvol"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is main
    monkeypatch.setattr(sys, "argv", ["sixjvol", "--help"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sixjvol")


def test_console_script_installed():
    exe = shutil.which("sixjvol")
    if exe is None:
        pytest.skip("sixjvol console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: sixjvol")
