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
from conftest import lob_mp
from sixjvol import cli
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
    assert out == ('{"colors":[0,0,0,0,0,0],"log_abs":0.0,"phase":0,"r":7,'
                   '"sign":1,"value":1.0}\n')


def test_sixj_value_is_written_for_a_large_finite_symbol(capsys):
    # e^701.9 is a finite double: the value is written, not null
    code, out, _ = run(capsys, ["sixj", *["576"] * 6, "--r", "1381"])
    assert code == 0
    doc = json.loads(out)
    assert doc["log_abs"] == pytest.approx(701.9162492638341, abs=1e-9)
    assert doc["sign"] == -1
    assert doc["value"] == -math.exp(doc["log_abs"])
    assert doc["value"] == pytest.approx(-6.892135601285723e+304, rel=1e-9)


def test_sixj_value_is_null_beyond_a_normal_double(capsys, monkeypatch):
    # value = sign * e^log_abs exactly when that is a finite normal
    # double, about -708.40 < log_abs < 709.78; null elsewhere, so a
    # tiny symbol is never printed as 0.0, -0.0 or a subnormal.  An
    # imaginary symbol has neither a sign nor a value at any size.
    lo = math.log(sys.float_info.min)
    hi = math.log(sys.float_info.max)
    cases = [(-700.0, True), (math.nextafter(lo, 0.0), True), (lo, False),
             (-708.5, False), (-720.0, False), (-746.0, False),
             (-1e6, False), (709.7, True), (math.nextafter(hi, 0.0), True),
             (hi, False), (709.8, False), (800.0, False)]
    for log_abs, written in cases:
        for phase, sign in ((0, 1), (1, None), (2, -1), (3, None)):
            monkeypatch.setattr(cli, "_sixj_log",
                                lambda t: sixjvol.QuarterPhaseLog(
                                    log_abs, phase))
            code, out, _ = run(capsys, ["sixj", *["0"] * 6, "--r", "7"])
            assert code == 0
            doc = json.loads(out)
            assert (doc["log_abs"], doc["phase"], doc["sign"]) == (
                log_abs, phase, sign)
            if written and sign is not None:
                value = doc["value"]
                assert value == sign * math.exp(log_abs)
                assert sys.float_info.min <= abs(value) <= sys.float_info.max
            else:
                assert doc["value"] is None, log_abs


def test_sixj_imaginary_symbol_has_phase_and_no_real_value(capsys):
    # a purely imaginary symbol is a result, not a domain error: its
    # phase is odd, and it has no real sign or value
    code, out, err = run(capsys, ["sixj", "0", "0", "0", "1", "1", "1",
                                  "--r", "31"])
    assert code == 0 and err == ""
    assert out == ('{"colors":[0,0,0,1,1,1],"log_abs":-0.33623235319477174,'
                   '"phase":3,"r":31,"sign":null,"value":null}\n')
    z = sixjvol.sixj_exact_small(sixjvol.tuple_of((0, 0, 0, 1, 1, 1), 31))
    assert math.exp(json.loads(out)["log_abs"]) * -1j == pytest.approx(
        z, rel=1e-12)


def test_sixj_at_the_lowest_level(capsys):
    code, out, err = run(capsys, ["sixj", "0", "0", "0", "1", "1", "1",
                                  "--r", "3"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["r"] == 3 and doc["colors"] == [0, 0, 0, 1, 1, 1]
    z = sixjvol.sixj_exact_small(sixjvol.tuple_of((0, 0, 0, 1, 1, 1), 3))
    assert math.exp(doc["log_abs"]) * 1j ** doc["phase"] == pytest.approx(
        z, abs=1e-14)


def test_sixj_inadmissible_colors(capsys):
    code, _, err = run(capsys, ["sixj", "2", "2", "2", "2", "2", "3",
                                "--r", "31"])
    assert code == 1
    assert "inadmissible tuple" in err


def test_sixj_rejects_even_level(capsys):
    code, _, err = run(capsys, ["sixj", "0", "0", "0", "0", "0", "0",
                                "--r", "8"])
    assert code == 1  # the library refuses the level: a domain error
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
    # the parser reads 7.0; AngleSixTuple refuses it, a domain error
    code, _, err = run(capsys, ["classify", "7.0", "0", "0", "0", "0", "0"])
    assert code == 1
    assert "dihedral angle 7.0 outside [0, pi]" in err


def test_angle_text_that_does_not_parse_is_a_usage_error(capsys):
    for text, message in (("pi/0", "zero denominator in 'pi/0'"),
                          ("abc", "bad angle 'abc'")):
        code, out, err = run(capsys, ["classify", text] + ["0"] * 5)
        assert code == 2 and out == "" and message in err


# Every angle above pi + 1e-12, the range AngleSixTuple accepts, is
# refused by the library (exit 1), up to 2 pi as well as beyond it; the
# parser reads any number.
@pytest.mark.parametrize("command", ["classify", "tetra", "volume"])
@pytest.mark.parametrize("angle", ["3.1415926536", "4", "pi*3/2", "pi*2"])
def test_angles_above_pi_are_usage_errors(capsys, command, angle):
    code, out, err = run(capsys, [command, angle] + PI6[1:])
    assert code == 1 and out == ""
    assert "outside [0, pi]" in err


def test_classify_computes_one_gram_matrix_and_signature(capsys,
                                                         empty_gram_memos):
    code, out, _ = run(capsys, ["classify", "--mu", "+-+-+-", "0.6", "0.7",
                                "0.8", "0.9", "1.0", "1.1"])
    assert code == 0
    info = sixjvol.gram_cache_info()
    assert info["gram_from_alpha"].misses == info["signature"].misses == 1
    doc = json.loads(out)
    alpha = sixjvol.AlphaSixTuple(doc["alpha"], doc["mu"])
    G = sixjvol.gram_from_alpha(alpha)
    assert doc["gram"] == G.mat.tolist()
    assert doc["signature"] == list(sixjvol.classify(alpha).signature)
    assert doc["cofactors"] == sixjvol.cofactor_matrix(G.mat).tolist()


def test_volume_octahedral(capsys):
    code, out, _ = run(capsys, ["volume", "0", "0", "0", "0", "0", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["vol"] == pytest.approx(3.663862376708876, abs=1e-12)
    assert doc["xi"] == pytest.approx(7 * PI / 4)
    assert doc["xi_star"] == pytest.approx(5 * PI / 4)
    assert not doc["degenerate"]
    assert doc["edge_lengths"] == pytest.approx([0.0] * 6, abs=1e-6)


def test_volume_reports_admissibility(capsys):
    # the generalized volume is written for a theta that no mu makes
    # admissible, and "admissible" says so
    code, out, _ = run(capsys, ["volume", "0.5", "0.5", "0.5", "3.0", "3.0",
                                "3.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["admissible"] is False
    assert doc["vol"] == -3.453248315344908
    code, out, _ = run(capsys, ["volume"] + PI6)
    assert code == 0 and json.loads(out)["admissible"] is True


def test_volume_flat_reports_degenerate(capsys):
    code, out, _ = run(capsys, ["volume", "pi", "0", "0", "pi", "0", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["degenerate"] is True
    assert doc["vol"] == pytest.approx(0.0, abs=1e-10)
    assert doc["edge_lengths"] is None


def test_tetra_reports_case_operations(capsys):
    th = ["0.86", "1.81", "2.52", "0.84", "0.89", "2.58"]
    code, out, _ = run(capsys, ["tetra"] + th)
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "3a"
    assert doc["case_operations"] == [1, 2]


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
    import sixjvol.volfun as volfun_mod

    calls = []

    def counted(mod, name):
        fn = getattr(mod, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(mod, name, wrapper)

    counted(volfun_mod, "critical_xi")
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


def test_growth_json_without_a_hyperbolic_volume(capsys):
    # pi/2 x6 has no hyperbolic volume: the samples and fit are reported,
    # vol and gap are null, and the command succeeds
    code, out, _ = run(capsys, ["growth", "--r-start", "101", "--r-end",
                                "121"] + ["pi/2"] * 6)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["samples"]) == 11 and set(doc["fit"]) == FIT_KEYS
    assert doc["vol"] is None and doc["gap"] is None


def test_growth_range_validation(capsys):
    code, _, err = run(capsys, ["growth", "--r-start", "301",
                                "--r-end", "101"] + PI6)
    assert code == 2
    assert "--r-end must be >= --r-start" in err
    code, _, err = run(capsys, ["growth", "--r-start", "100",
                                "--r-end", "109"] + PI6)
    assert code == 1  # the library refuses the level: a domain error
    assert "levels must be odd integers >= 5, got 100" in err
    # an odd step gives an even level, which the scan rule refuses
    code, _, err = run(capsys, ["growth", "--r-step", "3"] + PI6)
    assert code == 1
    assert "levels must be odd integers >= 5, got 104" in err
    for step in ("0", "-2"):
        code, _, err = run(capsys, ["growth", "--r-step", step] + PI6)
        assert code == 2
        assert "--r-step must be >= 1" in err


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


def test_prism_csv_needs_no_fit(capsys, tmp_path):
    # three levels are too few to fit; CSV carries no fit, as for growth
    spec = write_spec(tmp_path, {"vertical": ["pi/6"] * 3,
                                 "base_b": ["pi/6"] * 3,
                                 "base_c": ["pi/6"] * 3})
    levels = ["--r-start", "101", "--r-end", "105"]
    code, out, err = run(capsys, ["prism", spec, *levels, "--format", "csv"])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.split("\r\n")[1:-1]]
    assert [row[0] for row in rows] == ["101", "103", "105"]
    code, _, err = run(capsys, ["prism", spec, *levels])
    assert code == 1 and "need at least 5 finite samples to fit" in err
    code, out, _ = run(capsys, ["prism", spec, "--r-start", "101",
                                "--r-end", "109"])
    assert code == 0
    assert [[float(x) for x in row] for row in rows] == [
        [s["r"], s["log_abs"], s["scaled"], s["sign"]]
        for s in json.loads(out)["samples"][:3]]


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


def test_prism_spec_not_utf8_is_usage_error(capsys, tmp_path):
    # UnicodeDecodeError is a ValueError, but an unreadable file is a
    # usage error, not a domain error
    path = tmp_path / "utf16.json"
    path.write_bytes(json.dumps(_GOOD_SPEC).encode("utf-16"))
    assert path.read_bytes()[:2] == b"\xff\xfe"
    code, out, err = run(capsys, ["prism", str(path)])
    assert code == 2 and out == ""
    assert "cannot read prism spec" in err and "utf-8" in err


# A spec that is not an object of angle lists, or holds an entry that
# does not parse as an angle, is a usage error like a missing key.  The
# count of three angles and the range [0, pi] are PrismSpec's rules: a
# spec that breaks one is refused by the library, a domain error.
_GOOD_SPEC = {"vertical": [0.5] * 3, "base_b": [0.6] * 3, "base_c": [0.7] * 3}


@pytest.mark.parametrize("doc, code, message", [
    (5, 2, "must be a JSON object"),
    (dict(_GOOD_SPEC, base_b=0.6), 2, "'base_b' needs a list of angles"),
    (dict(_GOOD_SPEC, base_b={"a": 0.6}), 2,
     "'base_b' needs a list of angles"),
    (dict(_GOOD_SPEC, base_c=[0.7, 0.7]), 1,
     "base_c needs exactly three angles"),
    (dict(_GOOD_SPEC, base_c=[0.7] * 4), 1,
     "base_c needs exactly three angles"),
    (dict(_GOOD_SPEC, base_b=[0.6, 0.6, 4.0]), 1,
     "dihedral angle 4.0 outside [0, pi]"),
    (dict(_GOOD_SPEC, base_b=[0.6, -0.5, 0.6]), 1,
     "dihedral angle -0.5 outside [0, pi]"),
    (dict(_GOOD_SPEC, base_c=["pi*3/2", 0.7, 0.7]), 1, "outside [0, pi]"),
    (dict(_GOOD_SPEC, vertical=[None, 0.5, 0.5]), 2, "bad angle 'None'"),
    (dict(_GOOD_SPEC, vertical=[True, 0.5, 0.5]), 2, "bad angle 'True'"),
], ids=["not-object", "entry-number", "entry-object", "two-angles",
        "four-angles", "number-above-pi", "negative-number",
        "string-above-pi", "null-angle", "bool-angle"])
def test_malformed_prism_spec_is_usage_error(capsys, tmp_path, doc, code,
                                             message):
    got, out, err = run(capsys, ["prism", write_spec(tmp_path, doc),
                                 "--r-end", "111"])
    assert got == code and out == "" and message in err
    assert ("cannot read prism spec" in err) == (code == 2)


# The CLI accepts exactly the angles AngleSixTuple accepts, in angle
# arguments and prism spec entries: [0, pi] with 1e-12 of slack at
# each end.  The parser reads every one; the library refuses the rest.
@pytest.mark.parametrize("angle, ok", [
    (-1e-12, True), (PI + 1e-12, True), (-2e-12, False), (PI + 2e-12, False),
], ids=["low-1e-12", "high+1e-12", "low-2e-12", "high+2e-12"])
def test_angle_bounds_are_those_of_the_library(capsys, tmp_path, angle, ok):
    text = repr(angle)
    spec = write_spec(tmp_path, dict(_GOOD_SPEC, base_b=[0.6, angle, 0.6]))
    if ok:
        sixjvol.AngleSixTuple((angle,) * 6)
        assert cli.angle_literal(text) == angle
        assert cli._load_prism_spec(spec).base_b == (0.6, angle, 0.6)
        return
    with pytest.raises(ValueError, match=r"outside \[0, pi\]"):
        sixjvol.AngleSixTuple((angle,) * 6)
    assert cli.angle_literal(text) == angle
    for argv in (["classify", "--", text] + PI6[1:],
                 ["prism", spec, "--r-end", "111"]):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "" and "outside [0, pi]" in err


def test_tiny_negative_angle_is_accepted(capsys):
    code, out, _ = run(capsys, ["classify", "--", "-1e-13"] + PI6[1:])
    assert code == 0 and json.loads(out)["theta"][0] == -1e-13


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


def test_schlafli_builds_each_gram_matrix_once(capsys, empty_gram_memos):
    # the base tuple and its twelve steps: 13 tuples, 13 computations
    code, out, _ = run(capsys, ["schlafli", "0.6", "0.7", "0.8", "0.9",
                                "1.0", "1.1"])
    assert code == 0
    info = sixjvol.gram_cache_info()
    assert info["gram_from_alpha"].misses == 13
    assert info["cofactor_matrix"].misses == 13
    theta = sixjvol.AngleSixTuple((0.6, 0.7, 0.8, 0.9, 1.0, 1.1))
    assert json.loads(out)["edge_lengths"] == list(
        sixjvol.edge_length_tuple(sixjvol.gram_from_angles(theta)))


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


@pytest.mark.parametrize("argv, rows_of", [
    (["growth", "--r-start", "101", "--r-end", "121"] + PI6,
     lambda doc: [[s[k] for k in ("r", "log_abs", "scaled", "sign")]
                  for s in doc["samples"]]),
    (["lobachevsky-table", "--start", "-1", "--end", "7", "--points", "9"],
     lambda doc: doc["table"]),
], ids=["growth", "lobachevsky-table"])
def test_csv_cells_are_the_json_values(capsys, argv, rows_of):
    code, out, _ = run(capsys, argv + ["--format", "csv"])
    assert code == 0
    # each cell parsed as a JSON number: an int stays an int, and a
    # float keeps every bit
    rows = [[json.loads(cell) for cell in line.split(",")]
            for line in out.split("\r\n")[1:-1]]
    code, out, _ = run(capsys, argv)
    assert code == 0
    want = rows_of(json.loads(out))
    assert len(rows) == len(want) > 5
    assert rows == want
    assert [list(map(type, row)) for row in rows] == [
        list(map(type, row)) for row in want]


@pytest.mark.parametrize("points", ["0", "-3", "2.5"])
def test_lobachevsky_table_points_validation(capsys, points):
    code, out, err = run(capsys, ["lobachevsky-table", f"--points={points}"])
    assert code == 2 and out == ""
    assert "--points" in err


@pytest.mark.parametrize("bound", ["--start", "--end"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_lobachevsky_table_refuses_non_finite_bounds(capsys, bound, value):
    code, out, err = run(capsys, ["lobachevsky-table", f"{bound}={value}"])
    assert code == 2 and out == ""
    assert f"argument {bound}: must be finite: {value}" in err


@pytest.mark.parametrize("start, end, thetas", [
    ("-1e308", "1e308", [-1e308, 0.0, 1e308]),  # hi - lo overflows
    ("0", "1e308", [0.0, 5e307, 1e308]),        # 2 (hi - lo) overflows
])
def test_lobachevsky_table_overflowing_width(capsys, start, end, thetas):
    code, out, err = run(capsys, ["lobachevsky-table", f"--start={start}",
                                  f"--end={end}", "--points", "3"])
    assert (code, err) == (0, "")
    table = json.loads(out)["table"]
    assert [t for t, _ in table] == thetas
    # the values too, now that angles this large reduce exactly
    assert all(abs(v - lob_mp(t)) <= 1e-15 for t, v in table)


def test_lobachevsky_table_finite_width_points_unchanged(capsys):
    lo, hi, n = -2.5, 7.25, 11
    code, out, _ = run(capsys, ["lobachevsky-table", f"--start={lo}",
                                f"--end={hi}", f"--points={n}"])
    assert code == 0
    assert [t for t, _ in json.loads(out)["table"]] == [
        lo + (hi - lo) * k / (n - 1) for k in range(n)]


# The parser reads any float; schlafli_residual refuses the step.
@pytest.mark.parametrize("h", ["0", "-1e-4", "nan", "inf", "-inf"])
def test_schlafli_step_validation(capsys, h):
    code, out, err = run(capsys, ["schlafli", *PI6, f"--h={h}"])
    assert code == 1 and out == ""
    assert f"h must be positive and finite, got {float(h)}" in err


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_closed_stdout_exits_quietly(fmt):
    # The reader takes a few bytes and closes the pipe, as `| head -c 10`
    # does; the table is far larger than a pipe buffer.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "sixjvol.cli", "lobachevsky-table",
         "--points", "100000", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_CLOSED_PIPE == 141
    assert err == b""


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


# Both ends of the accepted theta range reach the library with either
# branch sign.  The largest accepted angle, pi + 1e-12 rounded up, once
# passed the parser and then failed in AlphaSixTuple.from_theta.
@pytest.mark.parametrize("angle", [-1e-12, PI + 1e-12], ids=["low", "high"])
@pytest.mark.parametrize("mu", ["------", "++++++"])
def test_theta_range_corners_reach_the_library(capsys, angle, mu):
    code, out, err = run(capsys, ["classify", f"--mu={mu}", "--",
                                  repr(angle)] + ["0.5"] * 5)
    assert code == 0 and err == ""
    sign = 1 if mu[0] == "+" else -1
    assert json.loads(out)["alpha"][0] == PI + sign * angle
    for command in ("tetra", "volume"):
        _, _, err = run(capsys, [command, f"--mu={mu}", "--", repr(angle)]
                        + ["0.5"] * 5)
        assert "outside" not in err
