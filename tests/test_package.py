"""The package namespace: every public name resolves, on first use, to the
object its submodule defines, and the CLI module's library names resolve
as attributes before any command has run."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sixjvol as sv

SRC = Path(__file__).resolve().parents[1] / "src"

# The sixjvol.cli attributes that the benchmark's span recorder wraps
# (bench/spans.py CALL_SITES).
CLI_WRAPPED = ("_sixj_log", "growth_series", "fit_growth",
               "prism_conjecture_check", "signature", "cofactor_matrix",
               "classify", "reconstruct", "edge_length_tuple", "volume",
               "critical_xi", "lobachevsky")


def test_every_public_name_is_its_submodules_object():
    assert len(sv.__all__) == len(set(sv.__all__)) == 87
    for module, names in sv._EXPORTS.items():
        mod = importlib.import_module(f"sixjvol.{module}")
        for name in names:
            assert getattr(sv, name) is getattr(mod, name), name
    assert set(sv.__all__) <= set(dir(sv))


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from sixjvol import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(sv.__all__)
    assert all(ns[name] is getattr(sv, name) for name in ns)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        sv.nope
    from sixjvol import cli
    with pytest.raises(AttributeError, match="'nope'"):
        cli.nope


def test_submodules_resolve_as_attributes():
    assert sv.volfun is importlib.import_module("sixjvol.volfun")


def test_cli_library_names_resolve_in_a_fresh_process():
    # No command has run, so each name comes through the module hook.
    code = ("import sys, sixjvol, sixjvol.cli as cli\n"
            "for name in sys.argv[1:]:\n"
            "    fn = getattr(cli, name)\n"
            "    home = getattr(sixjvol, name.lstrip('_'))\n"
            "    assert fn is home, name\n")
    proc = subprocess.run([sys.executable, "-c", code, *CLI_WRAPPED],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
