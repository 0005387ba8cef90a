"""Pinned payloads and module sets (tests/pins.py): each file keeps its
recorded bytes, and each entry point loads only the modules it runs."""

import os
from pathlib import Path

import pytest

import pins
import renewalbench


@pytest.fixture
def package_under_test(monkeypatch):
    """Fresh interpreters import the package the suite imports: its
    directory goes first on their PYTHONPATH."""
    src = str(Path(renewalbench.__file__).resolve().parent.parent)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("name", list(pins.PINS))
def test_pinned_file_keeps_its_bytes(tmp_path, name):
    assert pins.check(name, tmp_path) == []


@pytest.mark.parametrize("entry", list(pins.IMPORTS))
def test_imports_stay_lazy(tmp_path, package_under_test, entry):
    assert pins.check(entry, tmp_path) == []


def test_a_changed_digest_names_only_its_file(capsys, tmp_path, monkeypatch):
    changed = "law-info-zipf.txt"
    kept = {name: pins.PINS[name] for name in ("law-info-geometric.txt", "tiny-events-poly.txt")}
    make, digest = pins.PINS[changed]
    monkeypatch.setattr(pins, "PINS", {**kept, changed: (make, "0" * 64)})
    monkeypatch.setattr(pins, "IMPORTS", {})
    assert pins.main(tmp_path) == 1
    assert capsys.readouterr().out == f"{changed}: sha256 {digest}, pinned {'0' * 64}\n"


def test_nan_and_infinity_in_a_json_file_are_named(tmp_path, monkeypatch):
    def write(file):
        file.write_text("[NaN, -Infinity]")

    monkeypatch.setitem(pins.PINS, "nan.json", (write, "0" * 64))
    assert pins.check("nan.json", tmp_path)[1:] == ["nan.json: NaN is not JSON", "nan.json: -Infinity is not JSON"]


def test_a_broken_module_expectation_names_only_its_entry(capsys, tmp_path, monkeypatch, package_under_test):
    # the probe loads the adversary module, so expecting it absent is broken
    first, code, absent, present = pins.IMPORTS["probe"]
    monkeypatch.setattr(pins, "PINS", {"law-info-geometric.txt": pins.PINS["law-info-geometric.txt"]})
    broken = (first, code, [*absent, "renewalbench.adversary"], present)
    monkeypatch.setattr(pins, "IMPORTS", {"bare": pins.IMPORTS["bare"], "probe": broken})
    assert pins.main(tmp_path) == 1
    assert capsys.readouterr().out == "probe: loaded renewalbench.adversary\n"
