"""Pinned payloads (tests/pins.py): each file keeps its recorded bytes."""

import pytest

import pins


@pytest.mark.parametrize("name", list(pins.PINS))
def test_pinned_file_keeps_its_bytes(tmp_path, name):
    assert pins.check(name, tmp_path) == []


def test_a_changed_digest_names_only_its_file(capsys, tmp_path, monkeypatch):
    changed = "law-info-zipf.txt"
    kept = {name: pins.PINS[name] for name in ("law-info-geometric.txt", "tiny-events-poly.txt")}
    make, digest = pins.PINS[changed]
    monkeypatch.setattr(pins, "PINS", {**kept, changed: (make, "0" * 64)})
    assert pins.main(tmp_path) == 1
    assert capsys.readouterr().out == f"{changed}: sha256 {digest}, pinned {'0' * 64}\n"


def test_nan_and_infinity_in_a_json_file_are_named(tmp_path, monkeypatch):
    def write(file):
        file.write_text("[NaN, -Infinity]")

    monkeypatch.setitem(pins.PINS, "nan.json", (write, "0" * 64))
    assert pins.check("nan.json", tmp_path)[1:] == ["nan.json: NaN is not JSON", "nan.json: -Infinity is not JSON"]
