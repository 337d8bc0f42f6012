"""``tests/golden/pins.json`` stays whole: each entry says which change last
moved it and why, each pin is read by exactly one test parametrization or
CI step, and ``python -m tools.repin`` finds nothing to move on an
unchanged tree — and re-pins exactly what moved when something did."""

import json
import re
from pathlib import Path

import pytest

from tests import pins
from tools import repin

ROOT = Path(__file__).resolve().parent.parent


def test_every_entry_says_when_and_why():
    for key, e in pins.load().items():
        kind = key.split("/")[0]
        assert kind in pins.COMPUTE and "value" in e, key
        assert isinstance(e["pr"], int) and e["pr"] > 0 and e["why"].strip()
        assert set(e.get("facts", ())) == ({f for f, _, _ in repin.COLUMNS}
                                           if kind in ("seed", "factotype")
                                           else set()), key


def test_every_pin_is_read_exactly_once():
    """A test reads a kind or one key (``pins.cases`` / ``pins.check``), a
    CI step one key or a prefix ending in ``/``."""
    readers = [(p.name, r) for p in ROOT.glob("tests/test_*.py") for r in
               re.findall(r'pins\.(?:cases|check)\(\s*"([^"]+)"', p.read_text())]
    readers += [("ci.yml", r) for r in re.findall(
        r'"((?:trace|run)/[^"\s]*)"',
        (ROOT / ".github/workflows/ci.yml").read_text())]

    def reads(ref, key):
        return key.startswith(ref if ref.endswith("/") else ref + "/") \
            or key == ref
    keys = pins.load()
    for key in keys:
        by = [r for r in readers if reads(r[1], key)]
        assert len(by) == 1, f"{key} is read by {by or 'nothing'}"
    for r in readers:
        assert any(reads(r[1], key) for key in keys), f"{r} reads no pin"


def test_check_on_an_unchanged_tree_moves_nothing():
    before = pins.PINS.read_bytes()
    assert repin.main(["--check"]) == 0
    assert pins.PINS.read_bytes() == before


def test_repin_rewrites_only_what_moved(tmp_path, monkeypatch, capsys):
    """A stale pin fails ``--check`` and leaves the file alone; a re-pin
    restores it with the given number and reason, prints the factor's facts
    before and after, and leaves every other entry as it was."""
    doc = pins.load()
    stale = json.loads(json.dumps(doc))
    stale["seed/dense/lu"]["value"] = "0" * 64
    stale["seed/dense/lu"]["facts"]["peak_bytes"] += 8
    stale["charges/dense"]["value"]["backend"]["gemm"] += 1
    monkeypatch.setattr(pins, "PINS", tmp_path / "pins.json")
    pins.PINS.write_text(pins.dump(stale), encoding="utf-8")
    assert repin.main(["--check"]) == 1
    assert pins.load() == stale
    assert repin.main(["--pr", "999", "--reason", "a probe"]) == 0
    peak = doc["seed/dense/lu"]["facts"]["peak_bytes"]
    out = capsys.readouterr().out
    assert "| seed/dense/lu |" in out and f"{peak + 8} → {peak}" in out
    assert "charges/dense: " in out
    moved = {"seed/dense/lu", "charges/dense"}
    assert pins.load() == {k: {**e, "pr": 999, "why": "a probe"}
                           if k in moved else e for k, e in doc.items()}
    assert repin.main(["--check"]) == 0


@pytest.mark.parametrize("argv", [[], ["--reason", "why"], ["--pr", "7"]])
def test_repin_needs_a_number_and_a_reason(argv):
    with pytest.raises(SystemExit) as exc:
        repin.main(argv)
    assert exc.value.code == 2
