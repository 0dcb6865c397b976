"""``benchmarks/check_regression.py``: same-run floors are hard limits."""

from __future__ import annotations

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_check_regression():
    path = ROOT / "benchmarks" / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load_check_regression()


def test_floor_cleared_and_floor_missed():
    result = {"floors": {"ratio_a": 3.0, "ratio_b": 1.0}, "ratio_a": 4.2, "ratio_b": 0.9}
    failures = check.check_floors(result)
    assert len(failures) == 1
    assert failures[0].startswith("ratio_b: 0.90 below the 1.0 floor")


def test_missing_floored_key_fails():
    """A floored metric that disappears from the result file is a failure,
    not a silent pass."""
    failures = check.check_floors({"floors": {"ratio_a": 3.0}})
    assert failures == ["ratio_a: floored metric missing from the result file"]


def test_missing_floored_key_fails_main(tmp_path, capsys):
    new = tmp_path / "BENCH_x.json"
    new.write_text(json.dumps({"floors": {"ratio_a": 3.0}, "workloads": {}}))
    assert check.main([str(tmp_path / "absent.json"), str(new)]) == 1
    assert "ratio_a: floored metric missing" in capsys.readouterr().err


def test_file_without_floors_has_none():
    assert check.check_floors({"workloads": {}}) == []

