"""The command-line scripts under ``scripts/`` and what the package imports."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sketchmatch as sm

from conftest import random_instance

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_suite_draws_the_test_suite_family():
    run_suite = _load("run_suite")
    for seed in range(1000, 1100):
        assert run_suite.random_instance(seed) == random_instance(seed), seed


def test_run_suite_rows_carry_report_digests(capsys):
    run_suite = _load("run_suite")
    assert run_suite.main(["--count", "2", "--base-seed", "1003", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["instances"]
    assert [r["seed"] for r in rows] == [1003, 1004]
    for row in rows:
        report = sm.solve(random_instance(row["seed"]), sm.SolverConfig())
        text = json.dumps(report.as_dict(), sort_keys=True)
        assert row["report_sha256"] == hashlib.sha256(text.encode()).hexdigest()
        text = json.dumps([report.as_dict()["matching"], report.rescaled_weight])
        assert row["matching_sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_run_suite_rejects_nonpositive_count(capsys):
    run_suite = _load("run_suite")
    for count in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            run_suite.main(["--count", count])
        assert exc.value.code == 2
        assert "--count must be at least 1" in capsys.readouterr().err


def test_package_imports_no_test_only_dependency():
    # networkx and scipy are cross-checks for the tests, never solver code.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_entries = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_entries)}
    probe = (
        "import sys, sketchmatch, sketchmatch.cli; "
        "print(sorted({'networkx', 'scipy', 'hypothesis', 'pytest'} & sys.modules.keys()))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
