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
from sketchmatch import cli

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


# sha256 of the stdout of the outputs that read refined deferred weights.
# The K20 sparsify at xi = 0.99 has a value class of 190 >= k = 152 edges,
# so it runs the forest path.
PINNED_OUTPUTS = {
    "sparsify/k20_xi0.99": "d462d43a903f5cb0730d7266ab6a765eeb8f641da8ffa7de13dc97f74eeb31eb",
    "sparsify/k6_chi2": "f4380abaec038cd4feedbe18e5e3889e40557bc394872165e40079c46ede92b0",
    "sparsifier_fidelity/n8_xi0.5_seeds5": (
        "7ea032f64074cef546244380e3aa18d946a2fa35e557e95e42109a6a610872a9"
    ),
}


@pytest.mark.parametrize(
    "n, flags, kept, space, pin",
    [
        (20, ["--xi", "0.99"], 190, 571, "sparsify/k20_xi0.99"),
        (6, ["--chi", "2"], 15, 45, "sparsify/k6_chi2"),
    ],
)
def test_deferred_sparsify_output_pinned(tmp_path, capsys, n, flags, kept, space, pin):
    path = tmp_path / f"k{n}.txt"
    path.write_text("".join(f"{i} {j} 1\n" for i in range(n) for j in range(i + 1, n)))
    assert cli.main(["sparsify", "--input", str(path), *flags, "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert (payload["kept_edges"], payload["space"]) == (kept, space)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS[pin]


def test_sparsifier_fidelity_rows_pinned(capsys):
    fidelity = _load("sparsifier_fidelity")
    assert fidelity.main(["--sizes", "8", "--xi", "0.5", "--seeds", "5", "--json"]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == PINNED_OUTPUTS["sparsifier_fidelity/n8_xi0.5_seeds5"]
