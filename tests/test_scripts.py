"""The command-line scripts under ``scripts/``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
