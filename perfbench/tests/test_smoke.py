"""Smoke test of the benchmark: every workload at tiny sizes, traced and
untraced, in-process so that the raag module namespaces can be inspected
afterwards.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
from tracing import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def raag_functions() -> dict:
    return {(layer, attr): obj
            for layer in LAYERS
            for attr, obj in vars(importlib.import_module(f"raag.{layer}")).items()
            if isinstance(obj, types.FunctionType)}


def bench(*argv) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = run.main(["--seed", "7", "--seconds", "0.2", "--scale", "tiny", *argv])
    return status, json.loads(buf.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean(workload, trace):
    before = raag_functions()
    status, result = bench("--workload", workload, "--trace", str(trace))
    assert status == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # the untraced timing must never pay for tracing
    after = raag_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if workload == "cli_text":
            assert values["cli.factorings_per_conjugate"] > 0
        if workload == "loops_complex":
            assert values["cubecomplex.self_share"] > 0
            assert values["centralizer.self_share"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_answers_fail_the_run(monkeypatch):
    monkeypatch.setattr(importlib.import_module("raag.conjugacy"), "conjugate_in_raag",
                        lambda g, w, v: True)
    status, result = bench("--workload", "words_random", "--trace", "0")
    assert status != 0
    assert result["correct"] is False and result["failed"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
