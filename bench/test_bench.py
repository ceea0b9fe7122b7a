"""Self-test of the benchmark: metric names, the oracle, and refusal to run
without the program's sources.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from lmbr.lrc import LrcCode

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = dict(seconds=0.1, setup_reps=1, min_samples=16)


def _names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(harness.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_every_end_to_end_metric_is_emitted(workload):
    result = harness.run(workload, seed=3, trace=False, **TINY)
    assert result.failed == 0, result.errors
    assert {k: unit for k, (_, unit) in result.metrics.items()} == _names("end_to_end")
    assert all(value > 0 for value, _ in result.metrics.values())


def test_every_per_layer_metric_is_emitted():
    # The per-layer table does not depend on the workload; the cheapest one
    # exercises it.
    result = harness.run("mbr-stripes", seed=3, trace=True, **TINY)
    assert result.failed == 0, result.errors
    assert {k: unit for k, (_, unit) in result.metrics.items()} == _names("per_layer")
    assert result.meta["unpatched_entry_points"] == []
    assert result.metrics["linpoly.surplus_per_read"][0] > 0
    assert result.metrics["mbr.repair_ms"][0] > 0


def test_oracle_counts_wrong_messages(monkeypatch):
    real = LrcCode.decode

    def off_by_one(self, shards):
        message = list(real(self, shards))
        message[0] = message[0] + self.field.one()
        return tuple(message)

    monkeypatch.setattr(LrcCode, "decode", off_by_one)
    result = harness.run("mbr-stripes", seed=3, trace=False, **TINY)
    assert result.failed / result.attempted > 0
    assert any(e.startswith("read:") for e in result.errors)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mbr-stripes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
