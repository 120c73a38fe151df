"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import argparse
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_come_from_the_seed_and_are_distinct(workload):
    ops = workloads.make_ops(workload, 7, 25)
    assert ops == workloads.make_ops(workload, 7, 25)
    assert ops != workloads.make_ops(workload, 8, 25)
    keys = [json.dumps(op, sort_keys=True) for op in ops]
    assert len(set(keys)) == len(keys)
    factors = [op["config"]["weight"]["factor"] for op in ops if "config" in op]
    assert len(set(factors)) == len(factors)   # no two ops share a weight
    assert all(workloads.FACTOR_RANGE[0] <= f < workloads.FACTOR_RANGE[1]
               for f in factors)


def test_route_checks_cover_q_on_and_off_the_set():
    qs = [op["q"] for op in workloads.make_ops("route_checks", 3, 1)
          if op["kind"] == "convolution"]
    assert any(q in workloads.CUBES for q in qs)
    assert any(q not in workloads.CUBES for q in qs)


def test_weight_mean_matches_closed_form():
    special = pytest.importorskip("scipy.special")
    for c in (0.5, 1.3, 2.0):
        exact = math.exp(-c) - c * special.exp1(c)
        assert abs(workloads.exp_weight_mean(c) - exact) < 1e-13


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    args = argparse.Namespace(workload=workload, seed=5, seconds=1)
    deadline = time.monotonic() + 600
    traces = []
    for i in range(2):
        d = run.run_worker(args, tmp_path / str(i), deadline, ["--trace"])
        result = json.loads((d / "result.json").read_text())
        assert all(r["ok"] for r in result["ops"])
        # every op is divided by a reference time taken next to it
        assert all(r["ref_s"] > 0 for r in result["ops"])
        assert result["wall_ref"] > 0
        traces.append(result["trace"])
    assert traces[0]["counts"] == traces[1]["counts"]
    assert traces[0]["calls"] == traces[1]["calls"]
    assert traces[0]["counts"]["quadrature.calls"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload",
         "route_checks", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
