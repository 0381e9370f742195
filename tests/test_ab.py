"""``tools/ab.py`` on the same tree on both sides, at warm-up size.

Each run is a fresh process, as the tool pins BLAS threads before NumPy
loads, and takes about a second.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "tools" / "ab.py"
SRC = str(ROOT / "src")


def ab_module():
    spec = importlib.util.spec_from_file_location("ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload",
                         ["deblur-krylov", "tomo-irn", "inpaint-lowrank"])
def test_same_tree_has_no_drift(workload):
    run = subprocess.run(
        [sys.executable, str(AB), SRC, SRC, "--workload", workload,
         "--rounds", "2", "--warmup"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert "answer drift: none" in lines
    block = json.loads(lines[-1])
    assert block["workload"] == workload and block["rounds"] == 2
    assert block["answers_equal"] is True
    assert all(d["min_rel_error_rel"] == 0.0 for d in block["drift"].values())
    assert block["parent_first"] == [True, False]
    for m in block["metrics"].values():
        assert m["pairs"] == 2 and 0 <= m["change_better_pairs"] <= 2
        assert len(m["parent_runs"]) == len(m["change_runs"]) == 2


def test_missing_package_exits_nonzero(tmp_path):
    run = subprocess.run(
        [sys.executable, str(AB), str(tmp_path), SRC, "--workload",
         "tomo-irn", "--rounds", "1", "--warmup"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode != 0
    assert "no lrkrylov package" in run.stderr


def test_paired_statistics():
    m = ab_module().paired([1.0, 2.0, 4.0], [0.5, 2.0, 2.0], lower=True)
    assert m["median_paired_ratio"] == 0.5
    assert m["change_better_pairs"] == 2  # the tie counts for neither
    assert m["parent_median"] == 2.0 and m["change_median"] == 2.0
    lo, hi = m["paired_ratio_ci95"]
    assert 0.5 <= lo <= hi <= 1.0


def test_drift_names_what_moved():
    ab = ab_module()
    a = {"lsqr": {"min_rel_error": 0.1, "iterations_run": 5,
                  "stop_reason": "max_iter"}}
    b = {"lsqr": dict(a["lsqr"], min_rel_error=0.1 * (1 + 1e-9))}
    assert ab.drift(a, a)["lsqr"]["min_rel_error_rel"] == 0.0
    assert ab.drift(a, b)["lsqr"]["min_rel_error_rel"] == pytest.approx(1e-9)
