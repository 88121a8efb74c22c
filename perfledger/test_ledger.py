"""Tests of the ledger's statistics, byte counts, ``--compare`` and CLI.

Run from the checkout root::

    pytest perfledger/test_ledger.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import ledger  # noqa: E402

ROOT = harness.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LEDGER = HERE / "ledger.py"


# -- statistics ----------------------------------------------------------------


def test_summary_median_and_iqr():
    s = harness.summary([8, 1, 7, 2, 6, 3, 5, 4])
    assert s["median"] == 4.5
    # statistics.quantiles' default (exclusive) method on 1..8.
    assert s["q1"] == 2.25 and s["q3"] == 6.75
    assert s["iqr"] == 4.5
    assert s["n"] == 8


def test_summary_single_sample_has_no_spread():
    assert harness.summary([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0,
                                      "iqr": 0.0, "n": 1}


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))      # 1..100, unsorted
    assert harness.percentile(values, 0.50) == 50
    assert harness.percentile(values, 0.99) == 99
    assert harness.percentile(values, 1.00) == 100
    assert harness.percentile([3, 1, 2], 0.5) == 2
    assert harness.percentile([0.2, 0.1, 0.3], 0.1) == 0.1


def test_percentile_counts_failures_as_infinite():
    assert harness.percentile([0.1, math.inf, 0.2], 0.99) == math.inf
    assert harness.percentile([0.1, math.inf, 0.2], 0.5) == 0.2


def test_host_speed_scales_by_the_reference_around_a_call(monkeypatch):
    host = harness.HostSpeed()
    samples = iter([[0.02, 0.02, 0.02], [0.03, 0.03, 0.03]])  # before, after
    monkeypatch.setattr(host, "sample", lambda: next(samples))
    dt, scaled, out = host.timed(lambda: "done")
    assert out == "done"
    assert scaled == pytest.approx(dt * harness.REF_NOMINAL_S / 0.025)


# -- computed bytes ------------------------------------------------------------


@pytest.fixture(scope="module")
def program():
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from repro.sparse.csr import CSRMatrix
    from repro.sparse.ell import ELLMatrix
    return layers, CSRMatrix, ELLMatrix


def _three_by_three():
    import scipy.sparse as sp
    return sp.csr_matrix([[4.0, 0.0, 1.0],
                          [0.0, 2.0, 0.0],
                          [3.0, 0.0, 5.0]])


def test_spmv_bytes_csr_hand_count(program):
    layers, CSRMatrix, _ = program
    # indptr 4 x int64 + cols 5 x int32 + values 5 x f64 + x + y (3 x f64)
    assert layers.spmv_bytes(CSRMatrix(_three_by_three())) == \
        4 * 8 + 5 * 4 + 5 * 8 + 3 * 8 + 3 * 8


def test_spmv_bytes_ell_hand_count(program):
    layers, _, ELLMatrix = program
    # 3 rows x k=2 slots of (f64 value + int32 col), plus x and y
    assert layers.spmv_bytes(ELLMatrix(_three_by_three(), pad_to=1)) == \
        3 * 2 * 8 + 3 * 2 * 4 + 3 * 8 + 3 * 8


# -- compare -------------------------------------------------------------------


def _report() -> dict:
    names = [w["name"] for w in SPEC["workloads"]]
    return {"workloads": {name: {
        "failed_frac": 0.0,
        "end_to_end": {m["name"]: {"value": 1.0 + i, "unit": m["unit"]}
                       for i, m in enumerate(SPEC["end_to_end"])},
        "per_layer": {"cme.states": {"median": 100.0, "unit": "count"},
                      "cme.enumerate_s": {"median": 0.5, "unit": "s"}},
    } for name in names}}


def _compare(tmp_path, old, new) -> int:
    a, b = tmp_path / "old.json", tmp_path / "new.json"
    a.write_text(json.dumps(old))
    b.write_text(json.dumps(new))
    return ledger.compare(a, b)


def test_compare_against_itself_passes(tmp_path, capsys):
    report = _report()
    assert _compare(tmp_path, report, report) == 0
    out = capsys.readouterr().out
    names = tuple(w["name"] for w in SPEC["workloads"])
    rows = [line for line in out.splitlines() if line.startswith(names)]
    assert len(rows) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert all(line.endswith(" ok") for line in rows)


def test_compare_flags_a_metric_worsened_by_20pct(tmp_path, capsys):
    metric = min(SPEC["end_to_end"], key=lambda m: m["bound"])
    assert metric["bound"] < 0.2
    new = _report()
    entry = new["workloads"]["solve-phage"]["end_to_end"][metric["name"]]
    entry["value"] *= 1.2 if metric["better"] == "lower" else 1 / 1.2
    assert _compare(tmp_path, _report(), new) == 1
    assert "WORSE" in capsys.readouterr().out


def test_compare_flags_a_rise_in_failures(tmp_path):
    new = _report()
    new["workloads"]["sweep-toggle"]["failed_frac"] = 0.1
    assert _compare(tmp_path, _report(), new) == 1


def test_compare_same_code_needs_counts_to_repeat(tmp_path):
    for count in (99, 101):
        new = _report()
        new["workloads"]["sweep-toggle"]["per_layer"]["cme.states"][
            "median"] = count
        assert _compare(tmp_path, _report(), new) == 1
    new = _report()   # timings may move within noise: not a count
    new["workloads"]["sweep-toggle"]["per_layer"]["cme.enumerate_s"][
        "median"] = 0.6
    assert _compare(tmp_path, _report(), new) == 0


def test_compare_across_code_fails_only_counts_that_worsen(tmp_path,
                                                            capsys):
    old = {**_report(), "fingerprint": {"source_sha256": "a"}}
    new = {**_report(), "fingerprint": {"source_sha256": "b"}}
    states = new["workloads"]["sweep-toggle"]["per_layer"]["cme.states"]
    states["median"] = 90            # fewer states: better, reported
    assert _compare(tmp_path, old, new) == 0
    assert "info: sweep-toggle cme.states" in capsys.readouterr().out
    states["median"] = 110           # more states: worse
    assert _compare(tmp_path, old, new) == 1


# -- the result line -----------------------------------------------------------


def test_result_line_has_exactly_the_documented_keys():
    record = {"trace": False, "attempted": 7, "failed": 0,
              "end_to_end": {m["name"]: {"value": 0.5}
                             for m in SPEC["end_to_end"]}}
    line = ledger.result_line(record, SPEC)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/ledger.py", "--workload",
         "solve-phage", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_quick_smoke_writes_every_declared_metric(tmp_path):
    out = tmp_path / "quick.json"
    subprocess.run([sys.executable, str(LEDGER), "--quick", "--workload",
                    "sweep-toggle", "--out", str(out)],
                   cwd=ROOT, check=True, timeout=600)
    report = json.loads(out.read_text(encoding="utf-8"))
    entry = report["workloads"]["sweep-toggle"]
    assert entry["failed"] == 0
    for m in SPEC["end_to_end"]:
        value = entry["end_to_end"][m["name"]]["value"]
        assert math.isfinite(value) and value > 0, m["name"]
    assert set(entry["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        stats = entry["per_layer"][m["name"]]
        assert {"median", "iqr", "n"} <= set(stats), m["name"]
        assert stats["unit"] == m["unit"], m["name"]
    assert report["fingerprint"]["nproc"] >= 1
