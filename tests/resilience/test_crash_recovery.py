"""Crash-recovery acceptance: SIGKILL a real process, resume, compare.

Unlike the in-process resume tests under ``tests/durability``, this
suite runs the solve in a *subprocess* and kills it with SIGKILL — no
atexit hooks, no finally blocks, no interpreter shutdown.  Whatever
survives is exactly what the durable checkpoint protocol promised.
The resumed run must land on the uninterrupted run's answer: bitwise
for the serial and sharded paths, to tight tolerance for the batched
and FSP paths.

Like the chaos suite, the CI job sweeps ``CHAOS_SEED`` and collects
JSON artifacts in ``CHAOS_REPORT_DIR`` when set.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SEED = int(os.environ.get("CHAOS_SEED", "0"))
CHILD = Path(__file__).with_name("crash_child.py")
SRC = Path(__file__).resolve().parents[2] / "src"


def write_report(name: str, payload: dict) -> None:
    report_dir = os.environ.get("CHAOS_REPORT_DIR")
    if not report_dir:
        return
    path = Path(report_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / f"{name}-seed{SEED}.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def run_child(mode, ckdir, out, *, resume=False, kill_after=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["CRASH_RESUME"] = "1" if resume else "0"
    env["CRASH_AFTER_SAVES"] = str(kill_after)
    return subprocess.run(
        [sys.executable, str(CHILD), mode, str(ckdir), str(out)],
        env=env, capture_output=True, text=True, timeout=300)


def kill_and_resume(mode, tmp_path, *, kill_after=1):
    """Run the kill → resume → reference cycle, return all three."""
    ckdir = tmp_path / "ck"
    out = tmp_path / "resumed"

    killed = run_child(mode, ckdir, out, kill_after=kill_after)
    assert killed.returncode == -signal.SIGKILL, (
        f"expected SIGKILL, got rc={killed.returncode}\n{killed.stderr}")
    assert not out.with_suffix(".json").exists()  # it really died mid-run
    checkpoints = sorted(p.name for p in ckdir.glob("ckpt-*.ckpt"))
    assert checkpoints  # durable state survived the kill

    resumed = run_child(mode, ckdir, out, resume=True)
    assert resumed.returncode == 0, resumed.stderr
    diag = json.loads(out.with_suffix(".json").read_text())
    assert diag["resumed"]  # it picked up the checkpoint, not a fresh run

    ref_out = tmp_path / "reference"
    reference = run_child(mode, tmp_path / "ck-ref", ref_out)
    assert reference.returncode == 0, reference.stderr
    ref_diag = json.loads(ref_out.with_suffix(".json").read_text())

    x = np.load(out.with_suffix(".npy"))
    ref_x = np.load(ref_out.with_suffix(".npy"))
    write_report(f"crash-{mode}", {
        "mode": mode, "checkpoints_at_kill": checkpoints,
        "resumed_diag": diag, "reference_diag": ref_diag,
        "max_abs_delta": float(np.max(np.abs(x - ref_x))),
    })
    return x, ref_x, diag, ref_diag


class TestKillAndResume:
    @pytest.mark.parametrize("mode", ["serial", "sharded"])
    def test_bitwise_paths(self, mode, tmp_path):
        x, ref_x, diag, ref_diag = kill_and_resume(mode, tmp_path)
        assert diag["iterations"] == ref_diag["iterations"]
        assert diag["residual"] == ref_diag["residual"]
        np.testing.assert_array_equal(x, ref_x)

    def test_batched(self, tmp_path):
        # Killed after its third save, at 300 sweeps: one column retired
        # at 200, and the others stop at 400 and 500.
        x, ref_x, diag, ref_diag = kill_and_resume("batched", tmp_path,
                                                   kill_after=3)
        assert diag["resumed"] == "ckpt-000000000300.ckpt"
        assert ref_diag["iterations"] == [200, 400, 500]
        assert diag["iterations"] == ref_diag["iterations"]
        np.testing.assert_allclose(x, ref_x, rtol=0, atol=1e-12)

    def test_fsp(self, tmp_path):
        x, ref_x, diag, ref_diag = kill_and_resume("fsp", tmp_path)
        assert diag["converged"] and ref_diag["converged"]
        assert diag["space_size"] == ref_diag["space_size"]
        assert diag["rounds"] == ref_diag["rounds"]
        np.testing.assert_allclose(x, ref_x, rtol=0, atol=1e-12)
