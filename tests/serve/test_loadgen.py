"""The open-loop load generator times jobs from their scheduled arrival.

A generator that falls behind its Poisson schedule (here: every submit
takes 20 ms against arrivals 5 ms apart) must not leave its own lag
out of the latencies it reports, or a saturated service reads as a
fast one (coordinated omission).
"""

import importlib.util
import time
from pathlib import Path

LOADGEN = Path(__file__).resolve().parents[2] / "benchmarks" / "loadgen.py"

SUBMIT_S = 0.020


def load_loadgen():
    spec = importlib.util.spec_from_file_location("loadgen", LOADGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class AnsweredJob:
    """A job that is already done when ``submit`` returns."""

    def add_done_callback(self, fn):
        fn(self)

    def exception(self):
        return None

    def result(self, timeout=None):
        return None


class SlowSubmitService:
    """Answers at once, but each submit costs :data:`SUBMIT_S`."""

    def __init__(self, network):
        self.network = network
        self.submitted = 0

    def submit(self, overrides, *, tenant="default"):
        time.sleep(SUBMIT_S)
        self.submitted += 1
        return AnsweredJob()

    def snapshot(self):
        return {}


def test_latency_counts_the_generators_lag():
    loadgen = load_loadgen()
    services = {name: SlowSubmitService(net)
                for name, net in loadgen.build_networks(quick=True).items()}
    report = loadgen.run_load(services, rate_per_s=200.0, duration_s=1.0,
                              seed=0)
    submitted = sum(s.submitted for s in services.values())
    # The generator managed about one submit per SUBMIT_S, a quarter of
    # the offered load, so its last arrivals went out ~0.75 s late.
    assert report["completed"] == submitted < 100
    assert report["latency_s"]["p99"] >= 10 * SUBMIT_S
