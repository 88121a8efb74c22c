"""Tests for the content-addressed solution cache."""

import errno
import logging

import numpy as np
import pytest

from repro import toggle_switch
from repro.errors import ValidationError
from repro.serve import CacheEntry, SolutionCache, SolveService
from repro.serve import state_space_layout
from repro.serve.cache import ENTRY_OVERHEAD_BYTES


def entry(key, n=8, layout="L", fill=0.125):
    return CacheEntry(key=key, p=np.full(n, fill), iterations=100,
                      residual=1e-9, stop_reason="converged",
                      runtime_s=0.5, layout=layout)


class TestAccounting:
    def test_hit_and_miss_counted(self):
        cache = SolutionCache()
        assert cache.get("a") is None
        cache.put(entry("a"))
        assert cache.get("a") is not None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_peek_leaves_stats_alone(self):
        cache = SolutionCache()
        cache.put(entry("a"))
        assert cache.peek("a") is not None
        assert cache.peek("missing") is None
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_byte_accounting(self):
        cache = SolutionCache()
        cache.put(entry("a", n=10))
        assert cache.current_bytes == 80 + ENTRY_OVERHEAD_BYTES
        cache.put(entry("a", n=20))  # refresh replaces, not adds
        assert cache.current_bytes == 160 + ENTRY_OVERHEAD_BYTES
        assert len(cache) == 1


class TestLRUEviction:
    def test_oldest_evicted_on_byte_budget(self):
        per_entry = 8 * 8 + ENTRY_OVERHEAD_BYTES
        cache = SolutionCache(max_bytes=3 * per_entry)
        for key in "abc":
            cache.put(entry(key))
        cache.get("a")          # a is now most recently used
        cache.put(entry("d"))   # evicts b, the LRU entry
        assert cache.peek("b") is None
        assert {k for k in "acd" if cache.peek(k) is not None} == set("acd")
        assert cache.stats.evictions == 1

    def test_budget_validated(self):
        with pytest.raises(ValidationError):
            SolutionCache(max_bytes=0)


class TestLayoutGuard:
    def test_mismatched_layout_is_miss(self):
        cache = SolutionCache()
        cache.put(entry("a", layout="L1"))
        assert cache.get("a", layout="L2") is None
        assert cache.peek("a", layout="L2") is None
        assert cache.get("a", layout="L1") is not None

    def test_layout_tag_tracks_state_order(self):
        states = np.array([[0, 0], [0, 1], [1, 0]])
        permuted = states[[1, 0, 2]]
        assert state_space_layout(states) != state_space_layout(permuted)
        assert state_space_layout(states) == state_space_layout(states.copy())


class TestDiskPersistence:
    def test_round_trip_across_instances(self, tmp_path):
        first = SolutionCache(disk_dir=tmp_path)
        first.put(entry("a", fill=0.25))

        second = SolutionCache(disk_dir=tmp_path)
        got = second.get("a", layout="L")
        assert got is not None
        np.testing.assert_array_equal(got.p, np.full(8, 0.25))
        assert got.iterations == 100
        assert got.stop_reason == "converged"
        assert second.stats.disk_hits == 1

    def test_disk_layout_guard(self, tmp_path):
        first = SolutionCache(disk_dir=tmp_path)
        first.put(entry("a", layout="L1"))
        second = SolutionCache(disk_dir=tmp_path)
        assert second.get("a", layout="other") is None

    def test_corrupt_file_is_miss(self, tmp_path):
        cache = SolutionCache(disk_dir=tmp_path)
        (tmp_path / "bad.npz").write_bytes(b"not an npz")
        assert cache.get("bad") is None

    def test_failed_write_keeps_the_entry_in_memory(self, tmp_path,
                                                     monkeypatch, caplog):
        """A full disk fails no solved job: every job answers, the
        breaker stays closed, a repeat is a hit from memory, and no
        partial file is left behind."""

        def full_disk(fh, **arrays):
            fh.write(b"partial")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(np, "savez", full_disk)
        cache = SolutionCache(disk_dir=tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.serve"), \
                SolveService(toggle_switch(max_protein=10), cache=cache,
                             solver_options={"damping": 0.8}) as svc:
            outs = [svc.solve({"degA": 0.8 + 0.1 * i}) for i in range(7)]
            repeat = svc.solve({"degA": 0.8})
            snap = svc.snapshot()
        assert all(out.result.converged for out in outs)
        assert repeat.cached
        assert snap["failed"] == 0
        assert snap["breaker_state"] == "closed"
        assert not list(tmp_path.iterdir())
        assert "No space left" in caplog.text

    def test_entries_are_readonly(self):
        cache = SolutionCache()
        cache.put(entry("a"))
        got = cache.get("a")
        with pytest.raises(ValueError):
            got.p[0] = 9.0
        # to_result hands out a private copy the caller may mutate.
        result = got.to_result()
        result.x[0] = 9.0
        assert cache.get("a").p[0] != 9.0


class TestChecksumEviction:
    """Damaged disk entries are evicted, counted, and never re-read."""

    def flip_payload_byte(self, path):
        """Flip one byte inside the stored vector so the npz still
        parses but the content CRC no longer matches."""
        import zipfile

        with zipfile.ZipFile(path) as zf:
            names = zf.namelist()
            blobs = {name: bytearray(zf.read(name)) for name in names}
        # npy member layout: 128-byte header, then raw float64 payload.
        blobs["p.npy"][-1] ^= 0xFF
        with zipfile.ZipFile(path, "w") as zf:
            for name in names:
                zf.writestr(name, bytes(blobs[name]))

    def test_flipped_byte_evicts_and_counts(self, tmp_path, caplog):
        import logging

        first = SolutionCache(disk_dir=tmp_path)
        first.put(entry("a", fill=0.25))
        path = tmp_path / "a.npz"
        self.flip_payload_byte(path)

        second = SolutionCache(disk_dir=tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            assert second.get("a", layout="L") is None
        assert second.stats.disk_corrupt == 1
        assert not path.exists()  # evicted, not left to re-fail
        assert any("evicting corrupt" in rec.message
                   for rec in caplog.records)
        # The miss is permanent: nothing resurrects the bad entry.
        assert second.get("a", layout="L") is None
        assert second.stats.disk_corrupt == 1

    def test_bad_zip_evicts_file(self, tmp_path):
        cache = SolutionCache(disk_dir=tmp_path)
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not an npz")
        assert cache.get("bad") is None
        assert cache.stats.disk_corrupt == 1
        assert not bad.exists()

    def test_intact_entry_unaffected(self, tmp_path):
        first = SolutionCache(disk_dir=tmp_path)
        first.put(entry("good", fill=0.5))
        second = SolutionCache(disk_dir=tmp_path)
        got = second.get("good", layout="L")
        assert got is not None
        np.testing.assert_array_equal(got.p, np.full(8, 0.5))
        assert second.stats.disk_corrupt == 0
