import os
import re
import threading
import time

import pytest

from ermbounds import rng
from ermbounds.rng import map_trials, trial_workers


def affinity() -> int:
    return len(os.sched_getaffinity(0))


class TestMapTrials:
    def test_results_in_trial_order(self, monkeypatch):
        # later trials finish first, so completion order is the reverse of trial order
        def fn(j):
            time.sleep(0.002 * (8 - j))
            return j * j

        for workers in ("0", "1", "2", "4"):
            monkeypatch.setenv("ERMBOUNDS_WORKERS", workers)
            assert map_trials(fn, 8) == [j * j for j in range(8)]

    def test_count_zero_and_one(self, monkeypatch):
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "0")
        assert map_trials(lambda j: 1 / 0, 0) == []
        idents = []
        assert map_trials(lambda j: idents.append(threading.get_ident()) or "only", 1) == ["only"]
        # a single trial runs in the caller's thread, with no pool
        assert idents == [threading.get_ident()]

    @pytest.mark.parametrize("workers", [1, 0])
    def test_first_failing_trial_reraised_and_rest_cancelled(self, workers, monkeypatch):
        monkeypatch.setenv("ERMBOUNDS_WORKERS", str(workers))
        count = 400
        started = []

        def fn(j):
            started.append(j)
            time.sleep(0.001)
            if j == 5:
                raise KeyError("trial 5")
            if j == 6:
                raise RuntimeError("trial 6")
            return j

        with pytest.raises(KeyError, match="trial 5"):
            map_trials(fn, count)
        # pending trials were cancelled, so most of them never started
        assert len(started) < count // 2

    def test_cap_is_count_and_affinity(self, monkeypatch):
        expected = min(3, affinity())
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "0")
        assert trial_workers(3) == expected
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "64")
        assert trial_workers(3) == expected
        idents = set()
        lock = threading.Lock()

        def fn(j):
            with lock:
                idents.add(threading.get_ident())
            time.sleep(0.01)

        map_trials(fn, 3)
        assert 1 <= len(idents) <= expected

    def test_zero_means_affinity(self, monkeypatch):
        monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: set(range(8)))
        # unset, empty and 0 all ask for every CPU
        monkeypatch.delenv("ERMBOUNDS_WORKERS", raising=False)
        assert trial_workers(100) == 8
        for workers, count, expected in (("", 100, 8), ("0", 100, 8), ("5", 100, 5), ("64", 100, 8), ("64", 3, 3), ("1", 100, 1)):
            monkeypatch.setenv("ERMBOUNDS_WORKERS", workers)
            assert trial_workers(count) == expected

    @pytest.mark.parametrize("workers, count", [("-1", 5), ("-3", 0), ("2", -1), ("abc", 5), ("1.5", 5)])
    def test_negative_rejected(self, workers, count, monkeypatch):
        # a bad variable is named with its value's repr, even for no trials
        monkeypatch.setenv("ERMBOUNDS_WORKERS", workers)
        message = "count must be a nonnegative integer" if workers == "2" else f"ERMBOUNDS_WORKERS must be a nonnegative integer, got {re.escape(repr(workers))}"
        with pytest.raises(ValueError, match=message):
            map_trials(lambda j: j, count)
