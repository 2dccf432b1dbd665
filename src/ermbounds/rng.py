"""Deterministic substream derivation for Monte Carlo work.

Streams are keyed by (master seed, index path) through a counter-based
Philox generator, so a trial's draws depend only on its own key and never
on scheduling, chunking, or worker count. That is what lets `map_trials`
run trials on several threads without changing a single result.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Tags distinguishing the purpose of a substream under one (seed, trial) key.
DESIGN_TAG = 0
NOISE_TAG = 1
SIGNS_TAG = 2
DIRECTIONS_TAG = 3

_MAX_KEY = 2**32 - 1


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream keyed by a master seed and an index path."""
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    key = []
    for part in path:
        part = int(part)
        if not 0 <= part <= _MAX_KEY:
            raise ValueError("stream path entries must fit in 32 bits")
        key.append(part)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(seed=ss))


def derive_seed(seed: int, *path: int) -> int:
    """A fresh 64-bit master seed for an independent pipeline stage."""
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(p) for p in path))
    hi, lo = ss.generate_state(2)
    return (int(hi) << 32) | int(lo)


def trial_workers(workers: int, count: int) -> int:
    """Threads `map_trials` starts for `count` trials when asked for `workers`.

    0 asks for every CPU this process may run on; any request is capped at
    that number and at `count`.
    """
    workers, count = int(workers), int(count)
    if workers < 0:
        raise ValueError(f"workers must be a nonnegative integer, got {workers}")
    if count < 0:
        raise ValueError(f"count must be a nonnegative integer, got {count}")
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    return min(workers or cpus, cpus, count)


def map_trials(fn, count: int, workers: int = 0) -> list:
    """[fn(0), ..., fn(count - 1)] in trial order, on up to `workers` threads.

    Threads, not processes: numpy's Generator fills and BLAS calls release
    the interpreter lock, while a process pool would re-import scipy and
    pickle every array. Each trial must draw only from its own substreams
    and write only its own output slot. If trials fail, the pending ones are
    cancelled and the exception of the first failing trial in trial order
    is raised, as the plain loop would raise it.
    """
    threads = trial_workers(workers, count)
    if threads <= 1:
        return [fn(j) for j in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, j) for j in range(count)]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            raise
