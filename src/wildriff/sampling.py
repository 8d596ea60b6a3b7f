"""Simple random sampling without replacement (SRSWOR).

Three interchangeable strategies, each exactly uniform over the C(n, m)
size-m subsets of {0, ..., n-1}:

* ``permutation`` -- partial Fisher-Yates shuffle, keep the first m slots;
* ``hashset``     -- rejection sampling into a set of distinct indices;
* ``reservoir``   -- single-pass reservoir replacement, O(m) working memory.

The strategies need not agree index-for-index at equal seeds.  Batched
drawing (`srswor_batch`) runs the same algorithms vectorized across draws;
the scalar `srswor` is the batch of size one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Union

import numpy as np

from .core import ConfigError, derive_rng

__all__ = [
    "SamplingError",
    "BadSizeError",
    "IndexOutOfRangeError",
    "Subsample",
    "srswor",
    "srswor_batch",
    "reservoir_sample",
    "membership_indicator",
    "STRATEGIES",
]

STRATEGIES = ("permutation", "hashset", "reservoir")


class SamplingError(ConfigError):
    """Base class for sampling failures."""


class BadSizeError(SamplingError):
    """Requested subsample size outside 1 <= m <= n."""


class IndexOutOfRangeError(SamplingError):
    """Index query outside the parent range."""


@dataclass(frozen=True)
class Subsample:
    """A sorted set of m distinct indices drawn from {0, ..., n-1}."""

    indices: np.ndarray
    n: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        if idx.size == 0:
            raise BadSizeError("a subsample must contain at least one index")
        if np.any(np.diff(idx) <= 0):
            raise SamplingError("indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.n:
            raise IndexOutOfRangeError("index outside [0, n)")
        idx = idx.copy()
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @property
    def m(self) -> int:
        return self.indices.shape[0]


def _check_sizes(n: int, m: int) -> None:
    if m <= 0 or m > n:
        raise BadSizeError(f"need 1 <= m <= n, got m={m}, n={n}")


def _as_rng(seed_or_rng: Union[int, np.random.Generator], strategy: str) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    # Per-strategy stream: equal seeds across strategies are unrelated draws.
    return derive_rng(int(seed_or_rng), f"srswor-{strategy}")


def _permutation_batch(n: int, m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    # Row t holds step t's swap targets, uniform on [t, n); one call draws
    # the same stream as one call per step.
    targets = rng.integers(np.arange(m)[:, None], n, size=(m, count))
    if count == 1:
        # One draw: swap Python ints, keeping only the slots that moved.
        moved = {}
        for t, j in enumerate(targets[:, 0].tolist()):
            moved[t], moved[j] = moved.get(j, j), moved.get(t, t)
        return np.array([sorted(moved[t] for t in range(m))], dtype=np.int64)
    out = np.empty((count, m), dtype=np.int64)
    step = max(1, _PERMUTATION_BLOCK_ENTRIES // n)   # draws whose n slots swap at once
    for lo in range(0, count, step):
        arr = np.tile(np.arange(n, dtype=np.int64), (min(step, count - lo), 1))
        rows = np.arange(arr.shape[0])
        for t, j in enumerate(targets[:, lo:lo + step]):
            picked = arr[rows, j].copy()
            arr[rows, j] = arr[:, t]
            arr[:, t] = picked
        out[lo:lo + step] = np.sort(arr[:, :m], axis=1)
    return out


def _hashset_batch(n: int, m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    out = np.full((count, m), -1, dtype=np.int64)
    filled = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    while active.size:
        u = rng.integers(0, n, size=active.size)
        member = (out[active] == u[:, None]).any(axis=1)
        accept = ~member
        rows = active[accept]
        out[rows, filled[rows]] = u[accept]
        filled[rows] += 1
        active = active[filled[active] < m]
    return np.sort(out, axis=1)


def _reservoir_batch(n: int, m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    out = np.tile(np.arange(m, dtype=np.int64), (count, 1))
    for i in range(m, n):
        j = rng.integers(0, i + 1, size=count)
        hit = j < m
        out[np.flatnonzero(hit), j[hit]] = i
    return np.sort(out, axis=1)


_BATCH_KERNELS = {
    "permutation": _permutation_batch,
    "hashset": _hashset_batch,
    "reservoir": _reservoir_batch,
}


def reservoir_sample(stream: Iterable[int], m: int,
                     seed_or_rng: Union[int, np.random.Generator] = 0) -> List[int]:
    """Reservoir sampling over an arbitrary stream, reading each item once.

    Returns m items, each size-m subset of the stream equally likely.  Uses
    O(m) working memory regardless of stream length.
    """
    if m <= 0:
        raise BadSizeError(f"need m >= 1, got m={m}")
    rng = _as_rng(seed_or_rng, "reservoir")
    it = iter(stream)
    reservoir: List[int] = []
    for _ in range(m):
        try:
            reservoir.append(next(it))
        except StopIteration:
            raise BadSizeError(f"stream shorter than m={m}") from None
    for i, item in enumerate(it, start=m):
        j = int(rng.integers(0, i + 1))
        if j < m:
            reservoir[j] = item
    return reservoir


_BATCH_CHUNK = 200_000   # most draws per kernel call in `srswor_batch`, to bound memory
_PERMUTATION_BLOCK_ENTRIES = 2 ** 16   # most slots `_permutation_batch` swaps at once


def srswor_batch(n: int, m: int, strategy: str, seed: Union[int, np.random.Generator],
                 count: int) -> np.ndarray:
    """Draw ``count`` independent subsamples; returns a (count, m) index array.

    Rows are sorted; the joint draw is deterministic given (strategy, seed).
    """
    _check_sizes(n, m)
    if strategy not in _BATCH_KERNELS:
        raise SamplingError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    if count < 1:
        raise BadSizeError(f"need count >= 1, got {count}")
    rng = _as_rng(seed, strategy)
    kernel = _BATCH_KERNELS[strategy]
    return np.vstack([kernel(n, m, min(_BATCH_CHUNK, count - done), rng)
                      for done in range(0, count, _BATCH_CHUNK)])


def srswor(n: int, m: int, strategy: str = "permutation",
           seed: Union[int, np.random.Generator] = 0) -> Subsample:
    """Draw one uniform size-m subset of {0, ..., n-1}.

    Every subset has probability 1 / C(n, m); each index is included with
    probability m / n.  Deterministic given (strategy, seed).
    """
    if strategy == "reservoir" and not isinstance(seed, np.random.Generator):
        # Scalar path goes through the genuine single-pass implementation.
        _check_sizes(n, m)
        idx = np.sort(np.asarray(reservoir_sample(range(n), m, seed), dtype=np.int64))
        return Subsample(indices=idx, n=n)
    rows = srswor_batch(n, m, strategy, seed, count=1)
    return Subsample(indices=rows[0], n=n)


def membership_indicator(sub: Subsample, i: int) -> int:
    """1 if index i belongs to the subsample, else 0."""
    if i < 0 or i >= sub.n:
        raise IndexOutOfRangeError(f"index {i} outside [0, {sub.n})")
    pos = int(np.searchsorted(sub.indices, i))
    return int(pos < sub.m and sub.indices[pos] == i)
