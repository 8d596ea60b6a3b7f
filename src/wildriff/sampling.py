"""Simple random sampling without replacement (SRSWOR).

Three interchangeable strategies, each exactly uniform over the C(n, m)
size-m subsets of {0, ..., n-1}:

* ``permutation`` -- partial Fisher-Yates shuffle, keep the first m slots;
* ``hashset``     -- rejection sampling into a set of distinct indices;
* ``reservoir``   -- single-pass reservoir replacement, O(m) working memory.

The strategies need not agree index-for-index at equal seeds.  Batched
drawing (`srswor_batch`) runs the same algorithms vectorized across draws;
the scalar `srswor` is the batch of size one.  A permutation draw takes all
of its m swap targets at once, and one vectorized pass resolves the
shuffles of any number of draws (`_resolve_swaps`), so `srswor_each`, the
``permutation`` draws of many seeds, gives each seed's `srswor` draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Union

import numpy as np

from .core import ConfigError, derive_rng

__all__ = [
    "SamplingError",
    "BadSizeError",
    "IndexOutOfRangeError",
    "Subsample",
    "srswor",
    "srswor_batch",
    "srswor_each",
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
        idx = np.array(self.indices, dtype=int)
        if idx.size == 0:
            raise BadSizeError("a subsample must contain at least one index")
        if not (idx[1:] > idx[:-1]).all():
            raise SamplingError("indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.n:
            raise IndexOutOfRangeError("index outside [0, n)")
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


def _resolve_swaps(targets: np.ndarray, n: int) -> np.ndarray:
    """The sorted first m slots of partial Fisher-Yates shuffles of
    {0, ..., n-1}, one per row of ``targets`` (count x m): step t swaps
    slot t with slot targets[i, t], which lies in [t, n).

    No later step touches slot t, so it keeps what slot targets[i, t] held
    just before step t: the target itself if no earlier step targeted it,
    else a(s) for the last earlier step s that did, where a(s) is what
    slot s held just before step s.  a(t) is t if no earlier step targeted
    slot t, else a of the last one that did; pointer doubling follows those
    chains to their ends.  Resolved in chunks of `_RESOLVE_ENTRIES` slots.
    """
    count, m = targets.shape
    out = np.empty((count, m), dtype=np.int64)
    per = max(1, _RESOLVE_ENTRIES // m)
    steps = np.arange(m)
    for lo in range(0, count, per):
        chunk = targets[lo:lo + per]
        base = np.arange(0, chunk.size, m)[:, None]
        # Per row, steps by (target, step): ties are steps with one target.
        keys = np.sort(chunk * m + steps, axis=1)
        target = keys // m
        step = keys - target * m + base   # flat step index, row * m + step
        tie = target[:, 1:] == target[:, :-1]
        same = np.full(chunk.size, -1)    # each step's last earlier step with its target
        same[step[:, 1:][tie]] = step[:, :-1][tie]
        # Slot t < m's last earlier targeting step ends its target group,
        # unless that step is t itself, whose `same` it then is.
        link = np.ones(keys.shape, dtype=bool)
        link[:, :-1] = ~tie
        slot = target + base
        link &= (target < m) & (slot != step)
        ptr = np.arange(chunk.size)
        ptr[slot[link]] = step[link]
        own = (chunk == steps).ravel() & (same >= 0)
        ptr[own] = same[own]
        while True:
            nxt = ptr[ptr]
            if np.array_equal(nxt, ptr):
                break
            ptr = nxt
        ptr -= np.repeat(base[:, 0], m)   # a(t), a slot index
        out[lo:lo + per] = np.where(same < 0, chunk.ravel(), ptr[same]).reshape(chunk.shape)
    out.sort(axis=1)
    return out


def _permutation_batch(n: int, m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    # Row t holds step t's swap targets, uniform on [t, n); one call draws
    # the same stream as one call per step.
    targets = rng.integers(np.arange(m)[:, None], n, size=(m, count))
    return _resolve_swaps(targets.T, n)


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
_RESOLVE_ENTRIES = 2 ** 14   # most slots `_resolve_swaps` resolves at once


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


def srswor_each(n: int, m: int, seeds: Sequence[Union[int, np.random.Generator]]
                ) -> List[Subsample]:
    """``srswor(n, m, "permutation", seed)`` for every seed, in order.

    Each draw takes its own generator and swap targets, as alone; one
    `_resolve_swaps` call then resolves every draw's swaps.
    """
    _check_sizes(n, m)
    steps = np.arange(m)[:, None]
    targets = np.empty((len(seeds), m), dtype=np.int64)
    for row, seed in zip(targets, seeds):
        row[:] = _as_rng(seed, "permutation").integers(steps, n, size=(m, 1))[:, 0]
    return [Subsample(indices=row, n=n) for row in _resolve_swaps(targets, n)]


def membership_indicator(sub: Subsample, i: int) -> int:
    """1 if index i belongs to the subsample, else 0."""
    if i < 0 or i >= sub.n:
        raise IndexOutOfRangeError(f"index {i} outside [0, {sub.n})")
    pos = int(np.searchsorted(sub.indices, i))
    return int(pos < sub.m and sub.indices[pos] == i)
