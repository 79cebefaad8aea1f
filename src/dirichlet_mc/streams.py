"""Splittable counter-based random streams.

Every sampler in this package draws from a Philox generator keyed by
(seed, chunk index).  Work is cut into fixed-size chunks before it is
handed to workers, so the set of streams, and therefore every drawn
number, depends only on the seed and the chunk layout, never on the
number of workers or the order in which chunks finish.
"""
from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

# Fixed chunk size: changing it changes the stream layout and hence the
# sampled numbers, so it is part of the reproducibility contract.
CHUNK_SIZE = 1 << 14

_MASK64 = (1 << 64) - 1


def chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    """Generator for one (seed, chunk) cell of the stream grid."""
    key = np.array([seed & _MASK64, chunk & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_sizes(n: int, chunk_size: int = CHUNK_SIZE) -> list[int]:
    """Sizes of the chunks covering n items (all full except the last)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    sizes = [chunk_size] * (n // chunk_size)
    if n % chunk_size:
        sizes.append(n % chunk_size)
    return sizes


def sample_chunked(
    n: int,
    seed: int,
    draw: Callable[[np.random.Generator, int], np.ndarray | tuple[np.ndarray, ...]],
    workers: int = 1,
    chunk_offset: int = 0,
) -> tuple[np.ndarray, ...]:
    """Draw n samples through (seed, chunk)-keyed streams.

    draw(rng, count) produces one chunk as an array, or a tuple of arrays
    that share the leading axis.  Chunks are computed independently
    (possibly by several workers) and copied in chunk order into arrays
    allocated once, so the result is bit-identical for any worker count
    and no chunk outlives its copy.  At most 2·workers chunks are in
    flight.  chunk_offset shifts the chunk keys, letting a caller carve
    disjoint substreams out of one seed.
    """
    sizes = chunk_sizes(n)
    if not sizes:
        probe = draw(chunk_rng(seed, chunk_offset), 0)
        if isinstance(probe, tuple):
            return tuple(np.asarray(p) for p in probe)
        return (np.asarray(probe),)

    def one(i: int):
        out = draw(chunk_rng(seed, chunk_offset + i), sizes[i])
        return out if isinstance(out, tuple) else (out,)

    out: list[np.ndarray] = []
    lo = 0

    def place(part: tuple[np.ndarray, ...]) -> None:
        nonlocal lo
        if not out:
            out.extend(np.empty((n,) + p.shape[1:], dtype=p.dtype) for p in part)
        hi = lo + part[0].shape[0]
        for dst, p in zip(out, part):
            dst[lo:hi] = p
        lo = hi

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending: deque = deque()
            for i in range(len(sizes)):
                pending.append(pool.submit(one, i))
                if len(pending) > 2 * workers:
                    place(pending.popleft().result())
            while pending:
                place(pending.popleft().result())
    else:
        for i in range(len(sizes)):
            place(one(i))
    return tuple(out)
