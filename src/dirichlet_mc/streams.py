"""Splittable counter-based random streams.

Every sampler in this package draws from a Philox generator keyed by
(seed, chunk index).  Work is cut into fixed-size chunks before it is
handed to workers, so the set of streams, and therefore every drawn
number, depends only on the seed and the chunk layout, never on the
number of workers or the order in which chunks finish.

iter_chunks is the one pool loop: from workers = 1 up, a pool of workers
threads draws the next chunks while the caller reduces the current one,
and the chunks come back in order with at most 2·workers in flight, so a
consumer that reduces each chunk as it arrives holds O(workers·CHUNK_SIZE)
rows whatever the sample count; sample_chunked places them into arrays
allocated once.  A draw keeps its per-chunk temporaries in thread_scratch,
so a chunk does not fault in fresh arrays.
"""
from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, TypeAlias

import numpy as np

# Fixed chunk size: changing it changes the stream layout and hence the
# sampled numbers, so it is part of the reproducibility contract.
CHUNK_SIZE = 1 << 14

_MASK64 = (1 << 64) - 1

# a string, so that importing this module does not import numpy.random
Draw: TypeAlias = "Callable[[np.random.Generator, int], np.ndarray | tuple[np.ndarray, ...]]"


def chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    """Generator for one (seed, chunk) cell of the stream grid."""
    key = np.array([seed & _MASK64, chunk & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def iter_chunks(
    n: int, seed: int, draw: Draw, workers: int = 1
) -> Iterator[tuple[np.ndarray, ...]]:
    """Each chunk of n samples as a tuple of arrays, in chunk order.

    draw(rng, count) produces one chunk as an array, or a tuple of arrays
    that share the leading axis.  Every chunk holds CHUNK_SIZE samples but
    the last, and the layout is never materialised, so its cost does not
    grow with n.  A pool of workers threads draws while the caller consumes,
    one worker included, so chunk i + 1 is drawn while chunk i is reduced; a
    chunk is submitted only while fewer than 2·workers are in flight, the
    one being consumed included.  A stream of one chunk is drawn in the
    calling thread, as nothing would overlap it.  Closing the generator
    cancels the draws not yet started and waits for the running ones.  n = 0
    yields one empty chunk, so the shapes are known.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    count = max(1, -(-n // CHUNK_SIZE))

    def one(i: int) -> tuple[np.ndarray, ...]:
        out = draw(chunk_rng(seed, i), min(CHUNK_SIZE, n - i * CHUNK_SIZE))
        return out if isinstance(out, tuple) else (out,)

    if count == 1:
        yield one(0)
        return
    pool, pending = ThreadPoolExecutor(max_workers=workers), deque()
    try:
        for i in range(count):
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(one, i))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def sample_chunked(
    n: int, seed: int, draw: Draw, workers: int = 1
) -> tuple[np.ndarray, ...]:
    """Draw n samples through (seed, chunk)-keyed streams: the chunks of
    iter_chunks, copied in order into arrays allocated once, so the result
    is bit-identical for any worker count and no chunk outlives its copy."""
    out: list[np.ndarray] = []
    lo = 0
    for part in iter_chunks(n, seed, draw, workers):
        if not out:
            out = [np.empty((n,) + p.shape[1:], dtype=p.dtype) for p in part]
        hi = lo + part[0].shape[0]
        for dst, p in zip(out, part):
            dst[lo:hi] = p
        lo = hi
    return tuple(out)


_SCRATCH = threading.local()


def thread_scratch(owner: str, count: int, size: int) -> list[np.ndarray]:
    """count float64 arrays of size entries, kept for owner in the calling
    thread across calls and grown when size exceeds them.  They are the
    caller's until its next call from this thread; a result that outlives
    the call must not be one of them."""
    bufs = getattr(_SCRATCH, owner, None)
    if bufs is None or bufs[0].shape[0] < size:
        bufs = [np.empty(size) for _ in range(count)]
        setattr(_SCRATCH, owner, bufs)
    return [b[:size] for b in bufs]
