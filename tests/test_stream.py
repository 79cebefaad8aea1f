"""Streamed estimates against the built batch.

`density` reduces a scenario's stream: chunks are drawn inside the
estimator's block loop and the batch never exists.  A stream cuts its kept
rows into blocks by the batch's own rule, so every estimate must equal the
one on `Scenario.build` bit for bit, at sizes on both sides of a chunk
boundary, for any worker count and when non-finite rows are dropped.  The
one stated exception is `centered`, which splits a stream at N // 2 drawn
rows.
"""
import math
import threading
import time
import weakref

import numpy as np
import pytest

from dirichlet_mc.estimators import (
    ESTIMATORS,
    QuadBatch,
    SampleStream,
    centered_direct_density,
    run_estimator,
)
from dirichlet_mc.scenarios import SCENARIOS, Scenario
from dirichlet_mc.streams import CHUNK_SIZE, iter_chunks, sample_chunked

from oracles import centered_loop

C = CHUNK_SIZE
SIZES = [2, C - 1, C, C + 1, 3 * C + 7]
EPSILON = 0.05


def _outcome(name, data, sc):
    """(repr of the estimates, None), or (None, the error the run raises)."""
    points = list(sc.default_points)
    try:
        return repr(run_estimator(name, data, EPSILON, points, sc.name)), None
    except ValueError as exc:
        return None, f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_streamed_estimates_equal_the_built_batch(scenario, workers):
    sc = SCENARIOS[scenario]
    for n in SIZES:
        batch = sc.build(n, 7, workers)
        stream = sc.stream(n, 7, workers)
        for name in ESTIMATORS:
            want = _outcome(name, batch, sc)
            assert _outcome(name, stream, sc) == want, (n, name)
            if want[1] is None:
                assert (stream.n, stream.invalid_count) == (batch.n, batch.invalid_count)


# rows of every chunk made non-finite, one column each: chunk edges, both
# sides of the centered split at N // 2 = C + 8195 and a run across it
BAD = {0: ("x", math.nan), C - 1: ("gamma", math.inf), C: ("a", -math.inf),
       C + 1: ("x", math.nan), C + 8194: ("gxx", math.inf), C + 8195: ("gamma", math.nan),
       2 * C - 1: ("a", math.nan), 3 * C: ("x", -math.inf), 3 * C + 6: ("gxx", math.nan)}
N_BAD = 3 * C + 7
COLUMN = {"x": 0, "gamma": 1, "a": 2, "gxx": 3}


def _poisoned_draw(rng, k):
    """Lognormal quads with G = cos X; rows in BAD (counted from the first
    row of the stream) carry a NaN or ±inf.  The chunk index is read back
    from the generator's key."""
    chunk = int(rng.bit_generator.state["state"]["key"][1])
    g = rng.normal(size=k)
    x = np.exp(g)
    cols = [x, x * x, 0.5 * x * (1.0 - g), 2.0 * x**3, np.cos(g), np.sin(g)]
    for row, (col, val) in BAD.items():
        if chunk * C <= row < chunk * C + k:
            cols[COLUMN[col]][row - chunk * C] = val
    return tuple(cols)


def _poisoned_stream(workers):
    return Scenario("poisoned", "lognormal quads with non-finite rows", _poisoned_draw).stream(
        N_BAD, 3, workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_dropped_rows_are_counted_and_cut_like_the_batch(workers):
    batch = QuadBatch.from_raw(*sample_chunked(N_BAD, 3, _poisoned_draw, workers))
    stream = _poisoned_stream(workers)
    assert batch.invalid_count == len(BAD)
    points = [0.5, 1.0, 2.0]
    for name in ESTIMATORS:
        if name == "centered":
            continue
        want = repr(run_estimator(name, batch, EPSILON, points))
        assert repr(run_estimator(name, stream, EPSILON, points)) == want, name
        assert (stream.n, stream.invalid_count) == (N_BAD - len(BAD), len(BAD))


@pytest.mark.parametrize("workers", [1, 2])
def test_centered_stream_splits_at_half_the_drawn_rows(workers):
    # the halves are drawn rows [0, N // 2) and [N // 2, N), each without
    # its non-finite rows; a batch would split its kept rows instead
    cols = sample_chunked(N_BAD, 3, _poisoned_draw, workers)
    m = N_BAD // 2
    h1 = QuadBatch.from_raw(*(c[:m] for c in cols))
    h2 = QuadBatch.from_raw(*(c[m:] for c in cols))
    assert (h1.invalid_count, h2.invalid_count) == (5, 4)
    stream = _poisoned_stream(workers)
    points = [0.5, 1.0, 2.0]
    got = centered_direct_density(stream, points)
    want = centered_loop(None, points, parts=(h1, h2))
    for e, r in zip(got, want):
        assert e.n_used == r.n_used == h2.n
        assert e.value == pytest.approx(r.value, rel=1e-12)
        assert e.std_error == pytest.approx(r.std_error, rel=1e-10)
    assert (stream.n, stream.invalid_count) == (N_BAD - len(BAD), len(BAD))
    # the split depends on the drawn rows only, not on which were dropped
    batch = QuadBatch.from_raw(*cols)
    assert batch.n // 2 != h1.n


def test_stream_too_small_to_split():
    sc = SCENARIOS["gaussian"]
    with pytest.raises(ValueError, match="too small"):
        centered_direct_density(sc.stream(1, 0, 1), [0.0])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunks_in_flight_never_exceed_twice_the_workers(workers):
    """A chunk is in flight from the start of its draw until the consumer
    has finished with it; the consumer is slower than the draws, so the
    pool runs as far ahead as it may."""
    lock = threading.Lock()
    started, consumed, peak = 0, 0, 0

    def draw(rng, k):
        nonlocal started, peak
        with lock:
            started += 1
            peak = max(peak, started - consumed)
        return rng.normal(size=k)

    n = 12 * C + 5
    got = []
    for (part,) in iter_chunks(n, 4, draw, workers):
        time.sleep(0.002)
        got.append(part)
        with lock:
            consumed += 1
    assert started == consumed == 13
    assert peak <= 2 * workers, peak
    assert np.array_equal(np.concatenate(got), sample_chunked(n, 4, draw, 1)[0])


def test_a_streamed_estimate_holds_a_bounded_number_of_chunks():
    """Live chunk arrays, counted by finalizers, while a stream on two
    workers is reduced: the 2·workers in flight plus the block being
    reduced and the one being cut, whatever N."""
    lock = threading.Lock()
    live, peak = 0, 0
    draw = SCENARIOS["lognormal"].draw

    def release():
        nonlocal live
        with lock:
            live -= 1

    def counted(rng, k):
        nonlocal live, peak
        cols = draw(rng, k)
        with lock:
            live += 1
            peak = max(peak, live)
        weakref.finalize(cols[0], release)
        return cols

    n = 20 * C
    stream = SampleStream(lambda: iter_chunks(n, 5, counted, 2), n, SCENARIOS["lognormal"].empty)
    run_estimator("direct", stream, None, [1.0])
    assert stream.n == n and peak <= 2 * 2 + 2, peak
