"""Streamed estimates against the built batch.

`density` reduces a scenario's stream: chunks are drawn inside the
estimator's block loop and the batch never exists.  A stream cuts its kept
rows into blocks by the batch's own rule, so every estimate must equal the
one on `Scenario.build` bit for bit, at sizes on both sides of a chunk
boundary, for any worker count and when non-finite rows are dropped.  The
one stated exception is `centered`, which splits a stream at N // 2 drawn
rows.
"""
import itertools
import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from dirichlet_mc import estimators, streams
from dirichlet_mc.estimators import (
    ESTIMATORS,
    QuadBatch,
    Reducer,
    SampleStream,
    centered_direct_density,
    plain_kernel_density,
    run_estimator,
    run_pass,
    shifted_kernel_density,
    shifted_kernel_variance,
)
from dirichlet_mc.scenarios import SCENARIOS, Scenario
from dirichlet_mc.streams import CHUNK_SIZE, iter_chunks, sample_chunked

from oracles import centered_loop, kernel_moments_per_query

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
    stream = SampleStream(lambda lend: iter_chunks(n, 5, counted, 2, lend), n,
                          SCENARIOS["lognormal"].empty)
    run_estimator("direct", stream, None, [1.0])
    assert stream.n == n and peak <= 2 * 2 + 2, peak


def test_one_worker_draws_the_next_chunk_while_the_consumer_holds_one():
    """At workers = 1 the draw of chunk 1 runs on a pool thread and starts
    before the consumer lets go of chunk 0."""
    order, threads, second = itertools.count(), {}, threading.Event()

    def draw(rng, k):
        i = next(order)
        threads[i] = threading.get_ident()
        if i == 1:
            second.set()
        return rng.normal(size=k)

    chunks = iter_chunks(3 * C, 8, draw, 1)
    (first,) = next(chunks)
    assert second.wait(timeout=10), "chunk 1 was not drawn while chunk 0 was held"
    assert threads[1] != threading.get_ident()
    rest = [part for (part,) in chunks]
    assert np.array_equal(np.concatenate([first, *rest]), sample_chunked(3 * C, 8, draw, 2)[0])


def _pool_threads(before):
    return [t for t in threading.enumerate() if t not in before]


@pytest.mark.parametrize("workers", [1, 2])
def test_closing_the_stream_early_leaves_no_pool_thread(workers):
    before = set(threading.enumerate())
    seen = set()

    def draw(rng, k):
        seen.add(threading.get_ident())
        return rng.normal(size=k)

    chunks = iter_chunks(10 * C, 3, draw, workers)
    next(chunks)
    assert _pool_threads(before), "the chunks are not drawn on a pool"
    chunks.close()
    assert _pool_threads(before) == []
    assert threading.get_ident() not in seen


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_draw_reaches_the_consumer(workers):
    before = set(threading.enumerate())

    def draw(rng, k):
        if k < C:
            raise RuntimeError("draw failed")
        return rng.normal(size=k)

    got = []
    with pytest.raises(RuntimeError, match="draw failed"):
        for (part,) in iter_chunks(4 * C + 5, 3, draw, workers):
            got.append(part)
    assert len(got) == 4
    assert _pool_threads(before) == []


# -- kernel query groups on the stream's draw pool ---------------------------

N_KERNEL = 2 * C + 7


def _kernel_draw(d):
    """Centred Gaussian (X, Γ, A) in dimension d with full covariances,
    one of them zero in every chunk, as (N, d), (N, d, d) and (N, d)."""
    def draw(rng, k):
        m = rng.normal(size=(k, d, d))
        gamma = m @ m.transpose(0, 2, 1) + 0.1 * np.eye(d)
        gamma[k // 2:k // 2 + 1] = 0.0
        return rng.normal(size=(k, d)), gamma, rng.normal(size=(k, d))

    return draw


def _kernel_stream(draw, d, workers=1):
    """N_KERNEL rows of draw on a stream: three chunks, so the stream lends
    its pool while each is reduced."""
    empty = QuadBatch(np.empty((0, d)), np.empty((0, d, d)), np.empty((0, d)))
    return SampleStream(lambda lend: iter_chunks(N_KERNEL, 11, draw, workers, lend),
                        N_KERNEL, empty)


def _kernel_queries(d):
    """Two full query groups of max(1, 8 // d) and three more queries."""
    return np.random.default_rng(d).normal(size=(2 * max(1, 8 // d) + 3, d))


# the helper cases: one ε over three query groups, three ε each over three
# query groups, and nine ε at three queries, a group holding whole ε
CASES = ("one_eps", "eps_grid", "whole_eps")


def _kernel_case(case, d):
    """(ε or ε grid, queries) of a helper case, and its groups per block."""
    epsilon, xs = {
        "one_eps": (EPSILON, _kernel_queries(d)),
        "eps_grid": ((0.2, EPSILON, 0.01), _kernel_queries(d)),
        "whole_eps": (tuple(0.4 * 2.0**-k for k in range(9)),
                      np.random.default_rng(d).normal(size=(3, d))),
    }[case]
    ne, nq, group = len(np.atleast_1d(epsilon)), len(xs), max(1, 8 // d)
    groups = -(-ne // (group // nq)) if nq <= group else ne * -(-nq // group)
    return epsilon, xs, groups


def _equal_the_oracle(got, batch, xs, epsilon=EPSILON):
    if np.ndim(epsilon):
        assert len(got) == len(epsilon)
        for ests, eps in zip(got, epsilon):
            _equal_the_oracle(ests, batch, xs, eps)
        return
    refs = kernel_moments_per_query(batch, epsilon, xs, True, False)
    assert len(got) == len(refs) == len(xs)
    for g, m in zip(got, refs):
        assert g.n_used == m.n and g.epsilon == epsilon
        assert g.value == m.mean and g.std_error == math.sqrt(m.m2 / (m.n - 1)) / math.sqrt(m.n)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("d", [1, 2])
def test_an_idle_draw_thread_takes_kernel_query_groups(d, case, monkeypatch):
    """One stream pass over several (ε, query) groups equals one pass per
    ε and query bit for bit, whether the draw thread takes groups of a
    block or is busy drawing the next chunk, so that the caller takes
    them all."""
    draw, (epsilon, xs, groups) = _kernel_draw(d), _kernel_case(case, d)
    batch = QuadBatch(*sample_chunked(N_KERNEL, 11, draw))
    caller, helped, log, waiting = threading.get_ident(), threading.Event(), [], [True]
    real = estimators._moments

    def moments(vals, fourth=False):
        log.append(threading.get_ident())
        if log[-1] != caller:
            helped.set()
        elif waiting:
            # the caller's first group waits until a pool thread has taken one
            waiting.clear()
            helped.wait(timeout=10)
        return real(vals, fourth)

    monkeypatch.setattr(estimators, "_moments", moments)
    stream = _kernel_stream(draw, d)
    got = run_pass(stream, [shifted_kernel_density.reducer(stream, epsilon, xs)])[0]
    assert set(log) - {caller}, "no group ran on the draw thread"
    _equal_the_oracle(got[N_KERNEL], batch, xs, epsilon)

    # the draw of chunk i + 1 waits until block i is reduced, so the pool's
    # one thread is busy while the caller reduces blocks 0 and 1
    released = [threading.Event() for _ in range(3)]
    released[0].set()
    opened = []

    def held(rng, k):
        chunk = int(rng.bit_generator.state["state"]["key"][1])
        opened.append(released[chunk].wait(timeout=10))
        return draw(rng, k)

    def release(blk, half, shared):
        log.append("block")
        if log.count("block") < 3:
            released[log.count("block")].set()

    log.clear()
    stream = _kernel_stream(held, d)
    plan = [shifted_kernel_density.reducer(stream, epsilon, xs), Reducer(release, lambda t: None)]
    got = run_pass(stream, plan)[0]
    assert opened == [True] * 3
    first_two = log[:[i for i, e in enumerate(log) if e == "block"][1]]
    assert first_two.count(caller) == len(first_two) - 1 == 2 * groups
    _equal_the_oracle(got[N_KERNEL], batch, xs, epsilon)


@pytest.mark.parametrize("case", CASES)
def test_a_group_that_fails_on_the_draw_thread_reaches_the_caller(case, monkeypatch):
    before = set(threading.enumerate())
    caller, failed, waiting = threading.get_ident(), threading.Event(), [True]
    real = estimators._moments

    def moments(vals, fourth=False):
        if threading.get_ident() != caller:
            failed.set()
            raise RuntimeError("group failed")
        if waiting:
            waiting.clear()
            failed.wait(timeout=10)
        return real(vals, fourth)

    monkeypatch.setattr(estimators, "_moments", moments)
    stream, (epsilon, xs, _) = _kernel_stream(_kernel_draw(1), 1), _kernel_case(case, 1)
    with pytest.raises(RuntimeError, match="group failed"):
        run_pass(stream, [shifted_kernel_density.reducer(stream, epsilon, xs)])
    assert _pool_threads(before) == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_a_grid_over_a_stream_equals_one_pass_per_epsilon(d, workers):
    """Each kernel over five ε, mean and M2 or (the variance) the fourth
    moments, on a stream whose pool takes groups: per ε, the bits of that
    ε's own pass, and of the built batch."""
    draw, grid = _kernel_draw(d), (0.4, 0.2, 0.1, 0.05, 0.025)
    batch = QuadBatch(*sample_chunked(N_KERNEL, 11, draw))
    xs = np.random.default_rng(d + 5).normal(size=(3, d))
    kernels = [shifted_kernel_density.reducer, shifted_kernel_variance.reducer,
               lambda b, e, x: plain_kernel_density.reducer(b, e, x, "gamma_cov"),
               lambda b, e, x: plain_kernel_density.reducer(b, e, x, "identity_cov")]
    for reducer in kernels:
        stream = _kernel_stream(draw, d, workers)
        got = run_pass(stream, [reducer(stream, grid, xs)])[0][N_KERNEL]
        assert repr(got) == repr([run_pass(stream, [reducer(stream, eps, xs)])[0][N_KERNEL]
                                  for eps in grid])
        assert repr(got) == repr(run_pass(batch, [reducer(batch, grid, xs)])[0][N_KERNEL])


def test_a_built_batch_or_one_query_group_gives_the_pool_no_work(monkeypatch):
    """Only the draws are submitted to the stream's pool when each block
    has one query group (8 at d = 1, 4 at d = 2), and a built batch has no
    pool, however many groups."""
    submitted, pools = [], []

    class Recording(streams.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn.__name__)
            return super().submit(fn, *args, **kwargs)

    def seen(blk, half, shared):
        pools.append(shared.get("pool"))

    monkeypatch.setattr(streams, "ThreadPoolExecutor", Recording)
    for d in (1, 2):
        draw, xs = _kernel_draw(d), _kernel_queries(d)
        batch = QuadBatch(*sample_chunked(N_KERNEL, 11, draw))
        one_group = xs[:max(1, 8 // d)]
        stream = _kernel_stream(draw, d)
        submitted.clear()
        got = run_pass(stream, [shifted_kernel_density.reducer(stream, EPSILON, one_group),
                                Reducer(seen, lambda t: None)])[0]
        assert submitted == ["one"] * 3
        assert len(pools) == 3 and all(isinstance(p, Recording) for p in pools)
        _equal_the_oracle(got[N_KERNEL], batch, one_group)
        pools.clear()
        submitted.clear()
        got = run_pass(batch, [shifted_kernel_density.reducer(batch, EPSILON, xs),
                               Reducer(seen, lambda t: None)])[0]
        assert submitted == [] and pools == [None] * 3
        _equal_the_oracle(got[N_KERNEL], batch, xs)
        pools.clear()


@pytest.mark.parametrize("epsilon, nq, rows", [
    (EPSILON, 64, [8] * 8),
    ((0.2, EPSILON, 0.01), 64, [8] * 24),
    (tuple(0.4 * 2.0**-k for k in range(9)), 3, [6] * 4 + [3]),
])
def test_each_query_group_is_reduced_once_under_thread_switching(epsilon, nq, rows, monkeypatch):
    """Three draw threads on two cores, switching every microsecond: every
    (ε, query) group of every block is claimed by exactly one thread, so
    the pass makes one _moments call per (block, group), of the group's
    rows, and equals the built batch."""
    draw, xs = _kernel_draw(1), np.linspace(-2.0, 2.0, nq)[:, None]
    batch = QuadBatch(*sample_chunked(N_KERNEL, 11, draw))
    calls, real = [], estimators._moments

    def moments(vals, fourth=False):
        calls.append(vals.shape[0])
        return real(vals, fourth)

    monkeypatch.setattr(estimators, "_moments", moments)
    empty = QuadBatch(np.empty((0, 1)), np.empty((0, 1, 1)), np.empty((0, 1)))
    stream = SampleStream(lambda lend: iter_chunks(N_KERNEL, 11, draw, 3, lend), N_KERNEL, empty)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_pass(stream, [shifted_kernel_density.reducer(stream, epsilon, xs)])[0]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == sorted(rows * 3)
    _equal_the_oracle(got[N_KERNEL], batch, xs, epsilon)
