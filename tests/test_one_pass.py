"""run_pass: many reducers, one draw, nested sample sizes.

`run_pass` walks a source once and feeds each block to every reducer.  A
snapshot at n merges the blocks before n with the partial of the cut
block's rows up to n, so it must equal the library call on
`Scenario.build(n, ...)` bit for bit, for every estimator, the kernel
variance and the identity statistics, at sizes on both sides of a block
boundary.  For `centered`, run_pass splits each n's own rows at n // 2,
so one reducer serves every n as it serves the others.  Reducers that
share a pass share kernel set-ups and sign-formula bins, which must not
change a bit either.
"""
import math
import tracemalloc

import numpy as np
import pytest

from dirichlet_mc import sweeps
from dirichlet_mc.estimators import (
    ESTIMATORS,
    Reducer,
    TripleBatch,
    identity_z_scores,
    plain_kernel_density,
    run_estimator,
    run_pass,
    shifted_kernel_density,
    shifted_kernel_variance,
)
from dirichlet_mc.scenarios import SCENARIOS
from dirichlet_mc.streams import CHUNK_SIZE, chunk_rng
from dirichlet_mc.sweeps import compare_estimators

SIZES = (1, 1000, CHUNK_SIZE, CHUNK_SIZE + 1, 50001)
EPSILON = 0.05


def _outcome(call):
    """(repr of the result, None), or (None, the ValueError it raises)."""
    try:
        return repr(call()), None
    except ValueError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _caught(reducer):
    """reducer with its finish turned into an outcome, so that one
    snapshot that raises does not end the pass for the others."""
    return reducer._replace(finish=lambda total, f=reducer.finish: _outcome(lambda: f(total)))


def _library(sc):
    """name -> (batch -> its library result) for every statistic checked;
    conditional needs the tracked G, which only gaussian_pair draws."""
    points = list(sc.default_points)
    calls = {name: (lambda b, name=name: run_estimator(name, b, EPSILON, points, sc.name))
             for name in ESTIMATORS if name != "conditional" or sc.name == "gaussian_pair"}
    calls["kernel_variance"] = lambda b: shifted_kernel_variance(b, EPSILON, points)
    calls["identities"] = identity_z_scores
    return calls


def _reducer(sc, name, src):
    points = list(sc.default_points)
    if name == "kernel_variance":
        return shifted_kernel_variance.reducer(src, EPSILON, points)
    if name == "identities":
        return identity_z_scores.reducer(src)
    return run_estimator(name, src, EPSILON, points, sc.name, reducer=True)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scenario", ["gaussian_pair", "lognormal"])
def test_every_snapshot_equals_the_built_batch(scenario, workers):
    sc = SCENARIOS[scenario]
    stream = sc.stream(max(SIZES), 9, workers)
    library = _library(sc)
    plan = []
    for name in library:
        # a split of one row is rejected before the draw (test below)
        sizes = tuple(n for n in SIZES if n >= 2 or name != "centered")
        plan.append((name, _caught(_reducer(sc, name, stream))._replace(sizes=sizes)))
    got = {}
    for (name, _), res in zip(plan, run_pass(stream, [r for _, r in plan])):
        for n, outcome in res.items():
            got[(name, n)] = outcome
    assert (stream.n, stream.invalid_count) == (max(SIZES), 0)
    for n in SIZES:
        batch = sc.build(n, 9, workers)
        for name, call in library.items():
            want = _outcome(lambda: call(batch))
            if name == "centered" and n < 2:
                assert want[1] is not None and "too small" in want[1]
                continue
            assert got[(name, n)] == want, (name, n)


def test_a_split_too_small_is_rejected_before_the_draw():
    sc = SCENARIOS["lognormal"]
    drawn = []
    stream = sc.stream(1000, 3, 1)
    chunks = stream.chunks
    stream.chunks = lambda: (drawn.append(c) or c for c in chunks())
    r = run_estimator("centered", stream, None, [1.0], reducer=True)._replace(sizes=(1,))
    with pytest.raises(ValueError, match="too small to split: 1 row"):
        run_pass(stream, [run_estimator("direct", stream, None, [1.0], reducer=True), r])
    assert drawn == []


def test_compare_names_the_estimator_and_the_size_too_small_to_split(monkeypatch):
    monkeypatch.setattr(sweeps, "run_pass", lambda *a: pytest.fail("the stream was reduced"))
    with pytest.raises(ValueError, match="estimator 'centered' .* n = 1 is too small"):
        compare_estimators("lognormal", ["direct", "centered"], [1, 1000], [], [1.0])


@pytest.mark.parametrize("sizes", [(30_000, 40_000), (10_000, 40_000)])
def test_centered_splits_each_size_at_its_own_half(sizes):
    """One centered reducer snapshotted at several sizes equals its own
    one-size pass at each: a size's halves are its own first n // 2 rows
    and the next n - n // 2, not a split of the largest size."""
    stream = SCENARIOS["lognormal"].stream(max(sizes), 3, 1)
    r = run_estimator("centered", stream, None, [0.5, 1.0, 2.0], reducer=True)
    [got] = run_pass(stream, [r._replace(sizes=sizes)])
    for n in sizes:
        [alone] = run_pass(stream, [r._replace(sizes=(n,))])
        assert repr(got[n]) == repr(alone[n])
        assert all(e.n_used == n - n // 2 for e in got[n])


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_one_pass_over_a_stream_equals_one_pass_over_the_batch(scenario):
    """Many reducers in one pass, some sharing a kernel set-up (the same ε
    twice, the kernel variance beside shifted) or the sign-formula bins
    (the same queries), each equal to its own pass over the built batch."""
    sc = SCENARIOS[scenario]
    n = 3 * CHUNK_SIZE + 7
    batch, stream = sc.build(n, 4, 2), sc.stream(n, 4, 2)
    points = list(sc.default_points)
    # conditional needs the tracked G, which only gaussian_pair draws
    names = [name for name, e in ESTIMATORS.items()
             if (sc.quad or not e.needs_quad)
             and (name != "conditional" or scenario == "gaussian_pair")]

    def reducers(src):
        out = [run_estimator(name, src, eps, points, scenario, reducer=True)
               for name in names for eps in (EPSILON, 0.2)]
        out.append(run_estimator("shifted", src, EPSILON, points[:1], scenario, reducer=True))
        out.append(shifted_kernel_variance.reducer(src, EPSILON, points))
        if sc.quad:
            out.append(identity_z_scores.reducer(src))
        return [_caught(r) for r in out]

    together = run_pass(stream, reducers(stream))
    assert together == run_pass(batch, reducers(batch))
    alone = [run_pass(batch, [r])[0] for r in reducers(batch)]
    assert together == alone
    assert (stream.n, stream.invalid_count) == (batch.n, batch.invalid_count)


def test_straddling_blocks_are_joined_into_one_set_of_buffers():
    """A split at N // 2 inside a chunk makes every full block of the second
    half straddle a chunk boundary; each is joined into the same column
    buffers of CHUNK_SIZE rows, which the cutter allocates once."""
    n = 4 * CHUNK_SIZE + 2
    stream = SCENARIOS["gaussian_pair"].stream(n, 5, 1)
    seen = []

    def part(blk, half, shared):
        seen.append((half, blk.n, [c.base for c in (blk.x, blk.gamma_x_g)]))

    run_pass(stream, [Reducer(part, lambda total: None, halves=True)])
    assert [(half, rows) for half, rows, _ in seen] == [
        (0, CHUNK_SIZE), (0, CHUNK_SIZE), (0, 1), (1, CHUNK_SIZE), (1, CHUNK_SIZE), (1, 1)]
    (_, _, first), (_, _, second) = seen[3:5]
    assert all(a is b and a.shape == (CHUNK_SIZE,) for a, b in zip(first, second))
    assert not any(a is b for a, b in zip(first, seen[5][2]))


def test_compare_rows_are_the_per_size_library_calls():
    """compare reduces one stream of the largest size; its rows, in the
    given order, are what each size's own batch gives."""
    sizes, eps, points = [CHUNK_SIZE + 1, 1000, 50001, 1000], [0.4, 0.1], [0.5, 1.0, 2.0]
    names = ["shifted", "plain_id", "direct", "regularized", "centered"]
    rows = compare_estimators("lognormal", names, sizes, eps, points, seed=6, workers=2)
    assert len(rows) == len(sizes) * len(names) * len(points)
    sc = SCENARIOS["lognormal"]
    it = iter(rows)
    for n in sizes:
        batch = sc.build(n, 6, 1)
        for name in names:
            got = [next(it) for _ in points]
            chosen = got[0].epsilon
            if ESTIMATORS[name].kernel:
                assert chosen in eps
            else:
                assert chosen == (min(eps) if ESTIMATORS[name].takes_epsilon else None)
            want = run_estimator(name, batch, chosen, points)
            assert [(r.x, r.estimate, r.std_error, r.n) for r in got] == [
                (e.x, e.value, e.std_error, e.n_used) for e in want]
            assert all(r.estimator == name and r.epsilon == chosen for r in got)


def test_kernel_rows_keep_the_epsilon_of_least_error():
    eps = [0.4, 0.2, 0.1, 0.05]
    points = [0.5, 1.0, 2.0]
    rows = compare_estimators("lognormal", ["shifted"], [20000], eps, points, seed=2)
    sc = SCENARIOS["lognormal"]
    batch = sc.build(20000, 2, 1)
    refs = [float(sc.exact_density([x])[0]) for x in points]

    def rmse(e):
        ests = run_estimator("shifted", batch, e, points)
        return math.sqrt(float(np.mean([(est.value - ref) ** 2 for est, ref in zip(ests, refs)])))

    assert rows[0].epsilon == min(eps, key=rmse)


def _kernel_batch(d: int, n: int = 2 * CHUNK_SIZE + 7) -> TripleBatch:
    """(X, Γ, A) in dimension d with correlated Γ and one degenerate row."""
    rng = chunk_rng(17, d)
    root = rng.normal(size=(n, d, d))
    gamma = root @ root.transpose(0, 2, 1) + 0.1 * np.eye(d)
    gamma[5] = 0.0
    return TripleBatch(rng.normal(size=(n, d)), gamma, rng.normal(size=(n, d)))


@pytest.mark.parametrize("d", [1, 2])
def test_interleaved_kernel_keys_equal_their_own_passes(d):
    """All kernel keys write their set-up into one scratch region, so a
    key that comes back after another within a block recomputes it; the
    results equal one pass per reducer, and one query per reducer, bit
    for bit."""
    tb = _kernel_batch(d)
    xs = chunk_rng(18, d).normal(size=(9, d))
    plan = [shifted_kernel_density.reducer(tb, 0.1, xs),
            plain_kernel_density.reducer(tb, 0.2, xs, "gamma_cov"),
            shifted_kernel_density.reducer(tb, 0.1, xs)]
    together = run_pass(tb, plan)
    for r, got in zip(plan, together):
        assert repr(got) == repr(run_pass(tb, [r])[0])
    alone = [run_pass(tb, [shifted_kernel_density.reducer(tb, 0.1, x[None])])[0][tb.n][0]
             for x in xs]
    assert repr(together[0][tb.n]) == repr(alone)


def test_kernel_keys_share_one_set_up_scratch():
    """Fifteen kernel keys in one pass, as a compare over three kernels and
    five ε runs them, allocate less than one more set-up than one key."""
    tb = _kernel_batch(1)
    xs = [0.0, 0.5, 1.0]
    keys = [(f, eps) for f in (shifted_kernel_density.reducer,
                               lambda b, e, x: plain_kernel_density.reducer(b, e, x, "gamma_cov"),
                               lambda b, e, x: plain_kernel_density.reducer(b, e, x, "identity_cov"))
            for eps in (0.05, 0.1, 0.2, 0.4, 0.8)]

    def peak(plan):
        tracemalloc.start()
        try:
            run_pass(tb, [f(tb, eps, xs) for f, eps in plan])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(keys[:1])
    one_setup = 3 * CHUNK_SIZE * 8
    assert peak(keys) - peak(keys[:1]) < one_setup
