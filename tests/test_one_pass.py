"""run_pass: many reducers, one draw, nested sample sizes.

`run_pass` walks a source once and feeds each block to every reducer.  A
snapshot at n merges the blocks before n with the partial of the cut
block's rows up to n, so it must equal the library call on
`Scenario.build(n, ...)` bit for bit, for every estimator, the kernel
variance and the identity statistics, at sizes on both sides of a block
boundary.  `centered` splits each n's own rows at n // 2, so it takes one
reducer per n.  Reducers that share a pass share kernel set-ups and
sign-formula bins, which must not change a bit either.
"""
import math

import numpy as np
import pytest

from dirichlet_mc.estimators import (
    ESTIMATORS,
    Reducer,
    identity_z_scores,
    run_estimator,
    run_pass,
    shifted_kernel_variance,
)
from dirichlet_mc.scenarios import SCENARIOS
from dirichlet_mc.streams import CHUNK_SIZE
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
        r = _caught(_reducer(sc, name, stream))
        if r.halves:  # one reducer per size, each splitting its own rows
            plan += [(name, r._replace(sizes=(n,))) for n in SIZES if n >= 2]
        else:
            plan.append((name, r._replace(sizes=SIZES)))
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
    with pytest.raises(ValueError, match="too small"):
        run_pass(stream, [run_estimator("direct", stream, None, [1.0], reducer=True), r])
    assert drawn == []


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
             if (sc.kind == "quad" or not e.needs_quad)
             and (name != "conditional" or scenario == "gaussian_pair")]

    def reducers(src):
        out = [run_estimator(name, src, eps, points, scenario, reducer=True)
               for name in names for eps in (EPSILON, 0.2)]
        out.append(run_estimator("shifted", src, EPSILON, points[:1], scenario, reducer=True))
        out.append(shifted_kernel_variance.reducer(src, EPSILON, points))
        if sc.kind == "quad":
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
