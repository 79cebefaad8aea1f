"""Command line interface: density runs, sweeps, identity checks, CSV out.

Subcommands, with the options each reads besides --scenario, --samples,
--seed, --workers, --out and --config (list-scenarios reads none):

  list-scenarios   names and descriptions of the built-in scenarios
  density          one estimator at query points: --estimator, --epsilons, --points, --strict
  sweep-bias       bias vs ε, fitted order: --estimator, --epsilons, --points, --strict
  sweep-variance   ε^{1/2}·variance vs ε, fitted order: --epsilons, --points, --strict
  check-identities z-scores of the exact identities: --corrupt-a, --strict
  compare          errors across estimators and sizes: --estimators, --epsilons, --points

CSV: density x,estimate,std_error,reference; the sweeps and compare the
fields of sweeps.SweepRow and sweeps.CompareRow; check-identities
scenario,check,n,statistic,threshold,passed.  Estimators are the rows of
estimators.ESTIMATORS, which state whether each takes ε, estimates a
density and, for a kernel, its bias order: density takes all seven,
compare the densities, sweep-bias the kernels, each with the strict window
bias order ± 0.3.  --samples is one count
(compare: a list; the sweeps: or 'quadrature'), an integer or a float
literal with an integral value below 2**53, never truncated.  A list option
given empty is an error; long options are never abbreviated.  --workers
is the number of pool threads that draw the next chunks while the calling
thread reduces the current one, one such thread at --workers 1; no output
depends on it.

Exit codes: 0 success, 2 validation error (among them --workers outside
1..64), 3 threshold failure under --strict.
A --config file of flat key=value lines, keyed by the subcommand's long
options, overrides flags; DIRICHLET_MC_SEED overrides the seed from either.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import re
import sys
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .estimators import ESTIMATORS, get_estimator, run_estimator, z_score
from .scenarios import SCENARIOS, at_points, get_scenario
from .sweeps import (
    IDENTITY_Z_THRESHOLD,
    VARIANCE_ESTIMATOR,
    CompareRow,
    SweepConfig,
    SweepRow,
    compare_estimators,
    run_bias_sweep,
    run_identity_suite,
    run_variance_sweep,
)

# strict-mode windows for the fitted convergence orders: a kernel's bias order ± 0.3
BIAS_SLOPE_WINDOWS = {name: (e.bias_order - 0.3, e.bias_order + 0.3)
                      for name, e in ESTIMATORS.items() if e.kernel}
VARIANCE_SLOPE_WINDOW = (-0.65, -0.35)
VARIANCE_CONSTANT_RTOL = 0.05

EXIT_OK, EXIT_VALIDATION, EXIT_THRESHOLD = 0, 2, 3

# the largest sample count an array can index
MAX_SAMPLES = np.iinfo(np.intp).max
# each worker is a pool thread, started as chunks are submitted: a count far
# above the cores buys no speed and, with many chunks, asks for that many threads
MAX_WORKERS = 64


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path: Optional[str], header: Sequence[str], rows: Sequence[Sequence]) -> None:
    text = ",".join(header) + "\n" + "".join(
        ",".join(_fmt(c) for c in row) + "\n" for row in rows
    )
    if path:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_records(path: Optional[str], cls, records) -> None:
    """CSV of dataclass records: the header is cls's field names in order."""
    names = [f.name for f in dataclasses.fields(cls)]
    _write_csv(path, names, [[getattr(r, name) for name in names] for r in records])


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    return out


def _apply_overrides(args: argparse.Namespace) -> None:
    """Config file beats flags; DIRICHLET_MC_SEED beats both.  A config key
    is a long option of the running subcommand (dashes or underscores), is
    converted as the flag would be, and is never --config itself, which
    has been read by then.  The resolved worker count must lie in
    1..MAX_WORKERS."""
    if getattr(args, "config", None):
        for key, val in _load_config(args.config).items():
            action = args.options.get(key.replace("-", "_"))
            if action is None or action.dest == "config":
                raise ValueError(f"config key {key!r} is not an option of {args.command}")
            if action.nargs == 0:  # a switch such as --strict
                setattr(args, action.dest, val.lower() in ("1", "true", "yes", "on"))
                continue
            try:
                setattr(args, action.dest, action.type(val) if action.type else val)
            except ValueError:
                raise ValueError(f"config key {key!r}: cannot parse {val!r}") from None
    env_seed = os.environ.get("DIRICHLET_MC_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            raise ValueError(f"DIRICHLET_MC_SEED={env_seed!r} is not an integer") from None
    if not 1 <= getattr(args, "workers", 1) <= MAX_WORKERS:
        raise ValueError(f"--workers must be in 1..{MAX_WORKERS}, got {args.workers}")


def _items(args, name: str) -> Optional[list[str]]:
    """The comma or space separated values of --name; None when it is left
    out, an error when it is given with none."""
    text = getattr(args, name, None)
    items = None if text is None else text.replace(",", " ").split()
    if items == []:
        raise ValueError(f"--{name} is empty; give at least one value or leave it out")
    return items


def _numbers(args, name: str, default: tuple[float, ...]) -> tuple[float, ...]:
    items = _items(args, name)
    try:
        return tuple(default) if items is None else tuple(float(t) for t in items)
    except ValueError:
        raise ValueError(f"cannot parse --{name} {getattr(args, name)!r} as numbers") from None


def _resolve(args, default_epsilons: tuple[float, ...] = ()):
    """The scenario, query points (default: the scenario's) and ε list of a run."""
    sc = get_scenario(args.scenario)
    return sc, _numbers(args, "points", sc.default_points), _numbers(
        args, "epsilons", default_epsilons)


def _sample_counts(args) -> list[int]:
    """--samples as counts in 1..MAX_SAMPLES, the one parser of every
    sampling command.  A count is an integer, or a float literal ('1e4')
    with an integral value below 2**53, where a float spells exactly one
    integer; a fraction is an error, never truncated."""
    counts = []
    for text in _items(args, "samples"):
        try:
            value = int(text) if text.lstrip("+-").isdigit() else float(text)
        except ValueError:
            value = math.nan
        if isinstance(value, float) and not (value.is_integer() and abs(value) < 2**53):
            raise ValueError(
                f"--samples must be integers or integral floats below 2**53, got {text!r}")
        if value < 1:
            raise ValueError(f"--samples must be positive, got {text}")
        if value > MAX_SAMPLES:
            raise ValueError(f"--samples must be at most {MAX_SAMPLES}, got {text}")
        counts.append(int(value))
    return counts


def _sample_count(args, quadrature: bool = False) -> int | str:
    """The one sample count of a run; the sweeps also take 'quadrature'."""
    if quadrature and args.samples == "quadrature":
        return "quadrature"
    counts = _sample_counts(args)
    if len(counts) > 1:
        raise ValueError(f"{args.command} takes one --samples count, got {args.samples!r}")
    return counts[0]


# -- subcommands -------------------------------------------------------------

def _cmd_list_scenarios(args) -> int:
    for name in sorted(SCENARIOS):
        sc = SCENARIOS[name]
        extras = []
        if sc.exact_density is not None:
            extras.append("exact density")
        if sc.has_reduced_form:
            extras.append("reduced form")
        if sc.cond_oracle is not None:
            extras.append("conditional oracle")
        tail = f" [{', '.join(extras)}]" if extras else ""
        print(f"{name:16s} {sc.description}{tail}")
    return EXIT_OK


def _cmd_density(args) -> int:
    sc, points, eps_list = _resolve(args)
    n = _sample_count(args)
    stream = sc.stream(n, args.seed, args.workers)
    ests = run_estimator(args.estimator, stream, min(eps_list, default=None), list(points),
                         sc.name)

    # a density is checked against the exact density, conditional's
    # E[G | X = x] against the conditional oracle
    ref_fn = sc.exact_density if get_estimator(args.estimator).density else sc.cond_oracle
    refs = at_points(ref_fn, points) if ref_fn is not None else [None] * len(ests)
    rows = [(e.x, e.value, e.std_error, ref) for e, ref in zip(ests, refs)]
    # |z| per point against its reference; at a point without one, NaN for
    # a non-finite estimate or error and 0 otherwise.  A NaN (a NaN
    # reference or estimate, an infinite error) ranks above every number
    # and fails --strict
    zs = [(abs(z_score(value - ref, se)) if ref is not None
           else 0.0 if math.isfinite(value) and math.isfinite(se) else math.nan, x)
          for x, value, se, ref in rows]
    worst_z, worst_x = max(zs, key=lambda zx: (math.isnan(zx[0]), zx[0]), default=(0.0, None))
    used = min(e.n_used for e in ests)

    _write_csv(args.out, ("x", "estimate", "std_error", "reference"), rows)
    print(
        f"density {sc.name}/{args.estimator}: n={n} kept={stream.n} "
        f"dropped={stream.invalid_count} excluded={stream.n - used} points={len(points)} "
        + (f"worst |estimate-reference|/se = {worst_z:.2f}" if ref_fn is not None
           else "(no reference)")
    )
    if args.strict and not worst_z <= 4.0:
        if ref_fn is None:
            print(f"STRICT: at x = {worst_x!r} the estimate or its standard error is not finite")
        else:
            print(f"STRICT: at x = {worst_x!r} the estimate deviates {worst_z:.2f} standard "
                  "errors (> 4 or not a number) from reference")
        return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_sweep(args) -> int:
    """sweep-bias and sweep-variance: one config, the sweep CSV and one
    summary line; only the strict checks differ."""
    bias = args.command == "sweep-bias"
    sc, points, eps = _resolve(
        args, (0.2, 0.1, 0.05, 0.025) if bias else (0.01, 10**-2.5, 0.001))
    cfg = SweepConfig(
        scenario=sc.name, estimator=args.estimator if bias else VARIANCE_ESTIMATOR, epsilons=eps,
        sample_size=_sample_count(args, quadrature=True), query_points=points,
        seed=args.seed, workers=args.workers,
    )
    failed = []
    if bias:
        res = run_bias_sweep(cfg)
        lo, hi = BIAS_SLOPE_WINDOWS[cfg.estimator]
        lines = [f"notice: {note}" for note in res.notices]
        summary = f"fitted order {res.slope:.3f} over {len(res.fit_points)} epsilons"
    else:
        res = run_variance_sweep(cfg)
        lo, hi = VARIANCE_SLOPE_WINDOW
        rel = abs(res.constant - res.constant_reference) / res.constant_reference
        lines = []
        summary = (f"log-variance slope {res.slope:.3f}; smallest-epsilon constant "
                   f"{res.constant:.6f} vs {res.constant_reference:.6f} ({100 * rel:.2f}% off)")
        if rel > VARIANCE_CONSTANT_RTOL:
            failed.append(
                f"constant off by {100 * rel:.2f}% (> {100 * VARIANCE_CONSTANT_RTOL:.0f}%)")
    if not lo <= res.slope <= hi:
        failed.insert(0, f"slope {res.slope:.3f} outside [{lo}, {hi}]")
    _write_records(args.out, SweepRow, res.rows)
    lines.append(f"{args.command} {sc.name}/{cfg.estimator}: {summary}")
    if args.strict:
        lines += [f"STRICT: {msg}" for msg in failed]
    print("\n".join(lines))
    return EXIT_THRESHOLD if args.strict and failed else EXIT_OK


def _cmd_check_identities(args) -> int:
    sc, _, _ = _resolve(args)
    n = _sample_count(args)
    rep = run_identity_suite(sc.name, n, args.seed, args.workers, corrupt_a=args.corrupt_a)
    rows = [
        (rep.scenario, check, rep.n, z, IDENTITY_Z_THRESHOLD, abs(z) <= IDENTITY_Z_THRESHOLD)
        for check, z in rep.z_scores.items()
    ]
    _write_csv(args.out, ("scenario", "check", "n", "statistic", "threshold", "passed"), rows)
    verdict = "pass" if rep.passed else "FAIL"
    worst = float(np.max(np.abs(list(rep.z_scores.values()))))  # NaN if any z is
    print(f"identity suite {sc.name}: {verdict} (worst |z| = {worst:.2f}, n = {n})")
    return EXIT_THRESHOLD if args.strict and not rep.passed else EXIT_OK


def _cmd_compare(args) -> int:
    sc, points, eps = _resolve(args, (0.2, 0.1, 0.05, 0.025))
    estimators = _items(args, "estimators")
    rows = compare_estimators(
        sc.name, estimators, _sample_counts(args), eps, points, args.seed, args.workers
    )
    _write_records(args.out, CompareRow, rows)
    print(f"compare {sc.name}: {len(rows)} rows over estimators {', '.join(estimators)}")
    return EXIT_OK


# -- argument plumbing --------------------------------------------------------

def _command(sub, name: str, handler, help: str, *options: tuple[str, dict]) -> None:
    """Subcommand name reading exactly options, (flag, add_argument keywords)
    pairs; options maps each dest to its action for the config file."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    actions = [p.add_argument(flag, **kw) for flag, kw in options]
    p.set_defaults(handler=handler, options={a.dest: a for a in actions})


@lru_cache(maxsize=1)  # parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichlet-mc", allow_abbrev=False,
        description="density estimation benchmarks driven by simulated (X, Γ[X], A[X])",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = ("--scenario", dict(default="gaussian"))
    epsilons = ("--epsilons", dict(help="comma separated, decreasing"))
    points = ("--points", dict(help="query points, comma separated (default: the scenario's)"))
    run = (("--seed", dict(type=int, default=0)),
           ("--workers", dict(type=int, default=1)),
           ("--out", dict(help="CSV output path (default: stdout)")),
           ("--config", dict(help="key=value file overriding flags")))
    strict = ("--strict", dict(action="store_true",
                               help="exit 3 when an acceptance threshold fails"))
    count = ("--samples", dict(default="100000", help="sample count"))
    sweep_count = ("--samples", dict(default="quadrature",
                                     help="sample count, or 'quadrature' for noise-free sweeps"))

    _command(sub, "list-scenarios", _cmd_list_scenarios, "list built-in scenarios")
    _command(sub, "density", _cmd_density, "run one estimator at query points",
             scenario, ("--estimator", dict(default="direct", help=", ".join(ESTIMATORS))),
             epsilons, points, count, *run, strict)
    _command(sub, "sweep-bias", _cmd_sweep, "bias vs epsilon with fitted order",
             scenario, ("--estimator", dict(default="shifted", help=", ".join(BIAS_SLOPE_WINDOWS))),
             epsilons, points, sweep_count, *run, strict)
    _command(sub, "sweep-variance", _cmd_sweep, "kernel variance scaling vs epsilon",
             scenario, epsilons, points, sweep_count, *run, strict)
    _command(sub, "check-identities", _cmd_check_identities, "z-scores of the exact identities",
             scenario, count, *run, strict,
             ("--corrupt-a", dict(type=float, default=0.0,
                                  help="shift A by a constant (negative control)")))
    _command(sub, "compare", _cmd_compare, "error table across estimators and sample sizes",
             scenario, ("--estimators", dict(default="shifted,plain_gamma,direct",
                                             help="comma separated; any density estimator")),
             epsilons, points,
             ("--samples", dict(default="1000,10000,100000", help="comma separated sample counts")),
             *run)
    return parser


# options whose values are number lists, which may start with '-'
_LIST_OPTIONS = ("--points", "--epsilons", "--samples")


def _glue_list_values(argv: Sequence[str]) -> list[str]:
    """Rewrite '--points -1,0,1' as '--points=-1,0,1'.

    argparse reads a token that starts with '-' and is not a plain number
    as an option, so a list of numbers starting with a negative one would
    otherwise be an error.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _LIST_OPTIONS and re.match(r"-\.?\d", tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(_glue_list_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalise other codes
        return EXIT_VALIDATION if exc.code not in (0,) else 0
    try:
        _apply_overrides(args)
        return args.handler(args)
    except ValueError as exc:
        # the one place a rejected input becomes exit 2: the command layer's own
        # checks and the library's (a non-finite query point, no usable samples)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:
        # the commands that hold a whole batch allocate it at once
        print("error: out of memory; lower --samples", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
