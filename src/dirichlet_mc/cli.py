"""Command line interface: density runs, sweeps, identity checks, CSV out.

Subcommands

  list-scenarios   names and descriptions of the built-in scenarios
  density          one estimator at query points; CSV x,estimate,std_error,reference
  sweep-bias       bias vs ε with fitted order; CSV epsilon,n,x,estimate,reference,abs_error,std_error
  sweep-variance   ε^{1/2}·variance vs ε with fitted order; same sweep CSV
  check-identities z-scores of the exact identities; CSV scenario,check,n,statistic,threshold,passed
  compare          error table across estimators and sample sizes;
                   CSV estimator,epsilon,n,x,estimate,reference,abs_error,std_error

Estimator names come from the one table estimators.ESTIMATORS: density
takes all seven, compare all but conditional (not a density), sweep-bias
the three kernels.

Exit codes: 0 success, 2 validation error, 3 threshold failure under --strict.
A --config file of flat key=value lines overrides flags; the environment
variable DIRICHLET_MC_SEED overrides the seed from either source.
"""
from __future__ import annotations

import argparse
import math
import os
import re
import sys
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .estimators import ESTIMATORS, NoUsableSamplesError, get_estimator, run_estimator
from .scenarios import SCENARIOS, get_scenario
from .sweeps import (
    SweepConfig,
    compare_estimators,
    run_bias_sweep,
    run_identity_suite,
    run_variance_sweep,
)

# strict-mode windows for the fitted convergence orders
BIAS_SLOPE_WINDOWS = {
    "shifted": (1.7, 2.3),
    "plain_gamma": (0.7, 1.3),
    "plain_id": (0.7, 1.3),
}
VARIANCE_SLOPE_WINDOW = (-0.65, -0.35)
VARIANCE_CONSTANT_RTOL = 0.05

EXIT_OK, EXIT_VALIDATION, EXIT_THRESHOLD = 0, 2, 3


class ValidationError(Exception):
    pass


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


def _parse_floats(text: str) -> tuple[float, ...]:
    items = [t for t in text.replace(",", " ").split() if t]
    try:
        return tuple(float(t) for t in items)
    except ValueError:
        raise ValidationError(f"cannot parse {text!r} as a list of numbers") from None


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, val = line.split("=", 1)
                out[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from None
    return out


def _apply_overrides(args: argparse.Namespace) -> None:
    """Config file beats flags; DIRICHLET_MC_SEED beats both.  The resolved
    worker count must be at least 1."""
    if getattr(args, "config", None):
        overrides = _load_config(args.config)
        for key, val in overrides.items():
            if not hasattr(args, key):
                raise ValidationError(f"unknown config key {key!r}")
            current = getattr(args, key)
            try:
                if isinstance(current, bool):
                    setattr(args, key, val.lower() in ("1", "true", "yes", "on"))
                elif isinstance(current, int):
                    setattr(args, key, int(val))
                elif isinstance(current, float):
                    setattr(args, key, float(val))
                else:
                    setattr(args, key, val)
            except ValueError:
                raise ValidationError(f"config key {key!r}: cannot parse {val!r}") from None
    env_seed = os.environ.get("DIRICHLET_MC_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            raise ValidationError(
                f"DIRICHLET_MC_SEED={env_seed!r} is not an integer"
            ) from None
    if getattr(args, "workers", 1) < 1:
        raise ValidationError(f"--workers must be at least 1, got {args.workers}")


def _scenario_or_fail(name: str):
    try:
        return get_scenario(name)
    except KeyError as exc:
        raise ValidationError(str(exc)) from None


def _epsilons(args, default: tuple[float, ...]) -> tuple[float, ...]:
    if args.epsilons:
        return _parse_floats(args.epsilons)
    return default


def _points(args, scenario) -> tuple[float, ...]:
    if args.points:
        return _parse_floats(args.points)
    return scenario.default_points


def _samples(args) -> int | str:
    if args.samples == "quadrature":
        return "quadrature"
    try:
        n = int(args.samples)
    except ValueError:
        raise ValidationError(
            f"--samples must be an integer or 'quadrature', got {args.samples!r}"
        ) from None
    if n < 1:
        raise ValidationError(f"--samples must be positive, got {n}")
    return n


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
    sc = _scenario_or_fail(args.scenario)
    entry = get_estimator(args.estimator)
    n = _samples(args)
    if n == "quadrature":
        raise ValidationError("density runs are Monte Carlo; give --samples N")
    points = _points(args, sc)
    eps_list = _epsilons(args, ())
    epsilon = min(eps_list) if eps_list else None
    if entry.takes_epsilon and epsilon is None:
        raise ValidationError(f"estimator {args.estimator!r} needs --epsilons")
    stream = sc.stream(n, args.seed, args.workers)
    ests = run_estimator(args.estimator, stream, epsilon, list(points), sc.name)

    # conditional rows hold the ratio E[G | X = x] against the conditional oracle
    ref_fn = sc.exact_density
    conditional = args.estimator == "conditional"
    if conditional:
        rows = [(ce.x, ce.ratio, ce.ratio_std_error,
                 sc.cond_oracle(ce.x) if sc.cond_oracle is not None else None) for ce in ests]
    else:
        refs = ref_fn(np.array([e.x for e in ests])) if ref_fn is not None else [None] * len(ests)
        rows = [(e.x, e.value, e.std_error, None if ref is None else float(ref))
                for e, ref in zip(ests, refs)]
    worst_z = 0.0
    for _, value, se, ref in rows:
        if ref is not None and se > 0:
            worst_z = max(worst_z, abs(value - ref) / se)
    used = min(ce.numerator.n_used if conditional else ce.n_used for ce in ests)

    _write_csv(args.out, ("x", "estimate", "std_error", "reference"), rows)
    print(
        f"density {sc.name}/{args.estimator}: n={n} kept={stream.n} "
        f"dropped={stream.invalid_count} excluded={stream.n - used} points={len(points)} "
        + (f"worst |estimate-reference|/se = {worst_z:.2f}"
           if ref_fn is not None or conditional else "(no reference)")
    )
    if args.strict and worst_z > 4.0:
        print(f"STRICT: estimate deviates {worst_z:.2f} standard errors (> 4) from reference")
        return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_sweep_bias(args) -> int:
    sc = _scenario_or_fail(args.scenario)
    eps = _epsilons(args, (0.2, 0.1, 0.05, 0.025))
    try:
        cfg = SweepConfig(
            scenario=sc.name, estimator=args.estimator, epsilons=eps,
            sample_size=_samples(args), query_points=_points(args, sc),
            seed=args.seed, workers=args.workers,
        )
        res = run_bias_sweep(cfg)
    except (ValueError, KeyError) as exc:
        raise ValidationError(str(exc)) from None
    _write_csv(
        args.out,
        ("epsilon", "n", "x", "estimate", "reference", "abs_error", "std_error"),
        [(r.epsilon, r.n, r.x, r.estimate, r.reference, r.abs_error, r.std_error) for r in res.rows],
    )
    for note in res.notices:
        print(f"notice: {note}")
    print(f"bias sweep {sc.name}/{args.estimator}: fitted order {res.slope:.3f} "
          f"over {len(res.fit_points)} epsilons")
    if args.strict:
        lo, hi = BIAS_SLOPE_WINDOWS[args.estimator]
        if not lo <= res.slope <= hi:
            print(f"STRICT: slope {res.slope:.3f} outside [{lo}, {hi}]")
            return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_sweep_variance(args) -> int:
    sc = _scenario_or_fail(args.scenario)
    eps = _epsilons(args, (0.01, 10**-2.5, 0.001))
    try:
        cfg = SweepConfig(
            scenario=sc.name, estimator="shifted", epsilons=eps,
            sample_size=_samples(args), query_points=_points(args, sc),
            seed=args.seed, workers=args.workers,
        )
        res = run_variance_sweep(cfg)
    except (ValueError, KeyError) as exc:
        raise ValidationError(str(exc)) from None
    _write_csv(
        args.out,
        ("epsilon", "n", "x", "estimate", "reference", "abs_error", "std_error"),
        [(r.epsilon, r.n, r.x, r.estimate, r.reference, r.abs_error, r.std_error) for r in res.rows],
    )
    rel = abs(res.constant - res.constant_reference) / res.constant_reference
    print(
        f"variance sweep {sc.name}: log-variance slope {res.slope:.3f}; "
        f"smallest-epsilon constant {res.constant:.6f} vs {res.constant_reference:.6f} "
        f"({100 * rel:.2f}% off)"
    )
    if args.strict:
        lo, hi = VARIANCE_SLOPE_WINDOW
        if not lo <= res.slope <= hi:
            print(f"STRICT: slope {res.slope:.3f} outside [{lo}, {hi}]")
            return EXIT_THRESHOLD
        if rel > VARIANCE_CONSTANT_RTOL:
            print(f"STRICT: constant off by {100 * rel:.2f}% (> {100 * VARIANCE_CONSTANT_RTOL:.0f}%)")
            return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_check_identities(args) -> int:
    sc = _scenario_or_fail(args.scenario)
    n = _samples(args)
    if n == "quadrature":
        raise ValidationError("identity checks are Monte Carlo; give --samples N")
    try:
        rep = run_identity_suite(
            sc.name, n, args.seed, args.workers, corrupt_a=args.corrupt_a
        )
    except (ValueError, NoUsableSamplesError) as exc:
        raise ValidationError(str(exc)) from None
    rows = [
        (rep.scenario, check, rep.n, z, rep.threshold, abs(z) <= rep.threshold)
        for check, z in rep.z_scores.items()
    ]
    _write_csv(args.out, ("scenario", "check", "n", "statistic", "threshold", "passed"), rows)
    verdict = "pass" if rep.passed else "FAIL"
    worst = max(abs(z) for z in rep.z_scores.values())
    print(f"identity suite {sc.name}: {verdict} (worst |z| = {worst:.2f}, n = {n})")
    if args.strict and not rep.passed:
        return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_compare(args) -> int:
    sc = _scenario_or_fail(args.scenario)
    estimators = [e for e in args.estimators.split(",") if e]
    sizes = _parse_floats(args.samples)
    if not all(math.isfinite(v) and v >= 1 for v in sizes):
        raise ValidationError(f"--samples must be positive sample counts, got {args.samples!r}")
    sizes = [int(v) for v in sizes]
    eps = _epsilons(args, (0.2, 0.1, 0.05, 0.025))
    try:
        rows = compare_estimators(
            sc.name, estimators, sizes, eps, _points(args, sc), args.seed, args.workers
        )
    except (ValueError, KeyError) as exc:
        raise ValidationError(str(exc)) from None
    _write_csv(
        args.out,
        ("estimator", "epsilon", "n", "x", "estimate", "reference", "abs_error", "std_error"),
        [(r.estimator, r.epsilon, r.n, r.x, r.estimate, r.reference, r.abs_error, r.std_error)
         for r in rows],
    )
    print(f"compare {sc.name}: {len(rows)} rows over estimators {', '.join(estimators)}")
    return EXIT_OK


# -- argument plumbing --------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, samples_default: str = "100000") -> None:
    p.add_argument("--scenario", default="gaussian")
    p.add_argument("--epsilons", "--epsilon", dest="epsilons", default="",
                   help="comma separated, decreasing")
    p.add_argument("--samples", default=samples_default,
                   help="sample count, or 'quadrature' for noise-free sweeps")
    p.add_argument("--points", default="", help="query points, comma separated")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--config", default=None, help="key=value file overriding flags")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when an acceptance threshold fails")


@lru_cache(maxsize=1)  # parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichlet-mc",
        description="density estimation benchmarks driven by simulated (X, Γ[X], A[X])",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-scenarios", help="list built-in scenarios")

    p = sub.add_parser("density", help="run one estimator at query points")
    _add_common(p)
    p.add_argument("--estimator", default="direct", help=", ".join(ESTIMATORS))

    p = sub.add_parser("sweep-bias", help="bias vs epsilon with fitted order")
    _add_common(p, samples_default="quadrature")
    p.add_argument("--estimator", default="shifted", help=", ".join(BIAS_SLOPE_WINDOWS))

    p = sub.add_parser("sweep-variance", help="kernel variance scaling vs epsilon")
    _add_common(p, samples_default="quadrature")

    p = sub.add_parser("check-identities", help="z-scores of the exact identities")
    _add_common(p)
    p.add_argument("--corrupt-a", dest="corrupt_a", type=float, default=0.0,
                   help="shift A by a constant (negative control)")

    p = sub.add_parser("compare", help="error table across estimators and sample sizes")
    _add_common(p, samples_default="1000,10000,100000")
    p.add_argument("--estimators", default="shifted,plain_gamma,direct",
                   help="comma separated; any estimator but conditional")

    return parser


_DISPATCH = {
    "list-scenarios": _cmd_list_scenarios,
    "density": _cmd_density,
    "sweep-bias": _cmd_sweep_bias,
    "sweep-variance": _cmd_sweep_variance,
    "check-identities": _cmd_check_identities,
    "compare": _cmd_compare,
}


# options whose values are number lists, which may start with '-'
_LIST_OPTIONS = ("--points", "--epsilons", "--epsilon", "--samples")


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
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_list_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalise other codes
        return EXIT_VALIDATION if exc.code not in (0,) else 0
    try:
        _apply_overrides(args)
        return _DISPATCH[args.command](args)
    except (ValidationError, ValueError) as exc:
        # estimators raise ValueError for inputs they cannot use (a
        # non-finite query point, no usable samples)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
