"""Entry point of one child process of the benchmark.

    python3 perfbench/child.py setup
    python3 perfbench/child.py pass WORKLOAD SEED SCALE TRACE WORKDIR
    python3 perfbench/child.py invariance SEED SCALE WORKDIR

The first thing a child does is import `dirichlet_mc.cli` and build the
argument parser, timing it: that is the set-up cost every CLI process pays.
The child prints one JSON object as its last line of standard output.  It
expects to run from the root of a checkout with `src` on PYTHONPATH.
"""
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    from dirichlet_mc import cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0

    import json
    from pathlib import Path

    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"dirichlet_mc was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import passes

    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        cal = sorted(passes.calibrate() for _ in range(5))[2]
        result = {"setup_s": setup_s, "setup_norm_s": setup_s * passes.CAL_REF_S / cal,
                  "cal_s": cal}
    elif mode == "pass":
        workload, seed, scale, trace, workdir = args
        result = passes.run_pass(workload, int(seed), float(scale), Path(workdir), trace == "1")
    elif mode == "invariance":
        seed, scale, workdir = args
        result = passes.run_invariance(int(seed), float(scale), Path(workdir))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
