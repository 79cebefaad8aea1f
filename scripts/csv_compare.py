#!/usr/bin/env python3
"""Compare the CSVs of the csv_digest commands of two trees, cell by cell.

    PYTHONPATH=src python scripts/csv_compare.py /path/to/other/src

Each tree runs every command of csv_digest.commands() at `--workers 1`
in a subprocess of its own, with its src first on the path; the digest
pins that the CSVs do not depend on the worker count.  For every tag
whose exit code or CSV differs, one line reads

    <tag>: exit <other> -> <this>, <moved> of <cells> cells moved, max |Δ|/|estimate| <r>

where r is the largest difference of a moved cell relative to its row's
estimate (the `estimate` column, or `statistic` for check-identities),
inf where a moved cell is not a number or the estimate is 0, and the
CSVs' shape is named instead when the two differ in it.  A last line
counts the commands that differ.  The library lines of csv_digest (the
d ≥ 2 kernels, masses and moments) are not CSVs; diff its output for them.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
THIS_SRC = os.path.join(os.path.dirname(HERE), "src")


def dump() -> None:
    """Print {tag: [exit code, CSV text or null]} of every csv_digest
    command as JSON; run in a child whose path picks the tree."""
    import csv_digest

    got = {}
    with tempfile.TemporaryDirectory() as workdir:
        for tag, argv in csv_digest.commands().items():
            rc, text = csv_digest.run_command(argv + ["--workers", "1"], workdir)
            got[tag] = [rc, None if text is None else text.decode("ascii")]
    json.dump(got, sys.stdout)


def _run(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.abspath(src), HERE]))
    child = subprocess.run([sys.executable, "-c", "import csv_compare; csv_compare.dump()"],
                           env=env, capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def cell_change(old: str, new: str) -> str:
    """How the CSV new differs from old: moved cells and the largest
    relative move, or the shape that differs."""
    a, b = (list(csv.reader(io.StringIO(t))) for t in (old, new))
    if a[0] != b[0] or [len(r) for r in a] != [len(r) for r in b]:
        return f"shape {len(a) - 1}x{len(a[0])} -> {len(b) - 1}x{len(b[0])}"
    col = next(i for i, name in enumerate(a[0]) if name in ("estimate", "statistic"))
    moved, cells, worst = 0, 0, 0.0
    for ra, rb in zip(a[1:], b[1:]):
        cells += len(ra)
        for ca, cb in zip(ra, rb):
            if ca == cb:
                continue
            moved += 1
            try:
                rel = abs(float(ca) - float(cb)) / abs(float(ra[col]))
            except (ValueError, ZeroDivisionError):
                rel = math.inf
            worst = max(worst, rel if math.isfinite(rel) else math.inf)
    return f"{moved} of {cells} cells moved, max |Δ|/|estimate| {worst:.3g}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    other, this = _run(argv[0]), _run(THIS_SRC)
    differ = 0
    for tag, (rc, text) in this.items():
        old_rc, old_text = other.get(tag, [None, None])
        if (old_rc, old_text) == (rc, text):
            continue
        differ += 1
        change = ("CSV written by one tree only" if (old_text is None) != (text is None)
                  else "" if text is None else cell_change(old_text, text))
        print(f"{tag}: exit {old_rc} -> {rc}" + (f", {change}" if change else ""))
    print(f"{differ} of {len(this)} commands differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
