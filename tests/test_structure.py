"""The runtime package holds only what the CLI runs; the reference jet
calculus lives in tests/calculus.py, with its own coordinates, and imports
nothing from the package it checks."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dirichlet_mc"

RUNTIME_MODULES = {
    "dirichlet_mc", "dirichlet_mc.cli", "dirichlet_mc.coords", "dirichlet_mc.estimators",
    "dirichlet_mc.poisson", "dirichlet_mc.quadrature", "dirichlet_mc.scenarios",
    "dirichlet_mc.streams", "dirichlet_mc.sweeps", "dirichlet_mc.wiener",
}


def test_cli_loads_exactly_the_runtime_modules():
    code = ("import sys, dirichlet_mc.cli\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'dirichlet_mc')))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == RUNTIME_MODULES
    on_disk = {"dirichlet_mc" if p.stem == "__init__" else f"dirichlet_mc.{p.stem}"
               for p in PACKAGE.glob("*.py")}
    assert on_disk == RUNTIME_MODULES and len(on_disk) == 10


def test_oracle_imports_none_of_the_code_it_checks():
    tree = ast.parse((TESTS / "calculus.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert not {m for m in imported if m.split(".")[0] == "dirichlet_mc"}
    # nor through the test helpers, which do import them
    assert not imported & {"oracles", "functionals"}


@pytest.mark.parametrize("workload", ["curve", "paths", "tables", "oracles"])
def test_benchmark_traces_every_workload(workload, tmp_path, monkeypatch):
    # the benchmark's tracer wraps package attributes by name, so a rename
    # in src/ breaks it; one small traced pass per workload notices
    monkeypatch.syspath_prepend(str(TESTS.parent / "perfbench"))
    import passes

    work = tmp_path / "ops"
    work.mkdir()
    result = passes.run_pass(workload, 5, 0.01, work, traced=True)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["problems"]
