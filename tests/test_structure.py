"""The runtime package holds only what the CLI runs; the reference jet
calculus lives in tests/calculus.py, with its own coordinates, and imports
nothing from the package it checks."""
import ast
import inspect
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


@pytest.mark.parametrize("module", ["cli.py", "sweeps.py"])
def test_command_layer_defers_to_the_owners(module):
    # the estimator table decides what an estimator is, and
    # scenarios.at_points evaluates every reference: neither module
    # compares with an estimator's name or calls an exact density itself
    from dirichlet_mc.estimators import ESTIMATORS

    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            literals = {n.value for part in (node.left, *node.comparators)
                        for n in ast.walk(part) if isinstance(n, ast.Constant)}
            assert not literals & set(ESTIMATORS), f"{module}:{node.lineno} compares a name"
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            assert called != "exact_density", f"{module}:{node.lineno} calls exact_density"


def test_every_closed_form_draw_has_a_calculus_case():
    # a draw that runs neither the Euler recursion nor the Poisson point
    # sums is a closed form, and test_scenarios re-derives it through the
    # jet calculus (the other two have their own oracles, in test_wiener
    # and test_poisson); a new closed-form scenario cannot skip the check
    from dirichlet_mc.scenarios import SCENARIOS
    from test_scenarios import CLOSED_FORMS

    def own_oracle(draw):
        names = set(draw.__code__.co_names)
        return bool(names & {"simulate_triple_batch", "sample_poisson_arrays"})

    closed = {name for name, sc in SCENARIOS.items() if not own_oracle(sc.draw)}
    assert closed == set(CLOSED_FORMS)


def test_estimators_take_only_what_run_estimator_passes():
    # run_estimator calls each estimator with (b, [epsilon,] xs[, variant]);
    # a further parameter would be an option only a library caller or a
    # test could set, which the program never reads
    from dirichlet_mc import estimators

    for name, entry in estimators.ESTIMATORS.items():
        params = list(inspect.signature(getattr(estimators, entry.function)).parameters)
        want = ["b", *(["epsilon"] if entry.takes_epsilon else []), "xs",
                *(["variant"] if entry.kernel and not entry.kernel[0] else [])]
        assert params == want, name


def test_only_iter_chunks_starts_threads():
    # streams.iter_chunks is the one pool loop: no other code in the
    # package names a thread, a pool or a process to start one
    spawners = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread", "Process", "Pool"}
    users = set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                if name in spawners:
                    users.add(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert users == {"streams.iter_chunks"}
