"""Import weight: `import chaoskit` loads numpy and the bare scipy package only.

scipy's submodules pull in scipy.special, numpy.f2py, numpy.ma and more, which
costs most of a process's start-up time and tens of MB. The package reads
scipy's version for env.json and nothing else. concurrent.futures (about 5 ms
of import) is listed too: the suite runner fans its checks out over a
multiprocessing pool, which does not need it. A fresh interpreter imports
chaoskit, then draws an ensemble, runs a chain integral and one suite; none of
the heavy modules may be loaded at import, and none of them, nor any
numpy.random submodule, may first be loaded by the work after it (numpy
imports some modules lazily, at first use). Import builds no cached table:
none of the index tables, of the Fock kernels' tables (the divergence plan
and the level shapes included), of the chaos routes' plans or of the suites'
draw plans. Each table is listed at its one owner. No wall-clock time is
asserted.

The package's modules import each other without a cycle, function-local
imports included.
"""
import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import chaoskit
from test_suites import SMALL

HEAVY = (
    "scipy.integrate",
    "scipy.special",
    "scipy.optimize",
    "scipy.sparse",
    "scipy.linalg",
    "numpy.f2py",
    "numpy.ma",
    "concurrent.futures",
)

PROBE = """
import json, sys
import chaoskit
loaded = set(sys.modules)
from chaoskit import chaos, fock, indices, suites
# each cached table at its one owner
OWNERS = {
    indices: ("occ_array", "lower_maps", "raise_maps", "factorial_ratio_sqrt",
              "multiplicities", "_pascal", "_pascal_exact"),
    fock: ("_fold_plan", "_raise_stack", "_divergence_plan", "_level_shapes",
           "_split_positions", "_merge_positions"),
    chaos: ("_occupation_plan", "_symmetrize_scale"),
    suites: ("_draw_plan",),
}
tables = {
    f"{module.__name__}.{name}": getattr(module, name).cache_info().currsize
    for module, names in OWNERS.items()
    for name in names
}
import numpy as np
from chaoskit.config import RunConfig
from chaoskit.integrals import iterated_chain
from chaoskit.levy import CellGrid, StepField, sample_ensemble
from chaoskit.suites import run_suite

cfg = RunConfig(suite="sim", **json.loads(sys.argv[1]))
model = cfg.mixed_model()
grid = CellGrid(model, 8)
bins = {b: np.full(8, 0.5) for b in range(1, grid.n_bins)}
field = StepField.from_columns(grid, diffusion=np.full(8, 0.5), bins=bins)
ens = sample_ensemble(model, grid, seed=3, n_paths=50)
assert ens.jump_times.size > 0
iterated_chain([field, field], ens)
run_suite(cfg)
run = sorted(set(sys.modules) - loaded)
print(json.dumps({"import": sorted(loaded), "run": run, "tables": tables}))
"""


def _is_under(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


@pytest.fixture(scope="module")
def probe() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(chaoskit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(SMALL)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_and_work_load_no_heavy_module(probe):
    at_import = probe["import"]
    assert "scipy" in at_import
    assert [m for m in at_import if any(_is_under(m, h) for h in HEAVY)] == []
    late = [
        m
        for m in probe["run"]
        if any(_is_under(m, h) for h in HEAVY) or m.startswith("numpy.random.")
    ]
    assert late == []


def test_import_builds_no_fold_plan_or_raising_table(probe):
    # the index tables, the Fock kernels' tables and the chaos routes' plans
    # are built on first use, in the process that uses them (each pool worker
    # builds its own)
    assert len(probe["tables"]) == 16
    assert probe["tables"] == dict.fromkeys(probe["tables"], 0)


def test_every_exported_name_resolves():
    # a removed name must not linger in an __all__
    modules = [chaoskit] + [
        importlib.import_module(f"chaoskit.{info.name}")
        for info in pkgutil.iter_modules(chaoskit.__path__)
    ]
    for module in modules:
        exported = getattr(module, "__all__", [])
        assert len(set(exported)) == len(exported), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert missing == [], module.__name__
    assert len(modules) > 10


def _relative_imports(path: Path) -> set[str]:
    """Sibling modules a source file imports, at any depth of its body."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x, y
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def test_module_imports_form_no_cycle():
    package = Path(chaoskit.__file__).parent
    graph = {path.stem: _relative_imports(path) for path in package.glob("*.py")}
    assert "indices" in graph.get("fock", ()), "the parse found no relative import"
    # depth-first search; a grey node met again closes a cycle
    state: dict[str, str] = {}

    def visit(module: str, trail: list[str]):
        state[module] = "grey"
        for dep in sorted(graph.get(module, ())):
            if state.get(dep) == "grey":
                cycle = trail[trail.index(dep):] + [dep]
                raise AssertionError("import cycle: " + " -> ".join(cycle))
            if dep not in state:
                visit(dep, trail + [dep])
        state[module] = "black"

    for module in sorted(graph):
        if module not in state:
            visit(module, [module])
