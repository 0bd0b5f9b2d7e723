"""The package's exports: one table, read lazily (PEP 562), and what each
import loads in a fresh interpreter."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cuspgrowth

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

EXPORTS = [
    "AbelianHom", "BaseSpace", "CTowerLevel", "ContractionPartition", "CuspData",
    "CuspGrowthError", "DEFAULT_BRUTE_CAP", "DTowerDatum", "ExponentFit", "FibrationData",
    "FiniteAbelianGroup", "GroupFamily", "GroupOrder", "HIRZEBRUCH", "IntMatrix", "IntStatus",
    "IntVerdict", "LevelReport", "Method", "PairWitness", "ResourceLimitError",
    "SmithDecomposition", "TowerReport", "TowerSpec", "ValidationError", "WeightTuple",
    "a_tower_report", "analyze_level", "analyze_tower", "b1_bound_for", "b_tower_report",
    "brute_force_order", "build_a_tower",
    "build_b_tower", "c_tower_report", "check_int", "cokernel", "contract",
    "cusp_index_proxy", "d_tower_columns", "d_tower_series", "enumerate_tuples",
    "exponent_checks", "find_contraction", "fit_exponent", "image_index", "is_surjective",
    "kernel_contains", "match_verdict", "primes_in_range", "psl2_order", "sl2_order",
    "sl_order", "smith_normal_form", "su_order", "u_order", "unitriangular_u_order",
]


def fresh(code: str) -> str:
    """The stdout of `code` run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(statement: str) -> set[str]:
    """The cuspgrowth modules a new interpreter holds after `statement`."""
    out = fresh(f"import sys\n{statement}\n"
                "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'cuspgrowth'))")
    return set(out.split())


def test_all_is_unchanged():
    assert cuspgrowth.__all__ == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_every_name_imports(name):
    namespace = {}
    exec(f"from cuspgrowth import {name}", namespace)
    assert namespace[name] is getattr(cuspgrowth, name)


def test_star_imports_every_name():
    namespace = {}
    exec("from cuspgrowth import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        cuspgrowth.nope
    with pytest.raises(ImportError):
        exec("from cuspgrowth import nope", {})


@pytest.mark.parametrize("statement, modules", [
    ("from cuspgrowth import WeightTuple",
     {"cuspgrowth", "cuspgrowth.errors", "cuspgrowth.values", "cuspgrowth.weights"}),
    ("from cuspgrowth import build_a_tower",
     {"cuspgrowth", "cuspgrowth.errors", "cuspgrowth.lattice", "cuspgrowth.primes",
      "cuspgrowth.towers", "cuspgrowth.values"}),
], ids=["WeightTuple", "build_a_tower"])
def test_a_name_loads_only_its_modules(statement, modules):
    assert loaded_after(statement) == modules


def test_cli_loads_every_traced_layer():
    """`bench/tracing.py` looks up each layer of its `LAYERS` table, and each
    module of `COUNTED`, in `sys.modules` right after `import cuspgrowth.cli`."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    tables = {target.id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name) and target.id in ("LAYERS", "COUNTED")}
    wanted = {layer: list(names) for layer, names in tables["LAYERS"].items()}
    for layer, name in tables["COUNTED"]:
        wanted.setdefault(layer, []).append(name)
    missing = fresh(
        "import json, sys\nimport cuspgrowth.cli\n"
        f"wanted = json.loads({json.dumps(json.dumps(wanted))})\n"
        "print(json.dumps([f'{layer}.{name}' for layer, names in wanted.items()\n"
        "                  for name in names\n"
        "                  if not hasattr(sys.modules.get(f'cuspgrowth.{layer}'), name)]))")
    assert json.loads(missing) == []


#: Modules whose import the package's records no longer pay for.
NOT_AT_START_UP = ("dataclasses", "inspect")


def test_importing_the_cli_loads_no_dataclass_machinery():
    out = fresh("import sys\nimport cuspgrowth.cli\n"
                f"print(' '.join(m for m in {NOT_AT_START_UP!r} if m in sys.modules))")
    assert out.split() == []


def test_a_cli_run_loads_no_dataclass_machinery():
    """`-X importtime` names, on stderr, every module a `python -m cuspgrowth`
    run imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "cuspgrowth", "dm", "check",
                           "--tuple", "2/6,2/6,3/6,4/6,1/6"],
                          capture_output=True, text=True, timeout=60,
                          cwd=Path(cuspgrowth.__file__).parent.parent)
    assert proc.returncode == 0 and "verdict: INT" in proc.stdout, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "cuspgrowth.cli" in imported
    assert imported.isdisjoint(NOT_AT_START_UP)
