"""The library names the benchmark hooks into.

The benchmark's tracer rebinds functions by (module, attribute) and its
workloads import from fbinv; a rename or deletion in the library would only
surface as a failed `--trace 1` run.  These checks read the benchmark's
sources as syntax trees, so they neither import nor change them.
"""

import ast
import importlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).parent.parent / "bench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _traced_targets() -> list[tuple[str, str]]:
    for node in _tree("spans.py").body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts]
    raise AssertionError("bench/spans.py defines no TARGETS")


def _fbinv_imports() -> list[tuple[str, str | None]]:
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fbinv":
                found.extend((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.extend((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "fbinv")
    return found


@pytest.mark.parametrize("module, attribute", _traced_targets())
def test_traced_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def test_rref_is_a_method_of_ratmatrix():
    from fbinv.linalg import RatMatrix

    assert callable(RatMatrix.rref)


def test_benchmark_imports_from_fbinv_resolve():
    imports = _fbinv_imports()
    assert any(path for path, _ in imports)
    for module, name in imports:
        loaded = importlib.import_module(module)
        if name is not None:
            assert hasattr(loaded, name), f"{module}.{name}"
