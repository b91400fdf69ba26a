"""The library names the benchmark hooks into.

The benchmark's tracer rebinds functions by (module, attribute) and its
workloads import from fbinv; a rename or deletion in the library would only
surface as a failed `--trace 1` run.  These checks read the benchmark's
sources as syntax trees, so they neither import nor change them.
"""

import ast
import importlib
import pathlib
import random

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


def test_normal_form_span_sees_buchberger_reductions(monkeypatch):
    """The `multipoly.normal_form` span counts the reductions inside Buchberger.

    The tracer rebinds `normal_form` in every fbinv module that holds it, so
    `ideals` must look the name up at call time; it reads `numerator` and
    `denominator` off every coefficient of each remainder.
    """
    from fbinv import ideals, multipoly, stability
    from fbinv.sampling import random_ar_system

    assert ideals.normal_form is multipoly.normal_form
    remainders = []

    def counted(*args, **kwargs):
        remainders.append(multipoly.normal_form(*args, **kwargs))
        return remainders[-1]

    monkeypatch.setattr(ideals, "normal_form", counted)
    ar = random_ar_system(random.Random(0), 3, 2, 4, row_degrees=[1, 3])
    stability.is_nondegenerate(ar)
    assert remainders
    coefficients = [c for rem in remainders for c in rem.terms.values()]
    assert coefficients
    for c in coefficients:
        assert isinstance(c.numerator, int) and isinstance(c.denominator, int) and c.denominator > 0
