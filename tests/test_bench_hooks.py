"""The benchmark's tracer hooks still name functions that exist in sgk.

bench/tracer.py wraps the functions in its FUNCTIONS table by module and
attribute name. A rename inside sgk would crash a traced benchmark run, so
the table is read here (parsed, not imported or changed) and every entry
is resolved against the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _table(name):
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


FUNCTIONS = _table("FUNCTIONS")


@pytest.mark.parametrize("module, attr, span", FUNCTIONS,
                         ids=[span for _, _, span in FUNCTIONS])
def test_traced_function_resolves(module, attr, span):
    obj = importlib.import_module(f"sgk.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), span


def test_field_and_provider_hooks_resolve():
    from sgk import PhasePoint, fields, scenarios
    assert any(isinstance(c, type) and issubclass(c, fields.VectorField)
               and "value" in vars(c) for c in vars(fields).values())
    assert callable(scenarios.RashbaScenario.curvature_provider)
    # the tracer wraps what curvature_provider returns: a callable on a point
    provider = scenarios.RashbaScenario().curvature_provider()
    assert callable(provider)
    assert provider(PhasePoint((0.3, -0.1), (0.0, 0.0), 0.0)).F.shape == (2, 5, 5)
