"""The package's public names."""

import ast
import re
from pathlib import Path

import sgk
from sgk import scenarios, verify

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [p for p in sorted((ROOT / "src" / "sgk").glob("*.py")) if p.name != "__init__.py"]
README = (ROOT / "README.md").read_text()
# wrapped by bench/tracer.py; each leaves this set with the tracer update that
# stops wrapping it (ROADMAP A)
BENCH_BOUND = {"aligned_frame", "curvature_provider"}


def test_every_exported_name_resolves():
    # a stale name breaks only `from sgk import *`, which nothing else runs
    missing = [name for name in sgk.__all__ if not hasattr(sgk, name)]
    assert missing == []
    assert len(set(sgk.__all__)) == len(sgk.__all__)
    namespace = {}
    exec("from sgk import *", namespace)
    assert set(sgk.__all__) <= set(namespace)


def _definitions(text: str) -> dict:
    """name -> (first, last) line of the top-level statement that defines it."""
    spans = {}
    for node in ast.parse(text).body:
        names = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else [
            t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
        spans.update((name, (node.lineno - 1, node.end_lineno)) for name in names)
    return spans


def test_every_exported_name_is_run_or_documented():
    # the public surface is what the package itself calls, what the README
    # documents, and what the benchmark wraps; anything else is dead weight
    modules = [(text.splitlines(), _definitions(text)) for text in map(Path.read_text, SOURCES)]

    def used(name):
        word = re.compile(rf"\b{re.escape(name)}\b")
        for lines, spans in modules:
            lo, hi = spans.get(name, (0, 0))
            if word.search("\n".join(lines[:lo] + lines[hi:])):
                return True
        return word.search(README) is not None

    assert [name for name in sgk.__all__ if name not in BENCH_BOUND and not used(name)] == []


def test_every_public_scenario_method_is_run_or_documented():
    source = "\n".join(p.read_text() for p in SOURCES)
    orphans = [f"{cls.__name__}.{name}"
               for cls in (scenarios._SplitScenario, scenarios.ZeemanScenario,
                           scenarios.SpinOrbitScenario, scenarios.RashbaScenario,
                           scenarios.OpticalScenario)
               for name, attr in vars(cls).items()
               if callable(attr) and not name.startswith("_") and name not in BENCH_BOUND
               and not re.search(rf"\.{name}\b", source)
               and not re.search(rf"\b{name}\b", README)]
    assert orphans == []


def test_every_battery_check_is_called_by_an_acceptance_criterion():
    # `sgk verify` and the acceptance criteria share one implementation of
    # each identity: a criterion calls the battery's check at its own sizes
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    called = {node.func.id for test in tree.body
              if isinstance(test, ast.FunctionDef) and test.name.startswith("test_")
              for node in ast.walk(test)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert [fn.__name__ for fn in verify.BATTERY if fn.__name__ not in called] == []


def test_the_readme_library_sketch_runs(capsys):
    # run as written, so the sketch cannot drift from the API
    (sketch,) = re.findall(r"## Library sketch\n\n```python\n(.*?)```", README, re.S)
    exec(compile(sketch, "README.md", "exec"), {})
    assert capsys.readouterr().out
