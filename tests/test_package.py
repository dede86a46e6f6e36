"""The package holds only code that runs, every function reachable from it,
and imports only the standard library and its runtime dependencies."""

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "crossflow"

# Functions and methods kept although nothing in the package calls them, with the reason.
ALLOWED_UNREFERENCED = {
    "connected": "read by bench/tracer.py",
    "adjacent": "read by bench/tracer.py",
    "error": "argparse calls it: _Parser overrides ArgumentParser.error",
    "simulate_platoon": "the closed loop on a given tree, documented in README.md",
}


def _names(node: ast.AST) -> Counter:
    """Every name and attribute read anywhere under ``node``, and the real name
    of each one imported under an alias."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias) and n.asname:
            names[n.name] += 1
    return names


def _definitions(tree: ast.Module):
    """Top-level functions and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (m for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_every_function_is_used_by_the_package():
    """A function or method is referenced outside its own ``def`` by a
    package module other than ``__init__.py``, by ``scripts/`` or by
    ``bench/``, or is a dunder or on the allowlist; an export alone is no
    use, and code that only tests call belongs in the tests."""
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    callers = [tree for name, tree in modules.items() if name != "__init__.py"]
    callers += [ast.parse(path.read_text()) for d in ("scripts", "bench")
                for path in sorted((ROOT / d).rglob("*.py"))]
    used = sum(map(_names, callers), Counter())
    unused = [f"{name}:{fn.lineno} {fn.name}" for name, tree in modules.items()
              for fn in _definitions(tree)
              if not (used[fn.name] > _names(fn)[fn.name]
                      or fn.name.startswith("__") and fn.name.endswith("__")
                      or fn.name in ALLOWED_UNREFERENCED)]
    assert not unused, "referenced nowhere in the package, scripts or bench: " + ", ".join(unused)


# Defaulted SimConfig fields kept although no caller passes them, with the reason.
ALLOWED_UNSET_SETTINGS: dict[str, str] = {}


def test_every_setting_is_set_by_a_caller():
    """A defaulted field of ``SimConfig`` is passed by keyword to ``SimConfig``
    somewhere in the package, the scripts or the benchmark, or is on the
    allowlist; a setting only tests change belongs in the scenario or in
    the tests."""
    simulation = ast.parse((SOURCE / "simulation.py").read_text())
    config = next(node for node in simulation.body
                  if isinstance(node, ast.ClassDef) and node.name == "SimConfig")
    defaulted = {node.target.id for node in config.body
                 if isinstance(node, ast.AnnAssign) and node.value is not None}
    passed = set()
    for path in sorted(p for d in ("src", "scripts", "bench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "SimConfig" in _names(node.func):
                passed.update(kw.arg for kw in node.keywords)
    unset = sorted(defaulted - passed - set(ALLOWED_UNSET_SETTINGS))
    assert not unset, "SimConfig settings no caller sets: " + ", ".join(unset)


# The runtime dependencies outside the standard library (pyproject.toml).
RUNTIME_DEPENDENCIES = {"numpy", "yaml"}


def test_imports_are_the_standard_library_numpy_or_yaml():
    """Every import of the package, at module level or in a function, is
    from the standard library, numpy or PyYAML, or is relative (the package
    itself)."""
    outside = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            outside.update(f"{path.name}: {root}" for root in roots
                           if root not in sys.stdlib_module_names | RUNTIME_DEPENDENCIES)
    assert not outside, ("imports outside the standard library, numpy and yaml: "
                         + ", ".join(sorted(outside)))
