"""The package holds only code that runs: every function is reachable from it."""

import ast
from collections import Counter
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "crossflow"

# Functions and methods kept although nothing in the package calls them, with the reason.
ALLOWED_UNREFERENCED = {
    "connected": "read by bench/tracer.py",
    "adjacent": "read by bench/tracer.py",
    "error": "argparse calls it: _Parser overrides ArgumentParser.error",
    "simulate_platoon": "the closed loop on a given tree, documented in README.md",
    "dump_scenario": "read by scripts/make_example1.py",
    "example1_scenario": "read by scripts/make_example1.py",
    "example1_arrivals": "read by scripts/make_example1.py",
}


def _names(node: ast.AST) -> Counter:
    """Every name and attribute read anywhere under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree: ast.Module):
    """Top-level functions and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (m for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_every_function_is_used_by_the_package():
    """A function or method is referenced in the package outside its own
    ``def``, exported from ``crossflow``, a dunder, or on the allowlist; code
    that only tests call belongs in the tests."""
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    used = sum((_names(tree) for tree in modules.values()), Counter())
    exported = {alias.asname or alias.name for node in modules["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = [f"{name}:{fn.lineno} {fn.name}" for name, tree in modules.items()
              for fn in _definitions(tree)
              if not (used[fn.name] > _names(fn)[fn.name] or fn.name in exported
                      or fn.name.startswith("__") and fn.name.endswith("__")
                      or fn.name in ALLOWED_UNREFERENCED)]
    assert not unused, "referenced nowhere in the package: " + ", ".join(unused)
