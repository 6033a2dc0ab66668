"""The runtime stays stdlib-only: every import in src/poma names a module of
the standard library or of poma itself, and none runs inside a loop."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "poma"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) stays inside poma
            yield node.lineno, "poma" if node.level else node.module


def test_src_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, name in _imported_modules(tree):
            top = name.split(".")[0]
            if top != "poma" and top not in sys.stdlib_module_names:
                foreign.append(f"{path.name}:{lineno}: {name}")
    assert not foreign, foreign


def test_no_import_runs_inside_a_loop():
    """An import statement in a loop body runs again on every pass."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for loop in ast.walk(tree):
            if isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                found += [f"{path.name}:{node.lineno}" for stmt in loop.body
                          for node in ast.walk(stmt)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, found


def _function_imports(node, function=None):
    """(function, module) for each import inside a function body, named by
    the innermost function that holds it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _function_imports(child, child.name)
            continue
        if function and isinstance(child, ast.ImportFrom):
            yield function, "." * child.level + (child.module or "")
        elif function and isinstance(child, ast.Import):
            yield from ((function, alias.name) for alias in child.names)
        yield from _function_imports(child, function)


def test_imports_inside_functions_only_close_cycles():
    """An import sits inside a function only where the module it names
    imports this one at its top: morphisms imports congruences, and free
    imports corpus."""
    found = sorted((path.stem, function, name)
                   for path in SRC.glob("*.py")
                   for function, name in _function_imports(ast.parse(path.read_text())))
    assert found == [("congruences", "has_cep", ".morphisms"), ("corpus", "corpus", ".free")]
