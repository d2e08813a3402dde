"""Static checks that keep dead names out of the package, with stdlib ast.

An import a module never reads, a module-level constant, function or class
that nothing reads, or a parameter its function never reads, is code that
only looks like it matters (a flag half removed, a helper orphaned). Import
lines marked ``# noqa: F401`` are exempt: perfbench/spans.py traces the
package by patching those module-level names.

The package is layered along its pipeline, and each module may import only
the siblings LAYERS lists for it, so a decision cannot leak into a module
that should not know it (the noisy engine reads steps from the circuit's
tags, not from a schedule).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "treeqaoa"
# every tree whose code may read a package constant, function or class
READERS = [ROOT / "src", ROOT / "tests", ROOT / "demos", ROOT / "perfbench"]
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")
# the sibling modules each package module may import
LAYERS = {
    "graphs": set(),
    "trees": {"graphs"},
    "scheduling": {"graphs", "trees"},
    "circuits": {"graphs", "trees", "scheduling"},
    "simulate": {"graphs", "circuits"},
    "oracle": {"graphs", "trees", "scheduling"},
    "bench": {"graphs", "trees", "scheduling", "circuits", "simulate"},
    "cli": {"graphs", "trees", "scheduling", "circuits", "simulate", "oracle", "bench"},
    "__init__": {"graphs", "trees", "scheduling", "circuits", "simulate", "oracle", "bench"},
}


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _loaded(tree: ast.AST) -> set[str]:
    """Names read anywhere in tree, as bare names or as attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _unused_imports(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    tree = _parse(path)
    loaded = _loaded(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in loaded:
                unused.append(f"{path.stem}.{bound}")
    return unused


def _constants(path: Path) -> list[str]:
    names = []
    for node in _parse(path).body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        names += [t.id for t in targets
                  if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]
    return names


def test_no_unused_imports():
    unused = [name for path in _modules() if path.name != "__init__.py"
              for name in _unused_imports(path)]
    assert unused == []


def _read_anywhere() -> set[str]:
    return set().union(*(_loaded(_parse(path)) for top in READERS for path in top.rglob("*.py")))


def test_no_dead_constants():
    loaded = _read_anywhere()
    dead = [f"{path.stem}.{name}" for path in _modules()
            for name in _constants(path) if name not in loaded]
    assert dead == []


def test_no_dead_functions_or_classes():
    loaded = _read_anywhere()
    dead = [f"{path.stem}.{node.name}" for path in _modules() for node in _parse(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in loaded]
    assert dead == []


def test_every_parameter_is_read():
    unread = []
    for path in _modules():
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {name.id for statement in body for name in ast.walk(statement)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            unread += [f"{path.stem}.{getattr(node, 'name', '<lambda>')}({name})"
                       for name in params if name not in read]
    assert unread == []


def _siblings(path: Path) -> set[str]:
    """Package modules that path imports (the package imports relatively)."""
    found = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
    return found


def test_imports_follow_layers():
    assert sorted(path.stem for path in _modules()) == sorted(LAYERS)
    breaches = [f"{path.stem} -> {name}" for path in _modules()
                for name in sorted(_siblings(path) - LAYERS[path.stem])]
    assert breaches == []
