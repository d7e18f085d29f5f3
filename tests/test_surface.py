"""The package's public surface stays the code its pipeline runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Public functions kept with no caller in the package or the bench:
# joint_to_json writes a joint as `cifc project --dist` reads it, for the
# frontier's witness files (ROADMAP item 8).
KEEP = {"joint_to_json"}


def test_every_public_function_of_the_package_has_a_caller():
    # a caller is any read of the name, or of an attribute so named, in the
    # package or the bench scripts; an import alone, such as an export from
    # cifc/__init__.py, is none
    package = sorted((ROOT / "src" / "cifc").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package}
    bench = sorted((ROOT / "bench").glob("*.py"))
    trees.update((path, ast.parse(path.read_text())) for path in bench)
    defined = {node.name: path.name for path in package for node in trees[path].body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    uncalled = {name: module for name, module in defined.items() if name not in read | KEEP}
    assert uncalled == {}
