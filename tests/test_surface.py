"""The package's public surface stays the code its pipeline runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Public functions kept with no caller in the package or the bench:
# joint_to_json writes a joint as `cifc project --dist` reads it, for the
# frontier's witness files (ROADMAP item 8).
KEEP = {"joint_to_json"}

# The operator and comparison dunders a class of the package may define,
# and __hash__: each is read by the package, not the tests alone.
# LinearSystem.__eq__ and __hash__ key _oracle_hull's cache, whose hits the
# bench reads; parse_expr negates a reference's MIExpr with MIExpr.__neg__.
KEEP_OPERATORS = {("LinearSystem", "__eq__"), ("LinearSystem", "__hash__"),
                  ("MIExpr", "__neg__")}
_BINARY = "add sub mul matmul truediv floordiv mod divmod pow lshift rshift and xor or".split()
OPERATORS = ({f"__{side}{op}__" for op in _BINARY for side in ("", "r", "i")}
             | {f"__{op}__" for op in "neg pos abs invert eq ne lt le gt ge hash".split()})


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


def test_no_class_of_the_package_defines_an_operator_only_the_tests_use():
    # an expression is written once, as text that parse_expr reads, so a
    # second notation by operators, or a comparison no caller makes, is dead
    defined = {(cls.name, node.name)
               for path in sorted((ROOT / "src" / "cifc").glob("*.py"))
               for cls in ast.walk(ast.parse(path.read_text())) if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name in OPERATORS}
    assert defined - KEEP_OPERATORS == set()
