"""No dead code in src/icdx, checked with ast in place of a linter.

Every name a module imports is used in that module, and every private
module-level function or class is referenced, by name or as an
attribute, somewhere in the package. Deleting a function can leave
either kind of leftover behind.
"""

import ast
from pathlib import Path

import pytest

import icdx

PACKAGE = Path(icdx.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names(tree: ast.AST, attributes: bool = False) -> set[str]:
    """Names used and listed in __all__, and with attributes, every attribute name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and attributes:
            found.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            found.update(ast.literal_eval(node.value))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    assert sorted(imported - _names(tree)) == []


def test_every_private_function_and_class_is_referenced():
    trees = [_tree(path) for path in MODULES]
    referenced = set().union(*(_names(tree, attributes=True) for tree in trees))
    private = {f"{path.name}:{node.name}" for path, tree in zip(MODULES, trees)
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")}
    assert sorted(name for name in private if name.split(":")[1] not in referenced) == []
