"""The library has no public surface that only tests use: every public
top-level function and class of `src/regemb` is referred to by some module
of the package other than `__init__.py`."""

import ast
from pathlib import Path

import regemb

# the acceptance tests' single-document API: the reference that the batched
# engine is checked against
TEST_API = {"forward_sequence", "sequence_gradients", "fold_embedding"}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(regemb.__file__).parent.glob("*.py"))}


def _referred(tree):
    """Every name, attribute and imported name `tree` refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_is_used_in_the_package():
    modules = _modules()
    used = set().union(*(_referred(tree) for name, tree in modules.items()
                         if name != "__init__"))
    public = {f"{name}.{node.name}" for name, tree in modules.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    unused = sorted(qual for qual in public
                    if qual.split(".")[1] not in used | TEST_API)
    assert unused == []
