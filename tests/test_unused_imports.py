"""Each module of the package uses every name it imports.

__init__.py is left out: it imports names to re-export them. A name counts
as used wherever it is read; annotations are ordinary expressions in the
syntax tree, so a name read only there counts too.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "primelattice"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_package_has_modules_to_check():
    assert {"cli.py", "factorization.py", "__main__.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(_imported(tree) - _read(tree)) == []
