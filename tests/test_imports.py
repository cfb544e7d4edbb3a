"""Every module-level import of a kvertex module is named again in that
module: in code, or in a string such as a docstring, whose doctests read the
module's globals.  `__init__.py` is exempt: its imports are the package's
exports."""
import ast
import os
import re

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "kvertex")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def _unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return sorted(imported - named)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert _unused_imports(os.path.join(SRC, module)) == []
