"""No module of src/eil imports a name that it never uses.

No linter runs on this repository, so a name left imported after the code
that used it is gone would go unnoticed. __init__.py is left out: its
imports are the package's exports. An import whose line carries
`# noqa: F401` is kept on purpose (the benchmark traces `line_table` on the
modules that import it).
"""

import ast
from pathlib import Path

import eil

SRC = Path(eil.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, in source order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for _, name in sorted(imported) if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from math import comb, pi\n"
        "from json import dumps  # noqa: F401\n"
        "print(comb(4, 2), osp.sep)\n"
    )
    assert unused_imports(source) == ["os", "pi"]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert paths
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in paths}
    assert not {name: names for name, names in unused.items() if names}
