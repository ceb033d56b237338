"""No module of src/eil imports a name that it never uses, reads a hidden
setting or reaches numpy.random.

No linter runs on this repository, so a name left imported after the code
that used it is gone would go unnoticed. __init__.py is left out: its
imports are the package's exports. An import whose line carries
`# noqa: F401` is kept on purpose (the benchmark traces `line_table` on the
modules that import it).

A setting read from the environment is one that no flag shows, so the
modules may touch the environment only on the lines of ENV_ALLOWED.

The sampler makes its own Philox words (evasive._philox_words): importing
numpy.random for them would cost every sampling command about 5.6 MB of
resident memory, most of it OpenSSL, so no module imports it or reads
`random` off numpy.
"""

import ast
from pathlib import Path

import eil

SRC = Path(eil.__file__).parent
# os names that read or write the process environment
ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
# (module, stripped source line) of each environment access that is meant
ENV_ALLOWED = {
    # one BLAS thread, set before numpy loads, unless the caller chose otherwise
    ("cli.py", 'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")'),
}


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


def environment_access(source: str) -> list[str]:
    """The stripped source line of each use of an os environment name, in order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            names = {a.name for a in node.names}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.Name):
            names = {node.id}
        else:
            continue
        if names & ENV_NAMES:
            found.add(node.lineno)
    return [lines[i - 1].strip() for i in sorted(found)]


def test_environment_access_is_found():
    source = (
        "import os\n"
        "from os import getenv as ge\n"
        "os.environ.setdefault('A', '1')\n"
        "n = int(os.environ.get('N', '1'))\n"
        "print(os.getcwd(), ge('B'))\n"
    )
    assert environment_access(source) == [
        "from os import getenv as ge",
        "os.environ.setdefault('A', '1')",
        "n = int(os.environ.get('N', '1'))",
    ]


def test_no_module_reads_a_hidden_environment_setting():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = {(p.name, line) for p in paths
             for line in environment_access(p.read_text(encoding="utf-8"))}
    assert found == ENV_ALLOWED


def numpy_random_uses(source: str) -> list[str]:
    """The stripped source line of each import of numpy.random and each
    read of `random` off np or numpy, in order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[:2] == ["numpy", "random"] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            hit = module[:2] == ["numpy", "random"] or (
                module == ["numpy"] and any(a.name == "random" for a in node.names))
        elif isinstance(node, ast.Attribute):
            hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        else:
            continue
        if hit:
            found.add(node.lineno)
    return [lines[i - 1].strip() for i in sorted(found)]


def test_numpy_random_uses_are_found():
    source = (
        "import random\n"
        "import numpy as np\n"
        "import numpy.random\n"
        "from numpy import random as npr\n"
        "from numpy.random import Philox\n"
        "bits = np.random.Philox(1)\n"
        "print(random.random(), np.arange(3), numpy.linalg)\n"
    )
    assert numpy_random_uses(source) == [
        "import numpy.random",
        "from numpy import random as npr",
        "from numpy.random import Philox",
        "bits = np.random.Philox(1)",
    ]


def test_no_module_uses_numpy_random():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = {p.name: numpy_random_uses(p.read_text(encoding="utf-8")) for p in paths}
    assert not {name: uses for name, uses in found.items() if uses}
