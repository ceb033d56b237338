"""Every entry point that the benchmark's traced run patches still exists.

perfbench/spans.py wraps functions by attribute name on the module or class
that the caller reads them from. A renamed or moved function would only
fail under `pytest perfbench`; this test makes it fail here too. The
benchmark file is loaded, not changed.
"""

import importlib.util
import sys
from pathlib import Path

import eil
import eil.cli  # noqa: F401  (imports every module that call_sites reads)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_is_defined_on_its_owner():
    sites = load_spans().call_sites(eil)
    assert sites
    missing = [(owner.__name__, attr) for owner, attr, *_ in sites if attr not in vars(owner)]
    assert not missing, missing
