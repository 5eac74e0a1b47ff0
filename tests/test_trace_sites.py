"""The benchmark's trace sites still exist in the library.

`perfbench/traced.py` times the library by replacing functions at the
module attributes listed in its SITES table, and skips a site the program
no longer has. A refactor that moves or renames a function would therefore
zero a per-layer metric without failing anything; this test resolves every
site, without wrapping it, and requires each span name to keep at least one
live site.
"""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_live(module_name: str, attr: str) -> bool:
    owner_path, _, cls = module_name.partition(":")
    owner = importlib.import_module(owner_path)
    if cls:
        owner = getattr(owner, cls, None)
    return owner is not None and callable(getattr(owner, attr, None))


def test_every_span_has_a_live_site():
    live = defaultdict(list)
    for module_name, attr, span, _counts in _load_traced().SITES:
        live[span].append(_is_live(module_name, attr))
    dead = sorted(span for span, sites in live.items() if not any(sites))
    assert live and not dead, f"spans with no live site: {dead}"
