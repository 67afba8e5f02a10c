"""The benchmark's traced run wraps package functions by name from outside
(``perfbench/tracing.py``).  A rename or deletion of any wrapped name must
fail here, not only when the traced benchmark runs."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _spans() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_span_site_resolves():
    missing = []
    for span, sites in _spans().items():
        for owner_path, attr in sites:
            module_name, _, cls_name = owner_path.partition(".")
            owner = importlib.import_module(f"tcassim.{module_name}")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                found = owner is not None and attr in vars(owner)
            else:
                found = callable(getattr(owner, attr, None))
            if not found:
                missing.append(f"{span}: {owner_path}.{attr}")
    assert not missing
