"""The benchmark's traced run wraps package functions by name from outside
(``perfbench/tracing.py``), and its jobs (``perfbench/worker.py``) use what
those functions return.  A rename, a deletion or a changed result that the
benchmark relies on must fail here, not only when the benchmark runs."""

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


def test_fta_sweep_supports_what_the_bench_job_uses():
    # worker.fta_job takes len() of the sweep and renders it with sweep_to_csv
    from tcassim import fta

    sweep = fta.sensitivity_sweep(grid={"ti": [0.0, 1.0]},
                                  overrides=fta.PHANTOM_ATTACK_OVERRIDES)
    assert len(sweep) == 2
    lines = fta.sweep_to_csv(sweep).splitlines()
    assert lines[0] == ",".join(fta.SWEEP_COLUMNS)
    assert len(lines) == 3
