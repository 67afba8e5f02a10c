"""The benchmark's traced run wraps package functions by name from outside
(``perfbench/tracing.py``), and its jobs (``perfbench/worker.py``) use what
those functions return.  A rename, a deletion or a changed result that the
benchmark relies on must fail here, not only when the benchmark runs."""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


# Runs in a fresh process, because installing the spans rewraps the
# package's functions for the rest of the process.
TRACED_RING = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracing
from tcassim import harness, scenario

tracer = tracing.Tracer()
tracing.install(tracer)
result = harness.simulate(scenario.load_scenario(json.loads(sys.argv[3])))
calls = tracer.take()["calls"]
kinds = [rec.kind for rec in result.records]
outcomes = [rec.outcome for rec in result.records if rec.kind == "deliver"]
print(json.dumps({"parse_frame": calls["modes_codec.parse_frame"],
                  "to_hex": calls["modes_codec.to_hex"],
                  "deliveries": len(outcomes),
                  "sealed_off": outcomes.count("not_addressed") + outcomes.count("unmatched_reply"),
                  "frame_records": kinds.count("deliver") + kinds.count("transmit")}))
"""

RING4 = {
    "schema_version": 1,
    "name": "traced_ring4",
    "duration_s": 15.0,
    "channel": {"kind": "noiseless"},
    "aircraft": [
        {"name": f"ring{i}", "icao": f"A1000{i}", "mode": "ta_ra",
         "position": {"x_nmi": 4.0 * dx, "y_nmi": 4.0 * dy, "altitude_ft": 30_000 + 100 * i},
         "velocity": {"vx_kt": -300.0 * dx, "vy_kt": -300.0 * dy}}
        for i, (dx, dy) in enumerate([(1, 0), (0, 1), (-1, 0), (0, -1)])
    ],
}


def test_traced_codec_spans_see_every_parse_and_every_hex():
    # the spans wrap parse_frame and ModeSFrame.to_hex where callers look
    # them up; a caller that bound either at import time would hide its
    # calls from the benchmark's per-layer numbers.  A receiver answers
    # not_addressed and unmatched_reply from the frame's seal alone, and
    # parses every other frame it hears exactly once.
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RING, str(ROOT / "src"), str(ROOT / "perfbench"),
         json.dumps(RING4)],
        capture_output=True, text=True, timeout=120, check=True)
    counts = json.loads(out.stdout.splitlines()[-1])
    assert counts["deliveries"] > counts["sealed_off"] > 0
    assert counts["parse_frame"] == counts["deliveries"] - counts["sealed_off"]
    assert counts["to_hex"] == counts["frame_records"]
