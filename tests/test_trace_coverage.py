"""The benchmark's traced run asserts which of its spans each workload calls
and which it never calls (``EXPECT_USED`` and ``EXPECT_UNUSED`` in
``perfbench/tracing.py``).  Changing which package functions a workload
reaches, or binding one by name where the spans cannot wrap it, must fail
here, not only when the benchmark runs with ``--trace 1``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Runs in a fresh process per workload, because installing the spans
# rewraps the package's functions for the rest of the process.  Like the
# benchmark, it counts the calls of set-up and of one pass together.
TRACED_PASS = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import tracing, worker, workloads

workload = sys.argv[2]
tracer = tracing.Tracer()
setup = worker.set_up(workload, workloads.documents(workload, 0), tracer)
with tempfile.TemporaryDirectory() as tmp:
    worker.run_pass(setup, Path(tmp), calibrate=False)
calls = tracer.take()["calls"]
print(json.dumps({
    "not_called": sorted(s for s in tracing.EXPECT_USED[workload] if not calls[s]),
    "called": sorted(s for s in tracing.EXPECT_UNUSED[workload] if calls[s])}))
"""


@pytest.mark.parametrize("workload", ["ring_surveillance", "ring_awgn", "attack_campaign"])
def test_a_traced_pass_calls_the_spans_its_workload_expects(workload):
    done = subprocess.run([sys.executable, "-c", TRACED_PASS, str(PERFBENCH), workload],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"not_called": [], "called": []}
