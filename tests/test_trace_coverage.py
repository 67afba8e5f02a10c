"""The benchmark's traced run asserts which of its spans each workload calls
and which it never calls (``EXPECT_USED`` and ``EXPECT_UNUSED`` in
``perfbench/tracing.py``), that every traced pass makes the calls of the
first, and that every record a run logs passes through ``World.record``.
Changing which package functions a workload reaches, binding one by name
where the spans cannot wrap it, or keeping a cache that outlives its
channel or world must fail here, not only when the benchmark runs with
``--trace 1``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Runs in a fresh process per workload, because installing the spans
# rewraps the package's functions for the rest of the process.  Like the
# benchmark, it counts the calls of set-up apart from those of each of two
# passes, and checks coverage on set-up and the first pass together.
TRACED_PASSES = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import tracing, worker, workloads

workload = sys.argv[2]
tracer = tracing.Tracer()
setup = worker.set_up(workload, workloads.documents(workload, 0), tracer)
setup_calls = tracer.take()["calls"]
passes, logged = [], []
with tempfile.TemporaryDirectory() as tmp:
    for _ in range(2):
        done = worker.run_pass(setup, Path(tmp), calibrate=False)
        passes.append(tracer.take()["calls"])
        logged.append([r["records"] - r["counts"]["kinds"].get("nmac", 0)
                       for r in done["simulate"].values()])
calls = {s: setup_calls[s] + passes[0][s] for s in tracing.SPANS}
print(json.dumps({
    "not_called": sorted(s for s in tracing.EXPECT_USED[workload] if not calls[s]),
    "called": sorted(s for s in tracing.EXPECT_UNUSED[workload] if calls[s]),
    "passes": passes, "logged": logged}))
"""


@pytest.fixture(scope="module", params=["ring_surveillance", "ring_awgn", "attack_campaign"])
def traced(request):
    done = subprocess.run([sys.executable, "-c", TRACED_PASSES, str(PERFBENCH), request.param],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return request.param, json.loads(done.stdout.splitlines()[-1])


def test_a_traced_pass_calls_the_spans_its_workload_expects(traced):
    workload, out = traced
    assert (out["not_called"], out["called"]) == ([], [])
    if workload == "ring_surveillance":  # its channel is noiseless
        assert not any(n for span, n in out["passes"][0].items() if span.startswith("phy."))


def test_a_second_traced_pass_repeats_the_call_counts_of_the_first(traced):
    first, second = traced[1]["passes"]
    assert second == first


def test_every_record_a_run_logs_goes_through_the_record_span(traced):
    # simulate inserts the nmac records itself, after the run
    workload, out = traced
    assert [p["airspace.record"] for p in out["passes"]] == list(map(sum, out["logged"]))
    if workload == "ring_surveillance":
        assert out["logged"][0] == [104_476]
