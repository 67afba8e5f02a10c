"""tcassim benchmark: one workload, one seed, host-time metrics.

    python3 perfbench/run.py --workload ring_surveillance --seed 0 \
        --seconds 30 --trace 0

Run from the repository root.  Every process it starts runs one job at a
time in one thread, with numpy's BLAS pinned to one thread.

``--trace 0`` times set-up in fresh processes, then runs untraced passes
in one more process for ``--seconds`` and reports the end-to-end metrics
of BENCHMARK.json.  Their times are in reference seconds: each measured
time is scaled by the host speed sampled while it was measured (see
hostspeed.py).  ``--trace 1`` spends half the time on untraced passes
and half on traced passes in a separate process and reports the per-layer
metrics.  Every pass is also a correctness check (see worker.py); the last
line of standard output is the JSON result.  See README.md in this
directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 9
CHILD_GRACE_S = 60  # beyond --seconds, for set-up and the last pass

# kinds and delivery outcomes the package writes; each becomes a count
RECORD_KINDS = ("timer", "transmit", "deliver", "tcas", "pilot", "attack", "nmac")
DELIVER_OUTCOMES = (
    "phy_drop", "parity_drop", "ignored", "standby", "unsupported", "not_addressed",
    "replied", "own_address", "known", "acquired", "table_full", "unmatched_reply",
    "implausible_rtt", "range_update", "observed", "flood_reply", "target_sighted",
    "target_measured", "evidence", "phantom_all_call", "not_phantom",
    "spoof_predicted", "spoof_replied", "spoof_missed")
WASTED_OUTCOMES = ("not_addressed", "unmatched_reply")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def worker(mode: str, args, *extra: str) -> dict:
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=args.seconds + CHILD_GRACE_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values) -> float:
    return statistics.median(list(values))


def simulate_rates(p: dict) -> dict:
    """Rates of one pass's simulate jobs, in reference seconds."""
    jobs = p["simulate"].values()
    busy = sum(j["elapsed"] * j["speed"] for j in jobs)
    deliveries = sum(j["counts"]["kinds"].get("deliver", 0) for j in jobs)
    return {"sim_s_per_s": sum(j["sim_s"] for j in jobs) / busy,
            "records_per_s": sum(j["records"] for j in jobs) / busy,
            "us_per_delivery": busy / deliveries * 1e6}


def end_to_end(args, gate: wl.Gate) -> tuple[dict, dict]:
    probes = [worker("setup", args) for _ in range(SETUP_PROBES)]
    run = worker("measure", args, "--seconds", str(args.seconds), "--tmp", args.tmp)
    absorb(gate, run)
    passes = run["passes"]
    report_spread("measured wall_s", [p["wall_s"] for p in passes])
    report_spread("measured setup_s", [q["setup_s"] for q in probes])
    report_spread("host speed factor (passes)", [p["speed"] for p in passes])
    report_spread("host speed samples per pass", [p["samples"] for p in passes])
    rates = [simulate_rates(p) for p in passes]
    samples = {"wall_s": [p["ref_wall_s"] for p in passes],
               "setup_s": [q["setup_s"] * q["speed"] for q in probes]}
    for key in rates[0]:
        samples[key] = [r[key] for r in rates]
    metrics = {"peak_rss_mb": run["peak_rss_mb"]}
    for key, values in samples.items():
        report_spread(key, values)
        metrics[key] = median(values)
    return metrics, run["outputs"]


def per_layer(args, gate: wl.Gate) -> tuple[dict, dict]:
    half = str(args.seconds / 2)
    plain = worker("measure", args, "--seconds", half, "--tmp", args.tmp)
    traced = worker("measure", args, "--seconds", half, "--tmp", args.tmp, "--traced")
    absorb(gate, plain)
    absorb(gate, traced)
    gate.check(traced["outputs"] == plain["outputs"],
               "traced pass reproduces the untraced pass's outputs")

    metrics: dict[str, float] = {}
    calls0 = traced["spans"][0]["calls"]
    for i, s in enumerate(traced["spans"][1:], start=2):
        gate.check(s["calls"] == calls0, f"traced pass {i} repeats the call counts of pass 1")
    setup = traced["setup_spans"]
    for span in tracing.SPANS:
        metrics[f"{span}.calls"] = calls0[span] + setup["calls"][span]
        metrics[f"{span}.self_s"] = setup["self_s"][span] + median(
            s["self_s"][span] for s in traced["spans"])
    for span in sorted(tracing.EXPECT_USED[args.workload]):
        gate.check(metrics[f"{span}.calls"] > 0, f"coverage: {span} is called")
    for span in sorted(tracing.EXPECT_UNUSED[args.workload]):
        gate.check(metrics[f"{span}.calls"] == 0, f"coverage: {span} is never called")

    unattributed = []
    for p, s in zip(traced["passes"], traced["spans"]):
        outside = p["wall_s"] - s["spanned_s"]
        total = sum(s["self_s"].values()) + outside
        gate.check(outside >= 0 and abs(total - p["wall_s"]) <= 1e-6 * p["wall_s"],
                   f"self times {total!r} plus unattributed time add up to wall {p['wall_s']!r}")
        unattributed.append(outside)
    plain_walls = [p["wall_s"] for p in plain["passes"]]
    traced_walls = [p["wall_s"] for p in traced["passes"]]
    report_spread("measured untraced wall_s", plain_walls)
    report_spread("measured traced wall_s", traced_walls)
    metrics["host.wall_s"] = median(plain_walls)
    metrics["host.speed"] = median(p["speed"] for p in plain["passes"])
    metrics["trace.wall_s"] = median(traced_walls)
    metrics["trace.overhead_s"] = median(traced_walls) - median(plain_walls)
    metrics["trace.unattributed_s"] = median(unattributed)

    metrics.update(log_metrics(plain["outputs"]))
    # rates in reference seconds, like the end-to-end ones
    loss = [p["loss"] for p in plain["passes"] if "loss" in p]
    fta = [p["fta"] for p in plain["passes"] if "fta" in p]
    metrics["harness.loss_frames_per_s"] = \
        median(j["frames"] / (j["elapsed"] * j["speed"]) for j in loss) if loss else 0
    metrics["fta.rows_per_s"] = \
        median(j["rows"] / (j["elapsed"] * j["speed"]) for j in fta) if fta else 0
    metrics["fta.rows"] = fta[0]["rows"] if fta else 0
    return metrics, plain["outputs"]


def log_metrics(outputs: dict) -> dict:
    """Deterministic counts over every simulate job's log."""
    counts = wl.merge_counts([j["counts"] for j in outputs["simulate"].values()])
    kinds, outcomes = counts["kinds"], counts["outcomes"]
    deliveries = kinds.get("deliver", 0)
    metrics = {
        "airspace.records": sum(kinds.values()),
        "airspace.deliveries": deliveries,
        "airspace.fanout_mean": deliveries / counts["sent"],
        "airspace.wasted_delivery_frac":
            sum(outcomes.get(o, 0) for o in WASTED_OUTCOMES) / deliveries,
        "phy.decode_ok_ratio": (deliveries - outcomes.get("phy_drop", 0)) / deliveries,
        "tcas.advisories": counts["ta"] + counts["ra"],
        "tcas.ra": counts["ra"],
        "tcas.pilot_engages": counts["engage"],
    }
    for kind in RECORD_KINDS:
        metrics[f"log.records.{kind}"] = kinds.get(kind, 0)
    for outcome in DELIVER_OUTCOMES:
        metrics[f"log.deliver.{outcome}"] = outcomes.get(outcome, 0)
    unknown = sorted((set(kinds) - set(RECORD_KINDS)) | (set(outcomes) - set(DELIVER_OUTCOMES)))
    if unknown:
        print(f"note: log values with no metric of their own: {', '.join(unknown)}")
    return metrics


def absorb(gate: wl.Gate, run: dict) -> None:
    """Count a worker's checks as this run's."""
    gate.attempted += run["attempted"]
    gate.failures.extend(run["failures"])


def report_spread(name: str, values: list[float]) -> None:
    """Print a timing's sample count, median and quartiles."""
    quartiles = ""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        quartiles = f", quartiles {q1!r} .. {q3!r}"
    print(f"spread {name}: {len(values)} samples, median {median(values)!r}{quartiles}")


def print_digests(outputs: dict) -> None:
    for job, r in outputs["simulate"].items():
        print(f"digest {job}: log {r['log_sha256']} metrics {r['metrics_sha256']} "
              f"success {json.dumps(r['success'], sort_keys=True)}")
    if "loss" in outputs:
        print(f"digest loss_sweep: lost {outputs['loss']['lost']}")
        print(f"digest fta: rows {outputs['fta']['rows']} csv {outputs['fta']['csv_sha256']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tcassim" / "__init__.py").is_file():
        print(f"perfbench: no tcassim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; have {', '.join(workloads)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    gate = wl.Gate()
    args.tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        metrics, outputs = (per_layer if args.trace else end_to_end)(args, gate)
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)
    attempted, failed = gate.attempted, len(gate.failures)
    if args.trace:
        metrics["checks.failed_frac"] = failed / attempted

    names = [m["name"] for m in declared]
    if set(metrics) != set(names):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(names))} "
                         "are not both declared in BENCHMARK.json and measured")
    print_digests(outputs)
    for m in declared:
        print(f"{args.workload} {m['name']} = {metrics[m['name']]!r} {m['unit']}")
    print(f"checks: {attempted} attempted, {failed} failed")
    for what in gate.failures:
        print(f"FAILED: {what}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
