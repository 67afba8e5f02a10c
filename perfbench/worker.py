"""One benchmark process: set a workload up, then run passes of it.

    python3 perfbench/worker.py setup   --workload W --seed N
    python3 perfbench/worker.py measure --workload W --seed N --seconds S
                                        --tmp DIR [--traced]

``setup`` times ``import tcassim`` plus loading every scenario document
the workload uses, and exits.  ``measure`` sets up the same way, then runs
whole passes until the next one would end after S seconds (at least one),
checks every output and prints one JSON object.  Both sample the host's
speed during what they time (hostspeed.py) and report the speed factor
beside each time.  With ``--traced`` the spans of tracing.py are installed
right after the import, before any document is loaded, so the process
never runs an untraced pass, and nothing is sampled.  run.py starts these
processes; this file is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402  (benchmark-local modules)
import workloads as wl  # noqa: E402

METER = hostspeed.Meter()
clock = METER.clock  # job bodies are timed without the meter's samples

BUNDLED = ("all_call_flood", "benign_pair", "head_on_phantom", "squitter_flood")


def set_up(workload: str, docs: dict, tracer=None) -> dict:
    """Import the package and load every document the workload runs."""
    import tcassim  # noqa: F401  (the import is part of set-up time)
    from tcassim import scenario

    if tracer is not None:
        import tracing
        tracing.install(tracer)
    if workload != "attack_campaign":
        return {"simulate": {f"{workload}/ring": scenario.load_scenario(docs["ring"])}}
    jobs = {}
    for name in BUNDLED:
        attack = scenario.bundled_scenario(name)
        jobs[name] = attack
        jobs[f"{name}/control"] = attack.without_attacker()
    return {"simulate": jobs, "loss": scenario.load_scenario(docs["loss"])}


def simulate_job(job: str, scen, tmp: Path) -> dict:
    from tcassim import airspace, harness

    stem = tmp / job.replace("/", "-")
    t0 = clock()
    result = harness.simulate(scen)
    airspace.write_event_log(stem.with_suffix(".log"), result.records)
    metrics_json = result.report.to_json()
    stem.with_suffix(".json").write_text(metrics_json)
    replayed = harness.metrics_from_log(airspace.read_event_log(stem.with_suffix(".log")), scen)
    elapsed = clock() - t0
    return {
        "elapsed": elapsed,
        "sim_s": scen.duration_s,
        "records": len(result.records),
        "log_sha256": wl.sha256(stem.with_suffix(".log").read_bytes()),
        "metrics_sha256": wl.sha256(metrics_json),
        "replay_equal": replayed.to_json() == metrics_json,
        "success": result.report.success,
        "counts": wl.log_counts(result.records),
    }


def loss_job(scen) -> dict:
    from tcassim import harness

    t0 = clock()
    points = harness.loss_sweep(scen, list(wl.LOSS_SNRS_DB), wl.LOSS_CORPUS)
    elapsed = clock() - t0
    return {"elapsed": elapsed, "lost": [p.lost for p in points],
            "frames": sum(p.samples for p in points)}


def fta_job() -> dict:
    from tcassim import fta

    t0 = clock()
    rows = fta.sensitivity_sweep(grid={f: list(wl.FTA_GRID) for f in fta.FACTOR_ORDER},
                                 overrides=fta.PHANTOM_ATTACK_OVERRIDES)
    text = fta.sweep_to_csv(rows)
    elapsed = clock() - t0
    return {"elapsed": elapsed, "rows": len(rows), "csv_sha256": wl.sha256(text)}


def run_pass(setup: dict, tmp: Path, calibrate: bool) -> dict:
    """Every job once.  When calibrating, each job also gets the host speed
    factor sampled while it ran, and the pass its ``ref_wall_s``."""
    marks = {}

    def run(key, job, *args):
        begin = METER.mark()
        result = job(*args)
        marks[key] = (begin, METER.mark())
        return result

    if calibrate:
        METER.start(hostspeed.PASS_PERIOD_S)
    out = {"simulate": {name: run(name, simulate_job, name, scen, tmp)
                        for name, scen in setup["simulate"].items()}}
    if "loss" in setup:
        out["loss"] = run("loss", loss_job, setup["loss"])
        out["fta"] = run("fta", fta_job)
    jobs = {**out["simulate"], **{k: out[k] for k in ("loss", "fta") if k in out}}
    out["wall_s"] = sum(j["elapsed"] for j in jobs.values())
    if calibrate:
        METER.stop()
        for key, j in jobs.items():
            j["speed"] = METER.speed(*marks[key])
        out["ref_wall_s"] = sum(j["elapsed"] * j["speed"] for j in jobs.values())
        out["speed"] = METER.speed()
        out["samples"] = len(METER.samples)
    return out


def outputs(p: dict) -> dict:
    """Everything a pass produced that must repeat exactly."""
    keys = ("log_sha256", "metrics_sha256", "replay_equal", "success", "counts")
    sims = {job: {k: r[k] for k in keys}
            for job, r in p["simulate"].items()}
    out = {"simulate": sims}
    for k, keys in (("loss", ("lost", "frames")), ("fta", ("rows", "csv_sha256"))):
        if k in p:
            out[k] = {key: p[k][key] for key in keys}
    return out


def check(seed: int, passes: list[dict], gate: wl.Gate) -> None:
    ref = wl.REFERENCE
    first = outputs(passes[0])
    for i, p in enumerate(passes[1:], start=2):
        gate.equal(outputs(p), first, f"pass {i} repeats pass 1")
    for job, r in passes[0]["simulate"].items():
        gate.check(r["replay_equal"], f"{job}: write, read and metrics_from_log reproduce the report")
        pinned = ref["jobs"].get(job)
        if pinned is not None and (job.split("/")[0] in BUNDLED or seed == ref["seed"]):
            for key in ("log_sha256", "metrics_sha256", "success"):
                gate.equal(r[key], pinned[key], f"{job}: {key} matches reference.json")
        if job in BUNDLED:
            gate.check(all(r["success"].values()), f"{job}: attack run meets its predicates")
        if job.startswith("ring"):
            c = r["counts"]
            gate.check(c["ta"] + c["ra"] > 0, f"{job}: advisories fired")
            gate.check(c["ra"] > 0, f"{job}: a resolution advisory fired")
            gate.check(c["engage"] > 0, f"{job}: a pilot engaged")
    if "loss" in first:
        lost = first["loss"]["lost"]
        gate.check(all(a >= b for a, b in zip(lost, lost[1:])),
                   f"loss_sweep: loss never rises with SNR {lost}")
        gate.check(lost[0] > 0, "loss_sweep: the lowest SNR loses frames")
        if seed == ref["seed"]:
            gate.equal(lost, ref["loss_lost"], "loss_sweep: lost counts match reference.json")
        gate.equal(first["fta"]["rows"], len(wl.FTA_GRID) ** 5, "fta: row count")
        gate.equal(first["fta"]["csv_sha256"], ref["fta_csv_sha256"],
                   "fta: CSV digest matches reference.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--tmp", type=Path)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.traced:
        import tracing
        tracer = tracing.Tracer()
    docs = wl.documents(args.workload, args.seed)
    probe = args.mode == "setup"
    if probe:
        METER.start(hostspeed.SETUP_PERIOD_S)
    t0 = clock()
    setup = set_up(args.workload, docs, tracer)
    setup_s = clock() - t0
    if probe:
        METER.stop()
        print(json.dumps({"setup_s": setup_s, "speed": METER.speed(),
                          "samples": len(METER.samples)}))
        return 0

    setup_spans = tracer.take() if tracer else None
    passes, spans = [], []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(setup, args.tmp, calibrate=not args.traced))
        if tracer:
            spans.append(tracer.take())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break

    gate = wl.Gate()
    check(args.seed, passes, gate)
    print(json.dumps({
        "setup_s": setup_s,
        "passes": passes,
        "outputs": outputs(passes[0]),
        "setup_spans": setup_spans,
        "spans": spans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": gate.attempted,
        "failures": gate.failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
