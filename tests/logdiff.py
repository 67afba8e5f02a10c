"""Compare two source trees' logs and reports over a seeded census of encounters.

A script that needs nothing beyond the standard library:

    python tests/logdiff.py OLD_SRC NEW_SRC

Each ``src`` tree runs the whole census in its own subprocess, and the
script checks that each imported ``tcassim`` from its own tree.  An
encounter's outcome is what became of it: a document that fails to load
keeps its error text, a run that raises keeps its error text and the
sha256 of its partial log (``SimError.records``), and a clean run keeps
its log and report sha256 and whether its log, written and read back,
gives the same report again (``replayed``), the check perfbench makes on
each job's log.  The script prints every encounter whose outcome differs
between the two trees, then per tree how many loaded, ran clean, failed
part-way and replayed, and how many reach each of ``REACHED``.

A change to the modem moves few census logs, as only every fourth traffic
encounter is noisy, so each tree also runs ``harness.loss_sweep`` for each
of ``LOSS_SEEDS`` over ``LOSS_SNRS_DB`` (-3 to 30 dB in 1.5 dB steps, and
noiseless) and a corpus of ``LOSS_CORPUS`` frames, and the script prints
every seed whose lost counts differ.  It exits 1 when any encounter or
loss count differs, or when a clean run in either tree does not replay.  Pytest does not collect this file, as its name does
not start with ``test_``.

The encounters are the documents of ``tests/census.py``, numbered 0 to
``TOTAL - 1``: traffic, then phantom attacks, then floods.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from census import CENSUS_SIZE, FLOOD_DRAWS, PHANTOM_DRAWS, TOTAL, aircraft_entry, document

LOSS_SEEDS = (0, 1, 2)
LOSS_SNRS_DB = [-3.0 + 1.5 * k for k in range(23)] + [math.inf]
LOSS_CORPUS = 600
# what an encounter can reach, each read from a log outcome
REACHED = {
    "clear_of_conflict": lambda outcome: outcome == "ra_cleared;clear_of_conflict",
    "ra_reversal": lambda outcome: outcome.startswith("ra_reversal;"),
    "ta_cleared": lambda outcome: outcome == "ta_cleared",
    "track_drop": lambda outcome: outcome.startswith("track_drop;"),
    "phase_done": lambda outcome: outcome == "phase;done",
    "nmac_window": lambda outcome: outcome.startswith("window;"),
}


def _sha256(records) -> str:
    text = "".join(rec.to_line() + "\n" for rec in records)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _reached(records) -> list[str]:
    return sorted(name for name, seen in REACHED.items() if any(seen(rec.outcome) for rec in records))


def _replays(result, loaded, folder: str) -> bool:
    """Whether the report of ``result``'s log, written and read back, is
    the report ``simulate`` gave, byte for byte."""
    from tcassim import airspace, harness

    path = Path(folder) / "events.log"
    airspace.write_event_log(path, result.records)
    again = harness.metrics_from_log(airspace.read_event_log(path), loaded)
    return again.to_json() == result.report.to_json()


def outcome(i: int, folder: str) -> dict:
    """What became of encounter i under the ``tcassim`` on the import path;
    its log is written to and read back from ``folder``."""
    from tcassim import harness, scenario

    try:
        loaded = scenario.load_scenario(document(i))
    except Exception as exc:  # a malformed document is an outcome too
        return {"status": "load_error", "error": f"{type(exc).__name__}: {exc}"}
    try:
        result = harness.simulate(loaded)
    except Exception as exc:
        records = getattr(exc, "records", None) or []
        return {"status": "run_error", "error": f"{type(exc).__name__}: {exc}",
                "log": _sha256(records), "reached": _reached(records)}
    return {"status": "ran", "log": _sha256(result.records),
            "report": hashlib.sha256(result.report.to_json().encode("ascii")).hexdigest(),
            "reached": _reached(result.records), "replayed": _replays(result, loaded, folder)}


def loss_counts(seed: int) -> list[int]:
    """The frames lost at each of ``LOSS_SNRS_DB`` by the ``loss_sweep`` on
    the import path, for a scenario of this seed."""
    from tcassim import harness, scenario

    loaded = scenario.load_scenario({
        "schema_version": 1, "name": f"loss{seed}", "duration_s": 1.0, "seed": seed,
        "channel": {"kind": "awgn", "snr_db": 12.0},
        "aircraft": [aircraft_entry("probe", 0xA20000, "xpdr", (0.0, 0.0, 10_000.0),
                                    (0.0, 0.0, 0.0))]})
    return [point.lost for point in harness.loss_sweep(loaded, LOSS_SNRS_DB, LOSS_CORPUS)]


def run_census() -> None:
    """Run the census with the ``tcassim`` on the import path; print where
    it was imported from, then one JSON line per encounter and one per loss
    seed."""
    import tcassim

    print(json.dumps(tcassim.__file__))
    with tempfile.TemporaryDirectory() as folder:
        for i in range(TOTAL):
            print(json.dumps(outcome(i, folder), sort_keys=True), flush=True)
    for seed in LOSS_SEEDS:
        print(json.dumps(loss_counts(seed)), flush=True)


def _start(src: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{Path(__file__).resolve().parent}"}
    return subprocess.Popen([sys.executable, "-c", "import logdiff; logdiff.run_census()"],
                            env=env, stdout=subprocess.PIPE, text=True)


def _collect(src: Path, proc: subprocess.Popen, out: str) -> tuple[list, list]:
    """A tree's encounter outcomes and its loss counts per seed."""
    if proc.returncode != 0:
        sys.exit(f"{src}: the census exited {proc.returncode}")
    imported, *rows = [json.loads(line) for line in out.splitlines()]
    if not Path(imported).resolve().is_relative_to(src):
        sys.exit(f"{src}: tcassim was imported from {imported}")
    return rows[:TOTAL], rows[TOTAL:]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit("usage: python tests/logdiff.py OLD_SRC NEW_SRC")
    trees = [Path(arg).resolve() for arg in argv]
    procs = [_start(src) for src in trees]  # the two trees run side by side
    outs = [proc.communicate()[0] for proc in procs]
    (old, old_lost), (new, new_lost) = (_collect(*run) for run in zip(trees, procs, outs))
    differ = 0
    for i, (a, b) in enumerate(zip(old, new)):
        parts = [key for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
        if parts:
            differ += 1
            print(f"{document(i)['name']}: {' and '.join(parts)} differ")
    print(f"{TOTAL - differ} of {TOTAL} encounters have equal outcomes, "
          f"logs and reports ({CENSUS_SIZE} traffic, {PHANTOM_DRAWS} phantom, "
          f"{FLOOD_DRAWS} flood)")
    unreplayed = 0
    for src, rows in zip(trees, (old, new)):
        statuses = [row["status"] for row in rows]
        replayed = sum(row.get("replayed", False) for row in rows)
        unreplayed += statuses.count("ran") - replayed
        print(f"{src}: {TOTAL - statuses.count('load_error')} loaded, "
              f"{statuses.count('ran')} ran clean, {statuses.count('run_error')} failed part-way, "
              f"{replayed} replayed their report from the log read back")
    for name in REACHED:
        print(f"reach {name}: " + ", ".join(
            f"{sum(name in row.get('reached', ()) for row in rows)} in {src}"
            for src, rows in zip(trees, (old, new))))
    lost_differ = 0
    for seed, a, b in zip(LOSS_SEEDS, old_lost, new_lost):
        if a != b:
            lost_differ += 1
            print(f"loss_sweep seed {seed}: lost {a} and {b} differ")
    print(f"{len(LOSS_SEEDS) - lost_differ} of {len(LOSS_SEEDS)} loss sweeps have equal "
          f"counts ({len(LOSS_SNRS_DB)} SNRs, {LOSS_CORPUS} frames)")
    return 1 if differ or lost_differ or unreplayed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
