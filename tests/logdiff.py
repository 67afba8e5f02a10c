"""Compare two source trees' logs and reports over a seeded census of encounters.

A script that needs nothing beyond the standard library:

    python tests/logdiff.py OLD_SRC NEW_SRC

Each ``src`` tree runs the whole census in its own subprocess, and the
script checks that each imported ``tcassim`` from its own tree.  An
encounter's outcome is what became of it: a document that fails to load
keeps its error text, a run that raises keeps its error text and the
sha256 of its partial log (``SimError.records``), and a clean run keeps
its log and report sha256.  The script prints every encounter whose
outcome differs between the two trees, then per tree how many loaded, ran
clean and failed part-way, and how many reach each of ``REACHED``.

A change to the modem moves few census logs, as only every fourth traffic
encounter is noisy, so each tree also runs ``harness.loss_sweep`` for each
of ``LOSS_SEEDS`` over ``LOSS_SNRS_DB`` (-3 to 30 dB in 1.5 dB steps, and
noiseless) and a corpus of ``LOSS_CORPUS`` frames, and the script prints
every seed whose lost counts differ.  It exits 1 when any encounter or
loss count differs.  Pytest does not collect this file, as its name does
not start with ``test_``.

Encounter i is drawn from ``random.Random(i)``.  The first ``CENSUS_SIZE``
are traffic: 2-4 aircraft 3-9 nmi out on random bearings, flying at the
centre at 150-480 kt with up to 40 kt of error on each axis, within 500 ft
of a base altitude of 3,000-40,000 ft and climbing, descending or level at
500 fpm; mostly ``ta_ra``, some ``ta_only`` and ``xpdr``; 90 s each, and
every fourth on an AWGN channel at 8, 12 or 20 dB.  The next
``PHANTOM_DRAWS`` are ``head_on_phantom`` with its geometry drawn (see
``phantom``), and the last ``FLOOD_DRAWS`` are all-call and squitter
floods (see ``flood``).  The traffic encounters come first, so their
numbers stay comparable with a census that had only them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

CENSUS_SIZE = 160  # traffic encounters
PHANTOM_DRAWS = 160
FLOOD_DRAWS = 40
TOTAL = CENSUS_SIZE + PHANTOM_DRAWS + FLOOD_DRAWS
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


def _aircraft(name: str, icao: int, mode: str, xyz: tuple, velocity: tuple) -> dict:
    return {"name": name, "icao": f"{icao:06X}", "mode": mode,
            "position": dict(zip(("x_nmi", "y_nmi", "altitude_ft"), xyz)),
            "velocity": dict(zip(("vx_kt", "vy_kt", "vertical_rate_fpm"), velocity))}


def encounter(i: int) -> dict:
    """The census's i-th traffic scenario document."""
    rng = random.Random(i)
    base_ft = rng.uniform(3_000.0, 40_000.0)
    aircraft = []
    for k in range(rng.randint(2, 4)):
        range_nmi, bearing = rng.uniform(3.0, 9.0), rng.uniform(0.0, 2 * math.pi)
        speed_kt = rng.uniform(150.0, 480.0)
        dx, dy = math.cos(bearing), math.sin(bearing)
        aircraft.append(_aircraft(
            f"ac{k}", 0xA00001 + k, rng.choices(["ta_ra", "ta_only", "xpdr"], weights=[6, 1, 1])[0],
            (range_nmi * dx, range_nmi * dy, base_ft + rng.uniform(-500.0, 500.0)),
            (-speed_kt * dx + rng.uniform(-40.0, 40.0), -speed_kt * dy + rng.uniform(-40.0, 40.0),
             rng.choice([0.0, 500.0, -500.0]))))
    doc = {"schema_version": 1, "name": f"census{i}", "duration_s": 90.0, "aircraft": aircraft}
    if i % 4 == 0:
        doc["channel"] = {"kind": "awgn", "snr_db": rng.choice([8.0, 12.0, 20.0])}
        doc["seed"] = i
    return doc


def phantom(i: int) -> dict:
    """``head_on_phantom`` with the victim's altitude drawn from 300-3,000,
    3,000-45,000 or 200,000-204,700 ft, both speeds from 150-520 kt, the
    intruder within 1,500 ft of the victim, the attacker anywhere in x
    -30..10 and y -10..10 nmi, and a plan of 2-14 nmi, 200-900 kt, a floor
    of 0.1-1.5 nmi and an altitude within 900 ft of the victim's."""
    rng = random.Random(i)
    victim_ft = rng.uniform(*rng.choice([(300.0, 3_000.0), (3_000.0, 45_000.0),
                                         (200_000.0, 204_700.0)]))
    victim_kt, intruder_kt = rng.uniform(150.0, 520.0), rng.uniform(150.0, 520.0)
    return {
        "schema_version": 1, "name": f"phantom{i}", "duration_s": 210.0,
        "surveillance_period_s": 1.0, "seed": 7, "channel": {"kind": "noiseless"},
        "aircraft": [
            _aircraft("victim", 0x3C4EFA, "ta_ra", (-20.0, 0.0, victim_ft), (victim_kt, 0.0, 0.0)),
            _aircraft("intruder", 0x4B17C3, "ta_ra",
                      (20.0, 0.0, victim_ft + rng.uniform(-1_500.0, 1_500.0)),
                      (-intruder_kt, 0.0, 0.0))],
        "attacker": {
            "name": "ground", "mission": "phantom",
            "position": {"x_nmi": rng.uniform(-30.0, 10.0), "y_nmi": rng.uniform(-10.0, 10.0),
                         "altitude_ft": 0.0},
            "target": "3C4EFA",
            "plan": {"initial_range_nmi": rng.uniform(2.0, 14.0),
                     "closure_kt": rng.uniform(200.0, 900.0),
                     "floor_nmi": rng.uniform(0.1, 1.5),
                     "altitude_ft": victim_ft + rng.uniform(-900.0, 900.0)},
            "bait_timeout_s": 20.0,
            "jam": [{"target": "4B17C3", "start_s": 5.0, "end_s": None}]},
        "success": ["phases_complete", "nmac_occurred"],
    }


def flood(i: int) -> dict:
    """An all-call or squitter flood of 1-40 Hz for 1-10 s, from a ground
    station within 10 nmi of the centre, over 2-5 aircraft within 20 nmi of
    it at 1,000-40,000 ft and up to 300 kt, in a 12-30 s run."""
    rng = random.Random(i)
    squitter = rng.random() < 0.5
    aircraft = [_aircraft(f"ac{k}", 0xA10001 + k, rng.choice(["ta_ra", "ta_only", "xpdr"]),
                          (rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0),
                           rng.uniform(1_000.0, 40_000.0)),
                          (rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0), 0.0))
                for k in range(rng.randint(2, 5))]
    plan = {"rate_hz": rng.uniform(1.0, 40.0), "duration_s": rng.uniform(1.0, 10.0)}
    if squitter:
        plan["address_base"] = f"{rng.randint(1, 0xFF0000):06X}"
    return {
        "schema_version": 1, "name": f"flood{i}", "duration_s": rng.uniform(12.0, 30.0),
        "seed": i, "aircraft": aircraft,
        "attacker": {"name": "ground", "mission": "squitter_flood" if squitter else "all_call_flood",
                     "position": {"x_nmi": rng.uniform(-10.0, 10.0),
                                  "y_nmi": rng.uniform(-10.0, 10.0), "altitude_ft": 0.0},
                     "flood": plan},
        "success": ["track_evicted" if squitter else "flood_complete"],
    }


def document(i: int) -> dict:
    """The census's i-th scenario document, of any kind."""
    if i < CENSUS_SIZE:
        return encounter(i)
    return phantom(i) if i < CENSUS_SIZE + PHANTOM_DRAWS else flood(i)


def _sha256(records) -> str:
    text = "".join(rec.to_line() + "\n" for rec in records)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _reached(records) -> list[str]:
    return sorted(name for name, seen in REACHED.items() if any(seen(rec.outcome) for rec in records))


def outcome(i: int) -> dict:
    """What became of encounter i under the ``tcassim`` on the import path."""
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
            "reached": _reached(result.records)}


def loss_counts(seed: int) -> list[int]:
    """The frames lost at each of ``LOSS_SNRS_DB`` by the ``loss_sweep`` on
    the import path, for a scenario of this seed."""
    from tcassim import harness, scenario

    loaded = scenario.load_scenario({
        "schema_version": 1, "name": f"loss{seed}", "duration_s": 1.0, "seed": seed,
        "channel": {"kind": "awgn", "snr_db": 12.0},
        "aircraft": [_aircraft("probe", 0xA20000, "xpdr", (0.0, 0.0, 10_000.0), (0.0, 0.0, 0.0))]})
    return [point.lost for point in harness.loss_sweep(loaded, LOSS_SNRS_DB, LOSS_CORPUS)]


def run_census() -> None:
    """Run the census with the ``tcassim`` on the import path; print where
    it was imported from, then one JSON line per encounter and one per loss
    seed."""
    import tcassim

    print(json.dumps(tcassim.__file__))
    for i in range(TOTAL):
        print(json.dumps(outcome(i), sort_keys=True), flush=True)
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
    for src, rows in zip(trees, (old, new)):
        statuses = [row["status"] for row in rows]
        print(f"{src}: {TOTAL - statuses.count('load_error')} loaded, "
              f"{statuses.count('ran')} ran clean, {statuses.count('run_error')} failed part-way")
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
    return 1 if differ or lost_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
