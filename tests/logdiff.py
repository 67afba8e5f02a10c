"""Compare two source trees' logs and reports over a seeded census of encounters.

A script that needs nothing beyond the standard library:

    python tests/logdiff.py OLD_SRC NEW_SRC

Each ``src`` tree runs the whole census in its own subprocess, and the
script checks that each imported ``tcassim`` from its own tree.  It
prints every encounter whose log or report sha256 differs between the two,
then how many encounters reach each of ``REACHED`` in each tree, and exits
1 when any encounter differs.  Pytest does not collect this file, as its
name does not start with ``test_``.

The census is ``CENSUS_SIZE`` encounters, the i-th drawn from
``random.Random(i)``: 2-4 aircraft 3-9 nmi out on random bearings, flying at
the centre at 150-480 kt with up to 40 kt of error on each axis, within
500 ft of a base altitude of 3,000-40,000 ft and climbing, descending or
level at 500 fpm; mostly ``ta_ra``, some ``ta_only`` and ``xpdr``; 90 s
each, and every fourth on an AWGN channel at 8, 12 or 20 dB.
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

CENSUS_SIZE = 160
# what an encounter can reach, each read from a log outcome
REACHED = {
    "clear_of_conflict": lambda outcome: outcome == "ra_cleared;clear_of_conflict",
    "ra_reversal": lambda outcome: outcome.startswith("ra_reversal;"),
    "ta_cleared": lambda outcome: outcome == "ta_cleared",
    "track_drop": lambda outcome: outcome.startswith("track_drop;"),
}


def encounter(i: int) -> dict:
    """The census's i-th scenario document."""
    rng = random.Random(i)
    base_ft = rng.uniform(3_000.0, 40_000.0)
    aircraft = []
    for k in range(rng.randint(2, 4)):
        range_nmi, bearing = rng.uniform(3.0, 9.0), rng.uniform(0.0, 2 * math.pi)
        speed_kt = rng.uniform(150.0, 480.0)
        dx, dy = math.cos(bearing), math.sin(bearing)
        aircraft.append({
            "name": f"ac{k}", "icao": f"{0xA00001 + k:06X}",
            "mode": rng.choices(["ta_ra", "ta_only", "xpdr"], weights=[6, 1, 1])[0],
            "position": {"x_nmi": range_nmi * dx, "y_nmi": range_nmi * dy,
                         "altitude_ft": base_ft + rng.uniform(-500.0, 500.0)},
            "velocity": {"vx_kt": -speed_kt * dx + rng.uniform(-40.0, 40.0),
                         "vy_kt": -speed_kt * dy + rng.uniform(-40.0, 40.0),
                         "vertical_rate_fpm": rng.choice([0.0, 500.0, -500.0])}})
    doc = {"schema_version": 1, "name": f"census{i}", "duration_s": 90.0, "aircraft": aircraft}
    if i % 4 == 0:
        doc["channel"] = {"kind": "awgn", "snr_db": rng.choice([8.0, 12.0, 20.0])}
        doc["seed"] = i
    return doc


def run_census() -> None:
    """Run the census with the ``tcassim`` on the import path; print where
    it was imported from, then one JSON line per encounter."""
    import tcassim
    from tcassim import harness, scenario

    print(json.dumps(tcassim.__file__))
    for i in range(CENSUS_SIZE):
        result = harness.simulate(scenario.load_scenario(encounter(i)))
        log_text = "".join(rec.to_line() + "\n" for rec in result.records)
        reached = sorted(name for name, seen in REACHED.items()
                         if any(seen(rec.outcome) for rec in result.records))
        print(json.dumps([hashlib.sha256(log_text.encode("ascii")).hexdigest(),
                          hashlib.sha256(result.report.to_json().encode("ascii")).hexdigest(),
                          reached]), flush=True)


def _start(src: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{Path(__file__).resolve().parent}"}
    return subprocess.Popen([sys.executable, "-c", "import logdiff; logdiff.run_census()"],
                            env=env, stdout=subprocess.PIPE, text=True)


def _collect(src: Path, proc: subprocess.Popen, out: str) -> list:
    if proc.returncode != 0:
        sys.exit(f"{src}: the census exited {proc.returncode}")
    imported, *rows = [json.loads(line) for line in out.splitlines()]
    if not Path(imported).resolve().is_relative_to(src):
        sys.exit(f"{src}: tcassim was imported from {imported}")
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit("usage: python tests/logdiff.py OLD_SRC NEW_SRC")
    trees = [Path(arg).resolve() for arg in argv]
    procs = [_start(src) for src in trees]  # the two trees run side by side
    outs = [proc.communicate()[0] for proc in procs]
    old, new = (_collect(*run) for run in zip(trees, procs, outs))
    differ = 0
    for i, (a, b) in enumerate(zip(old, new)):
        parts = [what for what, x, y in (("log", a[0], b[0]), ("report", a[1], b[1])) if x != y]
        if parts:
            differ += 1
            print(f"census{i}: {' and '.join(parts)} differ")
    print(f"{CENSUS_SIZE - differ} of {CENSUS_SIZE} encounters have equal log and report digests")
    for name in REACHED:
        print(f"reach {name}: " + ", ".join(
            f"{sum(name in row[2] for row in rows)} in {src}" for src, rows in zip(trees, (old, new))))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
