"""The seeded census of scenario documents that ``tests/logdiff.py`` runs.

Encounter i is drawn from ``random.Random(i)``, so each document depends on
its number alone.  The first ``CENSUS_SIZE`` are traffic: 2-4 aircraft 3-9
nmi out on random bearings, flying at the centre at 150-480 kt with up to
40 kt of error on each axis, within 500 ft of a base altitude of
3,000-40,000 ft and climbing, descending or level at 500 fpm; mostly
``ta_ra``, some ``ta_only`` and ``xpdr``; 90 s each, and every fourth on an
AWGN channel at 8, 12 or 20 dB.  The next ``PHANTOM_DRAWS`` are
``head_on_phantom`` with its geometry drawn (see ``phantom``), and the last
``FLOOD_DRAWS`` are all-call and squitter floods (see ``flood``).  The
traffic encounters come first, so their numbers stay comparable with a
census that had only them.  The module needs nothing beyond the standard
library, and pytest does not collect it, as its name does not start with
``test_``.
"""

from __future__ import annotations

import math
import random

CENSUS_SIZE = 160  # traffic encounters
PHANTOM_DRAWS = 160
FLOOD_DRAWS = 40
TOTAL = CENSUS_SIZE + PHANTOM_DRAWS + FLOOD_DRAWS


def aircraft_entry(name: str, icao: int, mode: str, xyz: tuple, velocity: tuple) -> dict:
    """One aircraft of a scenario document."""
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
        aircraft.append(aircraft_entry(
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
            aircraft_entry("victim", 0x3C4EFA, "ta_ra", (-20.0, 0.0, victim_ft),
                           (victim_kt, 0.0, 0.0)),
            aircraft_entry("intruder", 0x4B17C3, "ta_ra",
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
    aircraft = [aircraft_entry(f"ac{k}", 0xA10001 + k, rng.choice(["ta_ra", "ta_only", "xpdr"]),
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
