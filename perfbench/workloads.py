"""Workload definitions, the seeded ring generator and the correctness gate.

Each workload is a list of jobs run back to back by one thread.  A job is
a simulate job (``harness.simulate``, then the log and metrics JSON written
to a scratch directory, the log read back and ``metrics_from_log`` run on
it again), the ``loss_sweep`` job or the fault-tree sweep job.  Only the job
bodies are timed; hashing and comparing their outputs happens afterwards.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path

WORKLOADS = ("ring_surveillance", "ring_awgn", "attack_campaign")

RING_SPEED_KT = 300.0
RING_ALTITUDE_FT = 30_000.0
RING_ALTITUDE_JITTER_FT = 300.0
RING_BEARING_JITTER_DEG = 2.0
RING_ICAO_BASE = 0xA10000

LOSS_SNRS_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
LOSS_CORPUS = 600
FTA_GRID = tuple(k / 6 for k in range(7))  # 7 points per factor, 7**5 rows

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def ring_document(n: int, radius_nmi: float, duration_s: float, seed: int,
                  channel: dict | None = None) -> dict:
    """N TA/RA aircraft evenly spaced on a ring, all flying at its centre.

    The seed jitters each bearing by up to 2 degrees and each altitude by up
    to 300 ft, so every pair stays inside the 600 ft resolution gate.  At
    300 kt every pair closes with the same time to go, 12 s per nmi of
    radius: at R = 4 the 48 s traffic gate is crossed at once and the 35 s
    resolution gate about 13 s later.
    """
    rng = random.Random(seed)
    aircraft = []
    for i in range(n):
        bearing = 2 * math.pi * i / n + math.radians(
            rng.uniform(-RING_BEARING_JITTER_DEG, RING_BEARING_JITTER_DEG))
        altitude = RING_ALTITUDE_FT + rng.uniform(-RING_ALTITUDE_JITTER_FT,
                                                  RING_ALTITUDE_JITTER_FT)
        aircraft.append({
            "name": f"ring{i:02d}",
            "icao": f"{RING_ICAO_BASE + i:06X}",
            "mode": "ta_ra",
            "position": {"x_nmi": radius_nmi * math.cos(bearing),
                         "y_nmi": radius_nmi * math.sin(bearing),
                         "altitude_ft": round(altitude)},
            "velocity": {"vx_kt": -RING_SPEED_KT * math.cos(bearing),
                         "vy_kt": -RING_SPEED_KT * math.sin(bearing)},
        })
    return {
        "schema_version": 1,
        "name": f"ring{n}_r{radius_nmi:g}",
        "duration_s": duration_s,
        "seed": seed,
        "channel": channel or {"kind": "noiseless"},
        "aircraft": aircraft,
    }


def loss_document(seed: int) -> dict:
    """Carrier for the loss sweep: ``loss_sweep`` reads only the seed."""
    return {
        "schema_version": 1,
        "name": "loss_corpus",
        "duration_s": 1.0,
        "seed": seed,
        "channel": {"kind": "awgn", "snr_db": 12.0},
        "aircraft": [{"name": "probe", "icao": "A20000",
                      "position": {"x_nmi": 0.0, "y_nmi": 0.0, "altitude_ft": 10_000.0}}],
    }


def documents(workload: str, seed: int) -> dict:
    """The generated scenario documents a workload loads, by job name."""
    if workload == "ring_surveillance":
        return {"ring": ring_document(12, 4.0, 30.0, seed)}
    if workload == "ring_awgn":
        # 3 nmi rather than 4: with noisy range rates the resolution advisory
        # comes late enough at 4 nmi that no pilot engages within 15 s.
        return {"ring": ring_document(8, 3.0, 15.0, seed,
                                      {"kind": "awgn", "snr_db": 12.0})}
    if workload == "attack_campaign":
        return {"loss": loss_document(seed)}
    raise ValueError(f"unknown workload {workload!r}")


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def log_counts(records) -> dict:
    """Deterministic counts from a log: records by kind, deliveries by outcome."""
    kinds = Counter(r.kind for r in records)
    outcomes = Counter(r.outcome for r in records if r.kind == "deliver")
    tcas = Counter(r.outcome.split(";", 1)[0] for r in records if r.kind in ("tcas", "pilot"))
    sent = sum(1 for r in records if r.kind == "transmit" and r.outcome == "sent")
    return {"kinds": dict(kinds), "outcomes": dict(outcomes), "sent": sent,
            "ta": tcas["ta_issued"], "ra": tcas["ra_issued"], "engage": tcas["engage"]}


def merge_counts(parts: list[dict]) -> dict:
    kinds, outcomes = Counter(), Counter()
    for p in parts:
        kinds.update(p["kinds"])
        outcomes.update(p["outcomes"])
    return {"kinds": dict(kinds), "outcomes": dict(outcomes),
            "sent": sum(p["sent"] for p in parts),
            "ta": sum(p["ta"] for p in parts), "ra": sum(p["ra"] for p in parts),
            "engage": sum(p["engage"] for p in parts)}


class Gate:
    """Counts the checks a run attempts and records the ones that fail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def equal(self, got, want, what: str) -> None:
        self.check(got == want, f"{what}: got {got!r}, want {want!r}")
