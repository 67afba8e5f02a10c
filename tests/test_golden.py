"""Golden replay: each bundled scenario's log and report, one small AWGN
ring's, one small noiseless ring's and one ground transponder's log and
report, and a short ``loss_sweep`` are pinned across commits, not only
between two runs in one process.

The digests are sha256 of the log text exactly as ``write_event_log``
writes it (``to_line() + "\\n"`` per record) and of ``report.to_json()``.
They were recorded once and must never be regenerated to make a change
pass: a mismatch means the simulator's behaviour changed.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from tcassim import harness
from tcassim import scenario as scen

GOLDEN = {
    "all_call_flood": (
        "ae8835bab980436cb945123ff299b0a59e1d400bc6dcbb180a6f21d519331f92",
        "63e84afc07b675aee120c69782c0736d34ffbfcbcc146881f3bdbfc5284f4ac7"),
    "all_call_flood/control": (
        "0e87db8b44ebda6ab30c461513393c1f683da0512731c94f976728e76a151678",
        "e17303324701b75f52e838789187983d3638d582a07470b9efb3647c7ca06bd5"),
    "benign_pair": (
        "7bdcd812bdc62add2d356518aa134db2cf9d4f8af9a6e233159d208cd29764e9",
        "ba5e047cd06df18a0bd9f2e05e13588f78b5da440d4d1891254d82d40451776c"),
    "benign_pair/control": (
        "7bdcd812bdc62add2d356518aa134db2cf9d4f8af9a6e233159d208cd29764e9",
        "ba5e047cd06df18a0bd9f2e05e13588f78b5da440d4d1891254d82d40451776c"),
    "head_on_phantom": (
        "ca9e340a1448e8369172900158180eb7cc10bc7d9900194fc82276312c22f840",
        "98b9f0fa7c58295ab03d2068256297025bfb11a5e899519019524c9e01d1770b"),
    "head_on_phantom/control": (
        "c787a5798e395698aeb65158d903f64a3a03a4a06817598324154713d48b86d6",
        "89eb2a857b0b48e8443671582685a6f90a27177bb8f00c8c643b8c99c5a89f59"),
    "squitter_flood": (
        "ce3180109844f9b5deb5b017a42725baa1602cbfd429cefbd80287137f2c163e",
        "5f4e33db397e2e5219bb6ba2886e49cf06c3f2311651ba04ada8c2dc10e04093"),
    "squitter_flood/control": (
        "dfc78b8f274892534f026c45dbcbf1b899e8482384d7460e1c8ade023dd7e71a",
        "e4fcfd57ec8abd91066adce6397df50e8b76abc9ad30927f4102146d65d4fd8c"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("job", sorted(GOLDEN))
def test_bundled_log_and_report_digests(job):
    name, _, variant = job.partition("/")
    scenario = scen.bundled_scenario(name)
    if variant == "control":
        scenario = scenario.without_attacker()
    result = harness.simulate(scenario)
    log_text = "".join(rec.to_line() + "\n" for rec in result.records)
    assert (_sha256(log_text), _sha256(result.report.to_json())) == GOLDEN[job]


# The bundled scenarios are all noiseless, so they never reach the modem.
# This small ring runs every reception through AwgnChannel: four converging
# TA/RA aircraft at 12 dB, whose log holds phy_drop, parity_drop and
# range_update deliveries.
AWGN_RING = {
    "schema_version": 1,
    "name": "awgn_ring4",
    "duration_s": 10.0,
    "seed": 7,
    "channel": {"kind": "awgn", "snr_db": 12.0},
    "aircraft": [
        {"name": f"ring{i}", "icao": f"A1000{i}", "mode": "ta_ra",
         "position": {"x_nmi": 3.0 * dx, "y_nmi": 3.0 * dy, "altitude_ft": alt},
         "velocity": {"vx_kt": -300.0 * dx, "vy_kt": -300.0 * dy}}
        for i, (dx, dy, alt) in enumerate([(1, 0, 30_000), (0, 1, 30_100),
                                           (-1, 0, 29_900), (0, -1, 30_200)])
    ],
}
AWGN_RING_GOLDEN = (
    "8604ce0c1e69838badc81236961100a10761295bf65fffc820a04b89a8d96d20",
    "4af2b1ba8aecd0dbc6a2006d3ee96983dd7b56778f28786736426d6d769f846f")
AWGN_LOSS_GOLDEN = [200, 177, 100, 0]  # lost of 200 frames at 0, 5, 10, 15 dB


def test_awgn_ring_log_and_report_digests():
    result = harness.simulate(scen.load_scenario(AWGN_RING))
    log_text = "".join(rec.to_line() + "\n" for rec in result.records)
    outcomes = {rec.outcome.split(";", 1)[0] for rec in result.records if rec.kind == "deliver"}
    assert {"phy_drop", "parity_drop", "range_update"} <= outcomes
    assert (_sha256(log_text), _sha256(result.report.to_json())) == AWGN_RING_GOLDEN


def test_awgn_loss_sweep_counts():
    points = harness.loss_sweep(scen.load_scenario(AWGN_RING), [0.0, 5.0, 10.0, 15.0], 200)
    assert [p.lost for p in points] == AWGN_LOSS_GOLDEN


# Every other pinned scenario has a fan-out of at most 3.  This ring of six
# converging TA/RA aircraft hands each frame to five receivers, and in 20 s
# reaches traffic and resolution advisories, coordination and pilot engages.
# Bearings come from 3-4-5 triangles, so no libm call decides a position.
RING_BEARINGS = [(1.0, 0.0), (0.6, 0.8), (-0.6, 0.8), (-1.0, 0.0), (-0.6, -0.8), (0.6, -0.8)]
NOISELESS_RING = {
    "schema_version": 1,
    "name": "ring6",
    "duration_s": 20.0,
    "seed": 5,
    "channel": {"kind": "noiseless"},
    "aircraft": [
        {"name": f"ring{i}", "icao": f"A2000{i}", "mode": "ta_ra",
         "position": {"x_nmi": 4.0 * dx, "y_nmi": 4.0 * dy, "altitude_ft": alt},
         "velocity": {"vx_kt": -300.0 * dx, "vy_kt": -300.0 * dy}}
        for i, ((dx, dy), alt) in enumerate(zip(
            RING_BEARINGS, [30_000, 30_150, 29_900, 30_250, 29_800, 30_050]))
    ],
}
NOISELESS_RING_GOLDEN = (
    "70310a2b6c2fe283c9513cbf94d700f655c676c87e26d93f69c8f125d863e9af",
    "dc38f65dd4994bfae829b33215d4167654323770ce49a4cee28ddb164c3b6f58")


def test_noiseless_ring_log_and_report_digests():
    result = harness.simulate(scen.load_scenario(NOISELESS_RING))
    sent = Counter(rec.source for rec in result.records if rec.kind == "transmit")
    heard = Counter(rec.source for rec in result.records if rec.kind == "deliver")
    receivers = {}
    for rec in result.records:
        if rec.kind == "deliver":
            receivers.setdefault(rec.source, set()).add(rec.destination)
    assert all(len(names) == 5 for names in receivers.values())
    # copies still in flight at the horizon are never delivered
    assert all(5 * sent[name] - 5 <= heard[name] <= 5 * sent[name] for name in sent)
    assert {"ta_issued", "ra_issued", "engage"} <= {rec.outcome.split(";", 1)[0] for rec in result.records}
    log_text = "".join(rec.to_line() + "\n" for rec in result.records)
    assert (_sha256(log_text), _sha256(result.report.to_json())) == NOISELESS_RING_GOLDEN


# A transponder at 0 ft answers a UF4 with a DF4 whose altitude code and
# spare bits are all zero, so the reply's hex equals the interrogation's.
# The report labels a delivery with the label its own source sent the hex
# under, so every UF4 delivery to the transponder counts as UF4 and every
# reply to the interrogator as DF4.
GROUND_TRANSPONDER = {
    "schema_version": 1,
    "name": "ground_uf4",
    "duration_s": 10.0,
    "seed": 2,
    "channel": {"kind": "noiseless"},
    "aircraft": [
        {"name": "own", "icao": "A30001", "mode": "ta_ra",
         "position": {"x_nmi": 0.0, "y_nmi": 0.0, "altitude_ft": 2000.0},
         "velocity": {"vx_kt": 200.0, "vy_kt": 0.0}},
        {"name": "ground", "icao": "A30002", "mode": "xpdr",
         "position": {"x_nmi": 3.0, "y_nmi": 1.0, "altitude_ft": 0.0}},
    ],
}
GROUND_TRANSPONDER_GOLDEN = (
    "a5c52f3fc0244c77594464e7f30e2baf0821a57879c8715abab14447e8b608e8",
    "ec91dce67d47c38bd519dfff5cbdd3f501848f27f3dc58201c57506ed4e73ca5")


def test_ground_transponder_reply_repeats_the_interrogation_hex():
    result = harness.simulate(scen.load_scenario(GROUND_TRANSPONDER))
    sent = {}
    for rec in result.records:
        if rec.kind == "transmit":
            sent.setdefault(rec.frame_hex, set()).add(rec.source)
    assert any(sources == {"own", "ground"} for sources in sent.values())
    assert result.report.deliveries["UF4>ground"] == 10
    assert "DF4>ground" not in result.report.deliveries
    log_text = "".join(rec.to_line() + "\n" for rec in result.records)
    assert (_sha256(log_text), _sha256(result.report.to_json())) == GROUND_TRANSPONDER_GOLDEN
