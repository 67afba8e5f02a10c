"""Acceptance gate: nine pinned end-to-end behaviors, one test per criterion.

Tolerances and wall-clock budgets are asserted inside each test, so
``pytest -v`` prints a standalone pass/fail line per criterion.  Expected
values are written as literals rather than imported from the package: the
test is the oracle.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from tcassim import fta, harness, phy
from tcassim import modes_codec as codec
from tcassim.scenario import bundled_scenario, bundled_scenario_names, load_scenario

# Range grain of one reply symbol: 1 us of PPM airtime covers 0.5 us of
# one-way propagation each direction, about 0.081 nmi.
RANGE_QUANTUM_NMI = 0.5e-6 * 299_792_458.0 / 1852.0


@contextmanager
def budget(seconds: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"took {elapsed:.1f} s, budget {seconds:.0f} s"


def test_criterion_1_fault_tree_baseline_exact():
    report = fta.top_event(fta.HumanFactors())
    assert report.p_unresolved == pytest.approx(0.413, abs=1e-12)
    assert report.p_induced == pytest.approx(0.11, abs=1e-12)
    assert report.p_top_sum == pytest.approx(0.523, abs=1e-12)
    assert report.p_top_published == pytest.approx(0.424, abs=1e-12)
    assert report.p_top_sum - report.p_top_published == pytest.approx(0.099, abs=1e-12)


def test_criterion_2_codec_round_trip_and_single_bit_rejection():
    with budget(10):
        rng = np.random.default_rng(0x5EED)
        n = 10_000
        for kind in ("all_call", "surveillance_short", "surveillance_long"):
            addrs = rng.integers(1, 1 << 24, n)
            racs = rng.integers(0, 4, n)
            actives = rng.integers(0, 2, n)
            senders = rng.integers(1, 1 << 24, n)
            for a, r, act, s in zip(addrs, racs, actives, senders):
                if kind == "all_call":
                    frame, expect = codec.build_interrogation(kind), None
                elif kind == "surveillance_short":
                    frame, expect = codec.build_interrogation(kind, int(a)), int(a)
                else:
                    frame = codec.build_interrogation(kind, int(a), rac=int(r),
                                                      ra_active=bool(act), sender=int(s))
                    expect = int(a)
                back = codec.ModeSFrame.from_hex(frame.to_hex(), codec.UPLINK)
                decoded = codec.parse_frame(back, expected_address=expect)
                assert back.word == frame.word
                assert decoded.kind == kind and decoded.parity.passed
                if kind == "surveillance_long":
                    assert decoded.fields["rac"] == r
                    assert decoded.fields["ra_active"] == act
                    assert decoded.fields["sender"] == s

        for kind in ("all_call", "extended_squitter", "surveillance_short", "surveillance_long"):
            addrs = rng.integers(1, 1 << 24, n)
            alts = rng.integers(0, 8192, n) * 25
            racs = rng.integers(0, 4, n)
            actives = rng.integers(0, 2, n)
            broadcast = kind in ("all_call", "extended_squitter")
            for a, alt, r, act in zip(addrs, alts, racs, actives):
                if kind == "all_call":
                    frame = codec.build_reply(kind, int(a))
                elif kind == "surveillance_long":
                    frame = codec.build_reply(kind, int(a), altitude_ft=int(alt),
                                              rac=int(r), ra_active=bool(act))
                else:
                    frame = codec.build_reply(kind, int(a), altitude_ft=int(alt))
                back = codec.ModeSFrame.from_hex(frame.to_hex(), codec.DOWNLINK)
                decoded = codec.parse_frame(back, expected_address=None if broadcast else int(a))
                assert back.word == frame.word
                assert decoded.kind == kind and decoded.parity.passed
                if broadcast:
                    assert decoded.fields["icao"] == a
                if kind != "all_call":
                    assert decoded.altitude_ft == alt
                if kind == "surveillance_long":
                    assert decoded.fields["rac"] == r
                    assert decoded.fields["ra_active"] == act

        long_frame = codec.build_reply("extended_squitter", 0x3C4EFA, altitude_ft=41400)
        short_frame = codec.build_reply("all_call", 0x4B17C3)
        for frame in (long_frame, short_frame):
            rejected = sum(
                not codec.verify_frame(
                    codec.ModeSFrame(frame.direction, frame.nbits, frame.word ^ (1 << i)),
                    0).passed
                for i in range(frame.nbits))
            assert rejected == frame.nbits


def test_criterion_3_modem_fidelity_and_loss_monotonicity():
    with budget(60):
        rng = np.random.default_rng(0xF1DE)
        ppm_errors = dbpsk_errors = 0
        for _ in range(1000):
            bits = rng.integers(0, 2, rng.choice([56, 112]))
            blk = phy.ppm_modulate(bits)
            dets = phy.ppm_frame_detect(blk)
            out = phy.ppm_demodulate(blk, dets[0].offset, bits.size)
            ppm_errors += int((out != bits).sum())
        for _ in range(1000):
            bits = rng.integers(0, 2, rng.choice([56, 112]))
            blk = phy.dbpsk_modulate(bits)
            dets = phy.dbpsk_frame_detect(blk)
            out = phy.dbpsk_demodulate(blk, phy.sync_offset_of(dets[0].offset))
            dbpsk_errors += int((out[:bits.size] != bits).sum())
        assert ppm_errors == 0 and dbpsk_errors == 0

        scenario = load_scenario({
            "schema_version": 1, "name": "sweep", "duration_s": 1.0, "seed": 5,
            "channel": {"kind": "awgn", "snr_db": 15.0},
            "aircraft": [{"name": "solo", "icao": "ABC123",
                          "position": {"x_nmi": 0.0, "y_nmi": 0.0, "altitude_ft": 30000.0}}],
        })
        points = harness.loss_sweep(scenario, [0, 5, 10, 15, 20, 25], corpus_size=600)
        assert [p.snr_db for p in points] == [0, 5, 10, 15, 20, 25]
        assert all(p.samples == 600 for p in points)
        fractions = [p.loss_fraction for p in points]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] < 0.01


def test_criterion_4_benign_pair_surveillance_cadence():
    with budget(10):
        result = harness.simulate(bundled_scenario("benign_pair"))
    rounds = result.report.rounds_per_track
    assert len(rounds) == 2
    assert all(abs(count - 600) <= 2 for count in rounds.values())
    assert result.report.succeeded


def test_criterion_5_stationary_phantom_range_within_one_symbol():
    scenario = load_scenario({
        "schema_version": 1, "name": "stationary_phantom", "duration_s": 60.0,
        "seed": 21, "channel": {"kind": "awgn", "snr_db": 25.0},
        "aircraft": [{
            "name": "victim", "icao": "3C4EFA", "mode": "ta_ra",
            "position": {"x_nmi": 0.0, "y_nmi": 0.0, "altitude_ft": 30000.0},
        }],
        "attacker": {
            "name": "ground", "mission": "phantom",
            "position": {"x_nmi": 1.0, "y_nmi": 0.0, "altitude_ft": 30000.0},
            "target": "3C4EFA",
            "plan": {"initial_range_nmi": 1.0, "closure_kt": 0.0,
                     "floor_nmi": 0.5, "altitude_ft": 33000.0},
        },
    })
    result = harness.simulate(scenario)
    series = result.report.range_series["victim>3c4ef9"]
    assert len(series) >= 40
    worst = max(abs(estimate - 1.0) for _, estimate in series)
    assert worst <= RANGE_QUANTUM_NMI


def test_criterion_6_phantom_plan_tracked_within_half_symbol():
    result = harness.simulate(bundled_scenario("head_on_phantom"))
    series = result.report.plan_error_series
    assert len(series) >= 30
    span_s = (series[-1][0] - series[0][0]) / 1e9
    assert span_s >= 30
    worst = max(abs(err) for _, _, _, err in series)
    assert worst <= RANGE_QUANTUM_NMI / 2


def test_criterion_7_phantom_induces_descend_ra_and_nmac():
    with budget(30):
        result = harness.simulate(bundled_scenario("head_on_phantom"))
    report = result.report
    assert [phase for _, phase in report.attack_phases] == [
        "recon", "baiting", "tracking", "threat_declared", "done"]
    assert any(e[3] == "ra_issued;descend;limit=40800" and e[1] == "victim"
               for e in report.advisories)
    assert report.nmac_occurred
    assert any({w[0], w[1]} == {"victim", "intruder"} for w in report.nmac_windows)


def test_criterion_8_flood_denial_of_service():
    with budget(30):
        flooded = harness.simulate(bundled_scenario("squitter_flood"))
        control = harness.simulate(bundled_scenario("squitter_flood").without_attacker())
        all_call = harness.simulate(bundled_scenario("all_call_flood"))

    assert any(e[1] == "watcher" and e[2] == "3c5a77" and e[3] == "track_drop;evicted"
               for e in flooded.report.track_events)
    assert not any(e[2] == "3c5a77" and e[3].startswith("track_drop")
                   for e in control.report.track_events)
    assert control.report.rounds_per_track["watcher>3c5a77"] == 30

    assert all_call.report.deliveries["DF11>ground"] == 1000
    assert all_call.report.succeeded


def test_criterion_9_replay_determinism():
    with budget(60):
        for name in bundled_scenario_names():
            first = harness.simulate(bundled_scenario(name))
            second = harness.simulate(bundled_scenario(name))
            assert [r.to_line() for r in first.records] == [r.to_line() for r in second.records]
            assert first.report.to_json() == second.report.to_json()
