"""Surveillance, threat logic, coordination, pilot model, NMAC geometry."""

from __future__ import annotations

import gc
import hashlib
import math
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tcassim import airspace, harness, modes_codec as codec, scenario as scen, tcas

import census
import oracles


def _aircraft(name, icao, x, alt, vx=0.0, vy=0.0, y=0.0, vr=0.0, **kw):
    state = airspace.AircraftState(x, y, alt, vx, vy, vr)
    return tcas.Aircraft(name, icao, state, **kw)


@st.composite
def _trajectory(draw):
    """1-3 knots from t=0 on a whole-millisecond clock; each later knot
    starts where the previous one's motion has taken it, with new
    velocities, as a manoeuvre does.  Integer steps of 1 ft, 1 kt and
    1 fpm keep every relative rate well clear of zero."""
    def state(x_nmi, y_nmi, altitude_ft):
        return airspace.AircraftState(x_nmi, y_nmi, altitude_ft,
                                      draw(st.integers(-600, 600)), draw(st.integers(-30, 30)),
                                      draw(st.integers(-1500, 1500)))

    segs = [(0, state(draw(st.integers(-2000, 2000)) / 1000,
                      draw(st.integers(-100, 100)) / 1000,
                      10_000 + draw(st.integers(-150, 150))))]
    n_later = draw(st.integers(0, 2))
    knots_ms = draw(st.lists(st.integers(1, 29_999), min_size=n_later, max_size=n_later,
                             unique=True))
    for t_ns in sorted(k * 1_000_000 for k in knots_ms):
        at = airspace.step_kinematics(segs[-1][1], (t_ns - segs[-1][0]) / 1e9)
        segs.append((t_ns, state(at.x_nmi, at.y_nmi, at.altitude_ft)))
    return segs


def _build_world(*aircraft, channel=None):
    w = airspace.World(channel=channel)
    for idx, ac in enumerate(aircraft):
        w.add_entity(ac)
        ac.start(w, phase_ns=idx * 37_000_000)
    return w


def _tcas_outcomes(world, source, prefix):
    return [r for r in world.log
            if r.kind == "tcas" and r.source == source and r.outcome.startswith(prefix)]


class TestRangingMath:
    def test_round_trip_of_one_nmi_pair(self):
        # tx -> +6178 ns -> turnaround 128 us -> +6178 ns back
        rtt = 6178 + 128_000 + 6178
        rng = tcas.rtt_to_range_nmi(rtt)
        assert rng == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("rtt", [130_000, 140_356, 251_552, 500_000, 1_363_520])
    def test_matches_long_hand_oracle(self, rtt):
        assert tcas.rtt_to_range_nmi(rtt) == pytest.approx(
            oracles.rtt_to_range_nmi(rtt), abs=1e-12)

    def test_rate_and_tau(self):
        t0, t1 = 0, airspace.NS_PER_S
        rate = tcas.range_rate_kt(10.0, t0, 10.0 - 480.0 / 3600.0, t1)
        assert rate == pytest.approx(-480.0)
        assert tcas.tau_s(6.4, rate) == pytest.approx(48.0)
        assert tcas.tau_s(4.0, 0.0) == math.inf
        assert tcas.tau_s(4.0, 120.0) == math.inf

    def test_rate_matches_oracle(self):
        rng = random.Random(0x7AC5)
        for _ in range(100):
            r0, r1 = rng.uniform(0.5, 60), rng.uniform(0.5, 60)
            dt = rng.randrange(1, 5 * airspace.NS_PER_S)
            got = tcas.range_rate_kt(r0, 0, r1, dt)
            want = oracles.finite_difference_rate_kt(r0, r1, Fraction(dt, airspace.NS_PER_S))
            assert got == pytest.approx(float(want))


class TestSurveillance:
    def test_acquire_then_range_every_second(self):
        a = _aircraft("a", 0x000100, x=0.0, alt=10_000)
        b = _aircraft("b", 0x000200, x=1.0, alt=10_000)
        w = _build_world(a, b)
        w.run_until(60 * airspace.NS_PER_S)
        ranges = _tcas_outcomes(w, "a", "range=")
        assert 58 <= len(ranges) <= 60
        for rec in ranges:
            value = float(rec.outcome.split(";")[0].split("=")[1])
            assert abs(value - 1.0) <= 0.081  # one reply-symbol quantum

    def test_interrogation_cadence_per_track(self):
        a = _aircraft("a", 0x000100, x=0.0, alt=10_000)
        b = _aircraft("b", 0x000200, x=30.0, alt=11_000)
        w = _build_world(a, b)
        w.run_until(60 * airspace.NS_PER_S)
        rounds = [r for r in w.log
                  if r.kind == "transmit" and r.source == "a" and r.destination == "000200"]
        assert 58 <= len(rounds) <= 60

    def test_a_round_is_one_transmit_call_of_every_track_in_address_order(self, monkeypatch):
        calls, per_tick = [], []
        schedule, tick = airspace.World.schedule_transmit, tcas.Aircraft.tick

        def counting_schedule(world, time_ns, entity, *frames):
            calls.append((time_ns, frames))
            schedule(world, time_ns, entity, *frames)

        def counting_tick(unit, world):
            before = len(calls)
            tick(unit, world)
            per_tick.append((world.time_ns, sorted(unit.tracks), calls[before:]))

        monkeypatch.setattr(airspace.World, "schedule_transmit", counting_schedule)
        monkeypatch.setattr(tcas.Aircraft, "tick", counting_tick)
        w = _build_world(*_ring(5))
        w.run_until(20 * airspace.NS_PER_S)
        rounds = 0
        for tick_ns, tracked, made in per_tick:
            if not tracked:  # nothing to interrogate: no call
                assert made == []
                continue
            ((time_ns, frames),) = made  # one call, for the tick's instant
            assert time_ns == tick_ns
            assert [codec.frame_seal(f)[2] for f in frames] == tracked
            rounds += len(tracked) == 4
        assert rounds > 50  # every unit tracks the other four for most of the run
        uplinks = [r for r in w.log if r.kind == "transmit" and r.destination != "*"]
        assert len(uplinks) == sum(len(frames) for *_, made in per_tick for _, frames in made)

    def test_miss_limit_drops_track(self):
        a = _aircraft("a", 0x000100, x=0.0, alt=10_000)
        b = _aircraft("b", 0x000200, x=5.0, alt=10_000)
        w = _build_world(a, b)
        w.add_jam(airspace.JamDirective(0x000200, start_ns=5 * airspace.NS_PER_S))
        w.run_until(30 * airspace.NS_PER_S)
        drops = _tcas_outcomes(w, "a", "track_drop;miss_limit")
        assert len(drops) >= 1
        first = drops[0].time_ns / airspace.NS_PER_S
        # six unanswered rounds after the jam starts
        assert 10.0 <= first <= 13.0

    def test_track_survives_five_misses(self):
        a = _aircraft("a", 0x000100, x=0.0, alt=10_000)
        b = _aircraft("b", 0x000200, x=5.0, alt=10_000)
        w = _build_world(a, b)
        # window silences five rounds, then replies resume
        w.add_jam(airspace.JamDirective(
            0x000200, start_ns=5 * airspace.NS_PER_S, end_ns=10 * airspace.NS_PER_S))
        w.run_until(30 * airspace.NS_PER_S)
        assert not _tcas_outcomes(w, "a", "track_drop")
        assert 0x000200 in a.tracks

    def test_standby_aircraft_is_invisible_to_ranging(self):
        a = _aircraft("a", 0x000100, x=0.0, alt=10_000)
        b = _aircraft("b", 0x000200, x=5.0, alt=10_000, mode=tcas.MODE_STANDBY)
        w = _build_world(a, b)
        w.run_until(20 * airspace.NS_PER_S)
        assert a.tracks == {}
        assert not [r for r in w.log if r.kind == "transmit" and r.source == "b"]


class TestThreatLogic:
    def _encounter(self, alt_a, alt_b, *, x0=15.0, speed=480.0, seconds=90,
                   mode_a=tcas.MODE_TA_RA, mode_b=tcas.MODE_TA_RA):
        a = _aircraft("a", 0x000100, x=-x0 / 2, alt=alt_a, vx=speed, mode=mode_a)
        b = _aircraft("b", 0x000200, x=x0 / 2, alt=alt_b, vx=-speed, mode=mode_b)
        w = _build_world(a, b)
        w.run_until(seconds * airspace.NS_PER_S)
        return w, a, b

    def test_head_on_pair_gets_ta_then_complementary_ra(self):
        w, a, b = self._encounter(10_050, 9_950)
        ta_a = _tcas_outcomes(w, "a", "ta_issued")
        ra_a = _tcas_outcomes(w, "a", "ra_issued")
        ra_b = _tcas_outcomes(w, "b", "ra_issued")
        assert ta_a and ra_a and ra_b
        assert ta_a[0].time_ns < ra_a[0].time_ns
        sense_a = ra_a[0].outcome.split(";")[1]
        sense_b = ra_b[0].outcome.split(";")[1]
        assert {sense_a, sense_b} == {"climb", "descend"}
        assert sense_a == "climb"  # a starts above b

    def test_ra_clears_after_sustained_divergence_and_no_nmac(self):
        w, a, b = self._encounter(10_050, 9_950)
        assert _tcas_outcomes(w, "a", "ra_cleared;clear_of_conflict")
        assert _tcas_outcomes(w, "b", "ra_cleared;clear_of_conflict")
        windows = tcas.nmac_intervals(a.segments, b.segments, w.time_ns)
        assert windows == []

    def test_unequipped_victim_gets_no_ra(self):
        w, a, b = self._encounter(10_050, 9_950, mode_a=tcas.MODE_TA_ONLY)
        assert _tcas_outcomes(w, "a", "ta_issued")
        assert not _tcas_outcomes(w, "a", "ra_issued")
        assert _tcas_outcomes(w, "b", "ra_issued")

    def test_altitude_gate_blocks_ta(self):
        # 1,300 ft apart: outside the 1,200 ft advisory gate at all times
        w, a, b = self._encounter(11_300, 10_000)
        assert not _tcas_outcomes(w, "a", "ta_issued")
        assert not _tcas_outcomes(w, "b", "ra_issued")

    def test_coaltitude_conflict_resolved_by_event_order(self):
        w, a, b = self._encounter(10_000, 10_000)
        ra_a = _tcas_outcomes(w, "a", "ra_issued")
        ra_b = _tcas_outcomes(w, "b", "ra_issued")
        assert ra_a and ra_b
        senses = {ra_a[0].outcome.split(";")[1], ra_b[0].outcome.split(";")[1]}
        assert senses == {"climb", "descend"}
        windows = tcas.nmac_intervals(a.segments, b.segments, w.time_ns)
        assert windows == []

    def test_long_interrogation_used_while_advisory_active(self):
        w, a, b = self._encounter(10_050, 9_950)
        ra_t = _tcas_outcomes(w, "a", "ra_issued")[0].time_ns
        after = [r for r in w.log
                 if r.kind == "transmit" and r.source == "a" and r.destination == "000200"
                 and ra_t < r.time_ns <= ra_t + int(2.2 * airspace.NS_PER_S)]
        assert after
        for rec in after:
            frame = codec.ModeSFrame.from_hex(rec.frame_hex, codec.UPLINK)
            assert frame.format_code == codec.UF_SURVEILLANCE_LONG


ALTITUDES = st.floats(0.0, float(codec.ALTITUDE_MAX_FT))  # the codec's whole range


@st.composite
def _rule_inputs(draw):
    """Arguments of ``tcas.resolve``, some intruders within 1,500 ft of own
    altitude and some taus under a minute so that the gates are often met,
    and some taus infinite."""
    own = draw(ALTITUDES)
    intruder = draw(st.one_of(ALTITUDES, st.floats(-1_500.0, 1_500.0).map(
        lambda d: min(max(own + d, 0.0), float(codec.ALTITUDE_MAX_FT)))))
    tau = draw(st.one_of(st.floats(0.0, 60.0), st.floats(0.0, math.inf), st.just(math.inf)))
    return (draw(st.booleans()), own, intruder, tau, draw(st.sampled_from(range(4))),
            draw(st.booleans()))


class TestAdvisoryRule:
    @settings(max_examples=2_000, deadline=None)
    @given(args=_rule_inputs())
    @example(args=(True, 10_000.0, 10_000.0, 35.0, 0, False))  # tau on the RA gate
    @example(args=(True, 10_000.0, 10_000.0, math.nextafter(35.0, math.inf), 0, False))
    @example(args=(True, 10_000.0, 10_000.0, 48.0, 0, False))  # tau on the TA gate
    @example(args=(True, 10_000.0, 10_000.0, math.nextafter(48.0, math.inf), 0, False))
    @example(args=(True, 10_600.0, 10_000.0, 30.0, 0, False))  # 600 ft apart: an RA
    @example(args=(True, 9_400.0, 10_000.0, 30.0, 0, False))
    @example(args=(True, 10_000.0, 11_200.0, 30.0, 0, False))  # 1,200 ft apart: a TA
    @example(args=(True, 10_000.0, 8_800.0, 47.0, 2, False))
    @example(args=(True, 10_000.0, 10_000.0, 30.0, 0, False))  # coaltitude: climb
    # a descend limit of -400 ft, below the codec's range (ROADMAP item 3)
    @example(args=(True, 150.0, 200.0, 30.0, 0, False))
    @example(args=(False, 10_000.0, 10_000.0, 30.0, 0, False))  # no new RA: a TA
    @example(args=(False, 10_000.0, 30_000.0, math.inf, 1, True))  # latched: no gates
    @example(args=(True, 10_000.0, 10_100.0, 30.0, 3, False))
    def test_matches_the_literal_table(self, args):
        assert tcas.resolve(*args) == oracles.reference_advisory(*args)


class TestCoordination:
    def test_received_restriction_forces_complying_sense(self):
        """A restriction received before the advisory fires dictates the sense,
        even against the altitude-based preference."""
        a = _aircraft("a", 0x000200, x=0.0, alt=10_000)
        w = _build_world(a)
        track = tcas.Track(0x000100, status="tracked", altitude_ft=9_400.0,
                           range_nmi=5.0, range_time_ns=0)
        a.tracks[0x000100] = track
        a.receive_rac(w, 0x000100, codec.RAC_DO_NOT_PASS_ABOVE)
        track.rate_kt = -600.0  # tau = 30 s
        w.time_ns = airspace.NS_PER_S
        a._evaluate(w, track)
        assert a.advisory is not None
        # altitude preference says climb (own 10,000 over 9,400); RAC says descend
        assert a.advisory.sense == tcas.DESCEND
        assert a.advisory.limit_alt_ft == 9_400.0 - 600.0

    def test_lower_address_wins_reversal(self):
        a = _aircraft("a", 0x000200, x=0.0, alt=10_000)
        w = _build_world(a)
        track = tcas.Track(0x000100, status="tracked", altitude_ft=10_000.0,
                           range_nmi=5.0, range_time_ns=0, rate_kt=-600.0)
        a.tracks[0x000100] = track
        w.time_ns = airspace.NS_PER_S
        a._evaluate(w, track)
        assert a.advisory.sense == tcas.CLIMB  # tie prefers climb
        a.receive_rac(w, 0x000100, codec.RAC_DO_NOT_PASS_ABOVE)
        assert a.advisory.sense == tcas.DESCEND
        assert _tcas_outcomes(w, "a", "ra_reversal")

    def test_higher_address_ignores_contradiction(self):
        a = _aircraft("a", 0x000100, x=0.0, alt=10_000)
        w = _build_world(a)
        track = tcas.Track(0x000200, status="tracked", altitude_ft=10_000.0,
                           range_nmi=5.0, range_time_ns=0, rate_kt=-600.0)
        a.tracks[0x000200] = track
        w.time_ns = airspace.NS_PER_S
        a._evaluate(w, track)
        assert a.advisory.sense == tcas.CLIMB
        a.receive_rac(w, 0x000200, codec.RAC_DO_NOT_PASS_ABOVE)
        assert a.advisory.sense == tcas.CLIMB
        assert not _tcas_outcomes(w, "a", "ra_reversal")

    def test_contradictory_restriction_never_steers(self):
        a = _aircraft("a", 0x000200, x=0.0, alt=10_000)
        w = _build_world(a)
        track = tcas.Track(0x000100, status="tracked", altitude_ft=10_000.0,
                           range_nmi=5.0, range_time_ns=0, rate_kt=-600.0)
        a.tracks[0x000100] = track
        w.time_ns = airspace.NS_PER_S
        a._evaluate(w, track)
        a.receive_rac(w, 0x000100, codec.RAC_CONTRADICTORY)
        assert a.advisory.sense == tcas.CLIMB

    def test_unequipped_aircraft_holds_no_advisory_state(self):
        a = _aircraft("a", 0x000200, x=0.0, alt=10_000, mode=tcas.MODE_XPDR, squitter=False)
        w = _build_world(a)
        uf20 = codec.build_interrogation("surveillance_long", 0x000200, sender=0x000100,
                                         rac=codec.RAC_DO_NOT_PASS_ABOVE, ra_active=True)
        assert a.on_frame(w, uf20, 0) == "replied"
        w.run_until(airspace.NS_PER_S)
        [reply] = [r for r in w.log if r.kind == "transmit" and r.source == "a"]
        decoded = codec.parse_frame(codec.ModeSFrame.from_hex(reply.frame_hex, codec.DOWNLINK))
        assert decoded.format_code == codec.DF_SURVEILLANCE_LONG
        assert decoded.fields["rac"] == codec.RAC_NONE
        assert decoded.fields["ra_active"] == 0
        assert not _tcas_outcomes(w, "a", "rac_received")
        assert a.tracks == {}

    def test_relabeling_symmetry(self):
        """Swapping which airframe is 'a' must swap the senses, not the outcome."""
        def run(icao_low_on_top):
            top_icao, bot_icao = (0x000100, 0x000200) if icao_low_on_top \
                else (0x000200, 0x000100)
            a = _aircraft("top", top_icao, x=-7.5, alt=10_050, vx=480)
            b = _aircraft("bot", bot_icao, x=7.5, alt=9_950, vx=-480)
            w = _build_world(a, b)
            w.run_until(90 * airspace.NS_PER_S)
            sense_of = {}
            for rec in w.log:
                if rec.kind == "tcas" and rec.outcome.startswith("ra_issued"):
                    sense_of[rec.source] = rec.outcome.split(";")[1]
            return sense_of
        assert run(True) == run(False) == {"top": "climb", "bot": "descend"}


class TestTrackTable:
    def _unit(self):
        a = _aircraft("a", 0x0FFFFF, x=0.0, alt=10_000)
        w = _build_world(a)
        return w, a

    def _squit(self, icao, alt=10_000):
        return codec.build_reply("extended_squitter", icao, altitude_ft=alt)

    def test_capacity_is_thirty(self):
        w, unit = self._unit()
        for k in range(tcas.TRACK_CAPACITY):
            assert unit.on_downlink(w, self._squit(0x100000 + k), 0) == "acquired"
        assert len(unit.tracks) == tcas.TRACK_CAPACITY

    def test_ranged_track_evicted_before_unranged(self):
        w, unit = self._unit()
        unit.on_downlink(w, self._squit(0x000001), 0)
        unit.tracks[0x000001].range_nmi = 8.0
        unit.tracks[0x000001].status = "tracked"
        for k in range(tcas.TRACK_CAPACITY - 1):
            unit.on_downlink(w, self._squit(0x200000 + k), 0)
        assert unit.on_downlink(w, self._squit(0x300000), 0) == "acquired"
        assert 0x000001 not in unit.tracks
        assert len(unit.tracks) == tcas.TRACK_CAPACITY
        drops = [r for r in w.log if r.outcome == "track_drop;evicted"]
        assert drops and drops[0].destination == "000001"

    def test_unranged_ties_evict_highest_address_acquirer(self):
        w, unit = self._unit()
        for k in range(tcas.TRACK_CAPACITY):
            unit.on_downlink(w, self._squit(0x200000 + k), 0)
        unit.on_downlink(w, self._squit(0x100000), 0)
        assert 0x100000 in unit.tracks
        assert 0x200000 + tcas.TRACK_CAPACITY - 1 not in unit.tracks

    def test_advisory_tracks_are_never_evicted(self):
        w, unit = self._unit()
        unit.on_downlink(w, self._squit(0x000001), 0)
        unit.tracks[0x000001].status = "ta"  # as a resolution advisory sets it
        unit.tracks[0x000001].range_nmi = 50.0
        for k in range(tcas.TRACK_CAPACITY - 1):
            unit.on_downlink(w, self._squit(0x200000 + k), 0)
        unit.on_downlink(w, self._squit(0x300000), 0)
        assert 0x000001 in unit.tracks

    def test_full_table_of_advisories_rejects_new(self):
        w, unit = self._unit()
        for k in range(tcas.TRACK_CAPACITY):
            unit.on_downlink(w, self._squit(0x200000 + k), 0)
            unit.tracks[0x200000 + k].status = "ta"
        assert unit.on_downlink(w, self._squit(0x300000), 0) == "table_full"

    def test_reply_outside_plausible_window_rejected(self):
        w, unit = self._unit()
        unit.on_downlink(w, self._squit(0x000001), 0)
        unit.tracks[0x000001].interrogated_ns = 0
        reply = codec.build_reply("surveillance_short", 0x000001, altitude_ft=10_000)
        assert unit.on_downlink(w, reply, tcas._MAX_RTT_NS + 1) == "implausible_rtt"
        unit.tracks[0x000001].interrogated_ns = 0
        assert unit.on_downlink(w, reply, tcas.TURNAROUND_NS) == "implausible_rtt"

    def test_unsolicited_reply_ignored(self):
        w, unit = self._unit()
        reply = codec.build_reply("surveillance_short", 0x000001, altitude_ft=10_000)
        assert unit.on_downlink(w, reply, 200_000) == "unmatched_reply"

    def test_finished_run_does_not_keep_its_aircraft_alive(self):
        # an aircraft must be freed by reference counting alone, or every
        # finished run's tracks live until a full garbage collection
        a = _aircraft("a", 0x000001, x=0.0, alt=10_000, vx=300.0)
        b = _aircraft("b", 0x000002, x=3.0, alt=10_300, vx=-300.0)
        w = _build_world(a, b)
        w.run_until(5 * 10**9)
        assert a.tracks and b.tracks
        refs = [weakref.ref(a), weakref.ref(b)]
        gc.disable()
        try:
            del w, a, b
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


# -- rejecting a frame from its seal, before any parse ----------------------------

POOL = (0x000000, 0xA10001, 0xA10002, 0xFFFFFF)  # receivers and sealing overlays meet here
EARLY = ("standby", "ignored", "unsupported", "not_addressed", "unmatched_reply")


@st.composite
def _heard_frame(draw):
    """Any code at either length, sealed with a pooled or a random overlay,
    sometimes with one bit flipped: built, corrupted, unknown-code and
    wrong-length frames alike."""
    direction = draw(st.sampled_from([codec.UPLINK, codec.DOWNLINK]))
    nbits = draw(st.sampled_from([codec.SHORT_FRAME_BITS, codec.LONG_FRAME_BITS]))
    body_nbits = nbits - codec.AP_BITS
    body = (draw(st.integers(0, 31)) << (body_nbits - 5)) | draw(
        st.integers(0, (1 << (body_nbits - 5)) - 1))
    overlay = draw(st.one_of(st.sampled_from(POOL), st.integers(0, 0xFFFFFF)))
    parity = codec.crc24([(body >> i) & 1 for i in range(body_nbits - 1, -1, -1)])
    word = (body << codec.AP_BITS) | (parity ^ overlay)
    flip = draw(st.one_of(st.none(), st.integers(0, nbits - 1)))
    if flip is not None:
        word ^= 1 << flip
    return codec.ModeSFrame(direction, nbits, word)


def _parse_first(aircraft, frame):
    """The early outcome as the receiver decided it when it parsed every
    frame first, or None when the frame goes on to be handled."""
    if frame.direction == codec.UPLINK:
        if aircraft.mode == tcas.MODE_STANDBY:
            return "standby"
        decoded = codec.parse_frame(frame, expected_address=aircraft.icao)
        if decoded.kind == "unknown":
            return "unsupported"
        return None if decoded.parity.passed else "not_addressed"
    if aircraft.mode not in (tcas.MODE_TA_ONLY, tcas.MODE_TA_RA):
        return "ignored"
    decoded = codec.parse_frame(frame)
    if decoded.kind == "unknown":
        return "unsupported"
    if decoded.format_code in (codec.DF_SURVEILLANCE_SHORT, codec.DF_SURVEILLANCE_LONG):
        track = aircraft.tracks.get(decoded.parity.recovered_address)
        if track is None or track.interrogated_ns is None:
            return "unmatched_reply"  # no track with an unanswered round
    return None


def _counting_parses(monkeypatch) -> list[int]:
    """Count calls of ``parse_frame`` made through the module, as receivers
    make them; the count is the list's one element."""
    count = [0]
    parse = codec.parse_frame

    def counted(*args, **kwargs):
        count[0] += 1
        return parse(*args, **kwargs)

    monkeypatch.setattr(codec, "parse_frame", counted)
    return count


def _ring(n, radius_nmi=4.0):
    """N TA/RA aircraft on a ring, flying at its centre at 300 kt a little
    apart in altitude, so every pair closes into a resolution advisory."""
    ring = []
    for i in range(n):
        bearing = 2 * math.pi * (i + 0.01) / n
        dx, dy = math.cos(bearing), math.sin(bearing)
        ring.append(_aircraft(f"ring{i}", 0xA10001 + i, x=radius_nmi * dx, y=radius_nmi * dy,
                              alt=30_000 + 50 * i, vx=-300.0 * dx, vy=-300.0 * dy))
    return ring


# format code 0 is in neither direction's table
UNKNOWN = {direction: codec.ModeSFrame(direction, codec.SHORT_FRAME_BITS, 0)
           for direction in (codec.UPLINK, codec.DOWNLINK)}


class TestEarlyRejection:
    @settings(max_examples=400, deadline=None)
    @given(_heard_frame(), st.sampled_from(POOL), st.sampled_from(tcas.MODES),
           st.sets(st.sampled_from(POOL)), st.sampled_from([0, 200_000, 10**9]))
    @example(UNKNOWN[codec.DOWNLINK], POOL[1], tcas.MODE_TA_RA, set(), 0)
    @example(UNKNOWN[codec.UPLINK], POOL[1], tcas.MODE_XPDR, set(), 0)
    @example(codec.build_interrogation("all_call"), POOL[1], tcas.MODE_STANDBY, set(), 0)
    def test_early_outcomes_match_a_parse_first_oracle(self, frame, icao, mode, pending, rx_ns):
        a = _aircraft("a", icao, x=0.0, alt=10_000, mode=mode)
        w = _build_world(a)
        if a.equipped:
            for address in sorted(pending):
                a.tracks[address] = tcas.Track(address, status="tracked", altitude_ft=10_000,
                                               interrogated_ns=0)
        want = _parse_first(a, frame)
        with pytest.MonkeyPatch.context() as mp:
            parses = _counting_parses(mp)
            got = a.on_frame(w, frame, rx_ns)
        if want is None:
            assert got not in EARLY and parses[0] == 1
        else:
            assert got == want and parses[0] == 0

    def test_sealed_off_deliveries_of_a_ring_never_parse(self, monkeypatch):
        parses = _counting_parses(monkeypatch)
        per_outcome: dict[str, set[int]] = {}
        seen = [0]
        record = airspace.World.record

        def noting(world, kind, source, destination, frame, outcome):
            if kind == "deliver":
                per_outcome.setdefault(outcome, set()).add(parses[0] - seen[0])
                seen[0] = parses[0]
            record(world, kind, source, destination, frame, outcome)

        monkeypatch.setattr(airspace.World, "record", noting)
        w = _build_world(*_ring(6))
        w.run_until(20 * 10**9)
        assert per_outcome.pop("not_addressed") == {0}
        assert per_outcome.pop("unmatched_reply") == {0}
        assert {"replied", "range_update", "known"} <= set(per_outcome)
        assert all(calls == {1} for calls in per_outcome.values())
        outcomes = {r.outcome.split(";")[0] for r in w.log}
        assert {"range_update", "ra_issued", "engage"} <= outcomes


class TestPilot:
    def test_engage_after_delay_and_exact_level_off(self):
        a = _aircraft("a", 0x000100, x=0.0, alt=42_000)
        w = _build_world(a)
        a.advisory = tcas.Advisory(tcas.DESCEND, 40_800.0, 0x000999)
        a.fly_advisory(w)
        w.run_until(4 * airspace.NS_PER_S)
        assert a.state_at(w.time_ns).vertical_rate_fpm == 0.0
        w.run_until(6 * airspace.NS_PER_S)
        assert a.state_at(w.time_ns).vertical_rate_fpm == -1500.0
        # 1,200 ft at 25 ft/s: level exactly 48 s after engaging
        w.run_until(60 * airspace.NS_PER_S)
        state = a.state_at(w.time_ns)
        assert state.vertical_rate_fpm == 0.0
        assert state.altitude_ft == 40_800.0
        engaged = [r for r in w.log if r.kind == "pilot" and r.outcome.startswith("engage")]
        level = [r for r in w.log if r.kind == "pilot" and r.outcome.startswith("level_off")]
        assert engaged[0].time_ns == 5 * airspace.NS_PER_S
        assert level[0].time_ns == 53 * airspace.NS_PER_S

    def test_a_newer_advisory_within_the_delay_engages_once_at_its_sense(self):
        a = _aircraft("a", 0x000100, x=0.0, alt=42_000)
        w = _build_world(a)
        a.advisory = tcas.Advisory(tcas.DESCEND, 40_800.0, 0x000999)
        a.fly_advisory(w)
        w.run_until(2 * airspace.NS_PER_S)
        a.advisory = tcas.Advisory(tcas.CLIMB, 43_200.0, 0x000999)
        a.fly_advisory(w)
        w.run_until(60 * airspace.NS_PER_S)
        pilot = [(r.time_ns, r.outcome) for r in w.log if r.kind == "pilot"]
        # 1,200 ft at 25 ft/s: level 48 s after engaging
        assert pilot == [(7 * airspace.NS_PER_S, "engage;rate=1500"),
                         (55 * airspace.NS_PER_S, "level_off;alt=43200")]
        assert a.state_at(w.time_ns).altitude_ft == 43_200.0

    def test_cleared_before_reaction_never_moves(self):
        a = _aircraft("a", 0x000100, x=0.0, alt=42_000)
        w = _build_world(a)
        a.advisory = tcas.Advisory(tcas.DESCEND, 40_800.0, 0x000999)
        a.fly_advisory(w)
        w.run_until(2 * airspace.NS_PER_S)
        a.level_off_now(w)
        w.run_until(20 * airspace.NS_PER_S)
        assert a.state_at(w.time_ns).altitude_ft == 42_000.0
        assert not [r for r in w.log if r.kind == "pilot" and "engage" in r.outcome]

    def test_already_compliant_pilot_stays_level(self):
        a = _aircraft("a", 0x000100, x=0.0, alt=40_000)
        w = _build_world(a)
        a.advisory = tcas.Advisory(tcas.DESCEND, 40_800.0, 0x000999)
        a.fly_advisory(w)
        w.run_until(10 * airspace.NS_PER_S)
        assert a.state_at(w.time_ns).altitude_ft == 40_000.0
        assert [r for r in w.log if r.outcome == "already_compliant"]


class TestNmacGeometry:
    def test_instantaneous_test_is_inclusive(self):
        # stationary pairs: the window is the whole run or nothing
        t_end = 20 * airspace.NS_PER_S
        a = airspace.AircraftState(0.0, 0.0, 10_000.0)
        b = airspace.AircraftState(500.0 / airspace.FEET_PER_NMI, 0.0, 10_100.0)
        assert tcas.nmac_intervals([(0, a)], [(0, b)], t_end) == [(0, t_end)]
        c = airspace.AircraftState(501.0 / airspace.FEET_PER_NMI, 0.0, 10_000.0)
        assert tcas.nmac_intervals([(0, a)], [(0, c)], t_end) == []
        d = airspace.AircraftState(0.0, 0.0, 10_101.0)
        assert tcas.nmac_intervals([(0, a)], [(0, d)], t_end) == []

    def test_head_on_crossing_window(self):
        segs_a = [(0, airspace.AircraftState(-1.0, 0.0, 10_000.0, vx_kt=600.0))]
        segs_b = [(0, airspace.AircraftState(1.0, 0.0, 10_050.0, vx_kt=-600.0))]
        windows = tcas.nmac_intervals(segs_a, segs_b, 20 * airspace.NS_PER_S)
        assert len(windows) == 1
        on, off = windows[0]
        r = 500.0 / airspace.FEET_PER_NMI
        expect_on = (2.0 - r) / (1200.0 / 3600.0)
        expect_off = (2.0 + r) / (1200.0 / 3600.0)
        assert on / 1e9 == pytest.approx(expect_on, abs=1e-6)
        assert off / 1e9 == pytest.approx(expect_off, abs=1e-6)

    def test_vertical_separation_blocks_window(self):
        segs_a = [(0, airspace.AircraftState(-1.0, 0.0, 10_000.0, vx_kt=600.0))]
        segs_b = [(0, airspace.AircraftState(1.0, 0.0, 10_101.0, vx_kt=-600.0))]
        assert tcas.nmac_intervals(segs_a, segs_b, 20 * airspace.NS_PER_S) == []

    def test_lateral_offset_blocks_window(self):
        segs_a = [(0, airspace.AircraftState(-1.0, 0.0, 10_000.0, vx_kt=600.0))]
        segs_b = [(0, airspace.AircraftState(1.0, 0.09, 10_000.0, vx_kt=-600.0))]
        assert tcas.nmac_intervals(segs_a, segs_b, 20 * airspace.NS_PER_S) == []

    def test_knot_inside_window_merges(self):
        a0 = airspace.AircraftState(-1.0, 0.0, 10_000.0, vx_kt=600.0)
        b0 = airspace.AircraftState(1.0, 0.0, 10_050.0, vx_kt=-600.0)
        plain = tcas.nmac_intervals([(0, a0)], [(0, b0)], 20 * airspace.NS_PER_S)
        t_knot = 6 * airspace.NS_PER_S
        b_mid = airspace.step_kinematics(b0, 6.0)
        split = tcas.nmac_intervals([(0, a0)], [(0, b0), (t_knot, b_mid)],
                                    20 * airspace.NS_PER_S)
        assert len(split) == 1
        assert split[0][0] == pytest.approx(plain[0][0], abs=2)
        assert split[0][1] == pytest.approx(plain[0][1], abs=2)

    def test_descent_through_altitude_band(self):
        # a sinks through b's level while directly overhead: brief window
        segs_a = [(0, airspace.AircraftState(0.0, 0.0, 11_000.0,
                                             vertical_rate_fpm=-1500.0))]
        segs_b = [(0, airspace.AircraftState(0.0, 0.0, 10_000.0))]
        windows = tcas.nmac_intervals(segs_a, segs_b, 120 * airspace.NS_PER_S)
        assert len(windows) == 1
        on, off = windows[0]
        assert on / 1e9 == pytest.approx((1000.0 - 100.0) / 25.0, abs=1e-6)
        assert off / 1e9 == pytest.approx((1000.0 + 100.0) / 25.0, abs=1e-6)

    def test_a_relative_speed_whose_square_underflows_is_solved_as_linear(self, monkeypatch):
        # vx_kt = 1e-160 loads, and its square underflows to 0.0 while the
        # linear term does not: the quadratic's a == 0 branch is live
        seen = []
        solve = tcas._quadratic_interval
        monkeypatch.setattr(tcas, "_quadratic_interval",
                            lambda *args: seen.append(args[:2]) or solve(*args))
        a = airspace.AircraftState(0.0, 0.0, 10_000.0, vx_kt=1e-160)
        b = airspace.AircraftState(0.01, 0.0, 10_000.0)
        t_end = 20 * airspace.NS_PER_S
        assert tcas.nmac_intervals([(0, a)], [(0, b)], t_end) == [(0, t_end)]
        [(quadratic, linear)] = seen
        assert quadratic == 0.0 and linear != 0.0

    @pytest.mark.parametrize("b,c,expected", [
        (2.0, -4.0, (0.0, 2.0)), (-2.0, 4.0, (2.0, 10.0)), (2.0, 4.0, None), (-2.0, 30.0, None)],
        ids=["until-root", "from-root", "root-before-span", "root-after-span"])
    def test_a_linear_inequality_holds_on_one_side_of_its_root(self, b, c, expected):
        assert tcas._quadratic_interval(0.0, b, c, 0.0, 10.0) == expected

    def test_matches_instantaneous_scan_on_random_encounters(self):
        rng = random.Random(0x4A3)
        for _ in range(25):
            a = airspace.AircraftState(rng.uniform(-3, 3), rng.uniform(-0.05, 0.05),
                                       10_000 + rng.uniform(-150, 150),
                                       vx_kt=rng.uniform(-600, 600),
                                       vy_kt=rng.uniform(-30, 30),
                                       vertical_rate_fpm=rng.uniform(-1000, 1000))
            b = airspace.AircraftState(rng.uniform(-3, 3), rng.uniform(-0.05, 0.05),
                                       10_000 + rng.uniform(-150, 150),
                                       vx_kt=rng.uniform(-600, 600),
                                       vy_kt=rng.uniform(-30, 30),
                                       vertical_rate_fpm=rng.uniform(-1000, 1000))
            t_end = 60 * airspace.NS_PER_S
            windows = tcas.nmac_intervals([(0, a)], [(0, b)], t_end)

            def inside(t_ns):
                return any(on <= t_ns <= off for on, off in windows)

            for k in range(0, 60 * 50):  # 20 ms grid, off window edges
                t = k * 20_000_000 + 7_777
                sa = airspace.step_kinematics(a, t / 1e9)
                sb = airspace.step_kinematics(b, t / 1e9)
                assert oracles.nmac_at(sa, sb) == inside(t)

    @settings(max_examples=40, deadline=None)
    @given(_trajectory(), _trajectory())
    def test_matches_instantaneous_scan_on_piecewise_trajectories(self, segs_a, segs_b):
        t_end = 30 * airspace.NS_PER_S
        windows = tcas.nmac_intervals(segs_a, segs_b, t_end)
        edges = [t for window in windows for t in window]

        def state_on(segs, t_ns):
            t0, s0 = [(t, s) for t, s in segs if t <= t_ns][-1]
            return airspace.step_kinematics(s0, (t_ns - t0) / 1e9)

        # a 20 ms grid offset by 7,777 ns misses every whole-millisecond
        # knot; samples within 10 us of a window edge are skipped
        for t in range(7_777, t_end, 20_000_000):
            if any(abs(t - e) < 10_000 for e in edges):
                continue
            inside = any(on <= t <= off for on, off in windows)
            assert oracles.nmac_at(state_on(segs_a, t), state_on(segs_b, t)) == inside


@pytest.mark.parametrize("call,match", [
    (lambda: tcas.range_rate_kt(1.0, 5, 1.0, 5), "out of order"),
    (lambda: _aircraft("a", 1, 0.0, 1_000.0, mode="glider"), "unknown equipment mode"),
    (lambda: _aircraft("a", 1, 0.0, 1_000.0).on_timer(airspace.World(), "tock", {}),
     "unknown timer"),
    (lambda: tcas.surveillance_interval_ns(math.inf), "surveillance period"),
    (lambda: tcas.surveillance_interval_ns(math.nan), "surveillance period"),
    (lambda: _aircraft("a", 1, 0.0, 1_000.0, surveillance_period_s=math.inf),
     "surveillance period"),
    (lambda: _aircraft("a", 1, 0.0, 1_000.0, surveillance_period_s=math.nan),
     "surveillance period"),
], ids=["range-samples-out-of-order", "unknown-mode", "unknown-timer", "period-inf",
        "period-nan", "aircraft-period-inf", "aircraft-period-nan"])
def test_direct_construction_is_checked(call, match):
    with pytest.raises(airspace.SimError, match=match):
        call()


# Two TA/RA aircraft head-on at 20,000 ft, 0.3 nmi apart laterally: a TA,
# then coordinated climb and descend RAs, flown and levelled off, and then,
# once both see the other diverge for three updates, clear of conflict.
# The digests were recorded once, as in test_golden.py: a mismatch means
# the unit's behaviour changed.
CLEAR_OF_CONFLICT = {
    "schema_version": 1,
    "name": "clear_of_conflict",
    "duration_s": 120.0,
    "aircraft": [
        {"name": "west", "icao": "A00001",
         "position": {"x_nmi": -4.0, "y_nmi": 0.0, "altitude_ft": 20_000.0},
         "velocity": {"vx_kt": 240.0}},
        {"name": "east", "icao": "A00002",
         "position": {"x_nmi": 4.0, "y_nmi": 0.3, "altitude_ft": 20_000.0},
         "velocity": {"vx_kt": -240.0}},
    ],
}
CLEAR_OF_CONFLICT_GOLDEN = (
    "08a86d99ae6913348cdf29d284d5eeb8aefc31828b7c0c757ac75e5865ab535c",
    "11fb36e79346262f8b2c68fdfddb82601007a2638a60bcb825e42cf19af42bf5")


def test_a_run_through_clear_of_conflict_is_pinned():
    result = harness.simulate(scen.load_scenario(CLEAR_OF_CONFLICT))
    advisories = [(t, source, outcome) for t, source, _, outcome in result.report.advisories]
    assert [(source, outcome) for _, source, outcome in advisories] == [
        ("west", "ta_issued"), ("east", "ta_issued"),
        ("west", "ra_issued;climb;limit=20600"), ("east", "ra_issued;descend;limit=19400"),
        ("west", "ra_cleared;clear_of_conflict"), ("east", "ra_cleared;clear_of_conflict")]
    assert [t // 10**8 for t, _, _ in advisories[-2:]] == [635, 635]  # both clear at 63.5 s
    log_text = "".join(rec.to_line() + "\n" for rec in result.records)
    assert len(result.records) == 2_180
    digests = tuple(hashlib.sha256(text.encode("ascii")).hexdigest()
                    for text in (log_text, result.report.to_json()))
    assert digests == CLEAR_OF_CONFLICT_GOLDEN


def _edge_head_on(north_ft: float, south_ft: float) -> dict:
    """Two TA/RA aircraft closing head-on from 8 NM at 150 kt, 50 ft apart."""
    return {
        "schema_version": 1, "name": "edge_head_on", "duration_s": 60.0,
        "aircraft": [{"name": name, "icao": icao, "mode": "ta_ra",
                      "position": {"x_nmi": 0.0, "y_nmi": y, "altitude_ft": alt},
                      "velocity": {"vx_kt": 0.0, "vy_kt": -75.0 * y}}
                     for name, icao, y, alt in [("north", "A40001", 4.0, north_ft),
                                                ("south", "A40002", -4.0, south_ft)]]}


@pytest.mark.parametrize("document,failure", [
    (_edge_head_on(200.0, 250.0), "deliver from south to north at time_ns=26537022103: "
     "altitude below encodable range: -0.9205765250000013"),
    (_edge_head_on(204_500.0, 204_450.0), "deliver from south to north at time_ns=30537017992: "
     "altitude above encodable range: 204800.92047375"),
    (census.phantom(179), "timer 'squitter' of victim at time_ns=108000000000: "
     "altitude below encodable range: -0.7999467004121925"),
    (census.phantom(185), "timer 'squitter' of victim at time_ns=38000000000: "
     "altitude below encodable range: -2.905867233745198"),
    (census.phantom(308), "deliver from ground to victim at time_ns=77500104901: "
     "altitude below encodable range: -0.004608521265140553")],
    ids=["floor", "ceiling", "phantom179", "phantom185", "phantom308"])
def test_an_advisory_past_the_codecs_altitude_range_fails_the_run(document, failure):
    """A known defect, pinned so that it stays in sight: the RA's limit
    ignores the codec's 0 to 204,775 ft range, the pilot flies past it, and
    the next squitter or reply cannot encode its altitude.  The phantom
    cases are draws of the ``tests/census.py`` census; in the last, the
    victim's reply to the attacker fails.  ROADMAP item 3, which adds the
    low-altitude and ceiling inhibits, turns this into a test that every
    run completes."""
    with pytest.raises(airspace.SimError, match=f"^{re.escape(failure)}$") as info:
        harness.simulate(scen.load_scenario(document))
    assert isinstance(info.value.__cause__, codec.CodecError)
