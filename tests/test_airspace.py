"""Event fabric: kinematics, propagation, fan-out, jamming, determinism."""

from __future__ import annotations

import gc
import inspect
import math
import random
import re
import tracemalloc
import weakref
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tcassim import airspace, attacker, harness, modes_codec as codec, phy, tcas
from tcassim import scenario as scen

import oracles
from test_golden import AWGN_RING, NOISELESS_RING


@dataclass
class Probe:
    """Minimal entity: linear motion, records every frame it hears."""

    name: str
    icao: int | None
    state0: airspace.AircraftState
    t0_ns: int = 0
    inbox: list = field(default_factory=list)
    timers: list = field(default_factory=list)

    def position_at(self, time_ns: int) -> airspace.Position:
        return airspace.position_after(self.state0, (time_ns - self.t0_ns) / 1e9)

    def on_frame(self, world, frame, rx_time_ns) -> str:
        self.inbox.append((frame, rx_time_ns))
        return "heard"

    def on_timer(self, world, timer, generation) -> None:
        self.timers.append((world.time_ns, timer, generation))


def _state(x=0.0, y=0.0, alt=0.0, vx=0.0, vy=0.0, vr=0.0):
    return airspace.AircraftState(x, y, alt, vx, vy, vr)


def _squitter(icao=0x3C4EFA, alt=40_000):
    return codec.build_reply("extended_squitter", icao, altitude_ft=alt)


class TestKinematics:
    def test_step_advances_position_and_altitude(self):
        s = _state(x=-20.0, y=1.0, alt=42_000.0, vx=480.0, vy=0.0, vr=-1500.0)
        s2 = airspace.step_kinematics(s, 30.0)
        assert s2.x_nmi == pytest.approx(-16.0)
        assert s2.y_nmi == pytest.approx(1.0)
        assert s2.altitude_ft == pytest.approx(41_250.0)
        assert (s2.vx_kt, s2.vy_kt, s2.vertical_rate_fpm) == (480.0, 0.0, -1500.0)

    def test_distance_uses_altitude(self):
        assert airspace.separation_nmi((0.0, 0.0, 0.0),
                                       (3.0, 0.0, 4.0 * airspace.FEET_PER_NMI)) == pytest.approx(5.0)

    def test_state_rejects_non_finite(self):
        with pytest.raises(airspace.SimError):
            _state(x=float("nan"))

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(*[st.floats(-1e4, 1e4)] * 2, st.floats(0, 60_000), *[st.floats(-900, 900)] * 2,
                     st.floats(-6_000, 6_000)),
           st.floats(0, 8), st.floats(100, 6_000), st.sampled_from([tcas.CLIMB, tcas.DESCEND]),
           st.floats(-3_000, 3_000), st.lists(st.integers(0, 12 * 10**9), min_size=4, max_size=4),
           st.booleans())
    def test_aircraft_position_is_its_state_position_across_manoeuvres(
            self, motion, delay_s, rate_fpm, sense, limit_offset_ft, waits_ns, cut_short):
        a = tcas.Aircraft("a", 0x000001, _state(*motion), mode=tcas.MODE_XPDR, squitter=False,
                          pilot=tcas.PilotModel(delay_s=delay_s, rate_fpm=rate_fpm))
        w = airspace.World()
        w.add_entity(a)
        seen = []

        def agree_from_now():
            for t_ns in (w.time_ns, w.time_ns + 1, w.time_ns + waits_ns[0] + 7):
                s = a.state_at(t_ns)
                want = (s.x_nmi, s.y_nmi, s.altitude_ft)
                assert [v.hex() for v in a.position_at(t_ns)] == [v.hex() for v in want]
            seen.append(len(a.segments))

        w.run_until(waits_ns[0])
        agree_from_now()
        # an advisory: the pilot engages after the delay and levels off at the limit
        limit = motion[2] + limit_offset_ft
        a.advisory = tcas.Advisory(sense, limit, 0x000002)
        a.fly_advisory(w)
        for wait in waits_ns[1:3]:
            w.run_until(w.time_ns + wait)
            agree_from_now()
        if cut_short:  # cleared: level off wherever the climb or descent has got to
            a.level_off_now(w)
            agree_from_now()
        w.run_until(w.time_ns + waits_ns[3])
        agree_from_now()
        assert seen[0] == 1 and seen[-1] <= 4

    @given(st.tuples(*[st.floats(-1e4, 1e4)] * 2, st.floats(0, 60_000)),
           st.integers(0, 10**12))
    def test_attacker_position_is_its_state_position(self, xyz, t_ns):
        ground = attacker.Attacker("g", xyz, mission=attacker.MISSION_ALL_CALL_FLOOD)
        assert ground.position_at(t_ns) == xyz


ENTITY_METHODS = ("position_at", "on_frame", "on_timer")


class TestEntityProtocol:
    """Every entity's methods take the parameters ``Entity`` declares."""

    @staticmethod
    def _parameters(fn) -> list:
        return [(p.name, p.kind) for p in inspect.signature(fn).parameters.values()]

    def test_protocol_declares_only_these_methods(self):
        declared = [name for name, value in vars(airspace.Entity).items()
                    if inspect.isfunction(value) and not name.startswith("__")]
        assert declared == list(ENTITY_METHODS)

    @pytest.mark.parametrize("method", ENTITY_METHODS)
    @pytest.mark.parametrize("entity", [tcas.Aircraft, attacker.Attacker, Probe],
                             ids=lambda cls: cls.__name__)
    def test_implementer_matches_the_protocol(self, entity, method):
        assert self._parameters(getattr(entity, method)) == \
            self._parameters(getattr(airspace.Entity, method))


class TestPropagation:
    def test_frozen_reference_delays(self):
        assert airspace.propagation_delay_ns(1.0) == 6178
        assert airspace.propagation_delay_ns(20.0) == 123_552
        assert airspace.propagation_delay_ns(0.0) == 0

    @pytest.mark.parametrize("dist", [0.1, 0.5, 1.0, 3.7, 20.0, 56.25, 100.0])
    def test_matches_long_hand_oracle(self, dist):
        assert airspace.propagation_delay_ns(dist) == oracles.propagation_delay_ns(dist)

    def test_random_distances_match_oracle(self):
        rng = random.Random(0xA1B)
        for _ in range(200):
            d = rng.random() * 100.0
            assert airspace.propagation_delay_ns(d) == oracles.propagation_delay_ns(d)

    def test_negative_distance_rejected(self):
        with pytest.raises(airspace.SimError):
            airspace.propagation_delay_ns(-1.0)

    # a round trip names the distance out and back
    @pytest.mark.parametrize("flight,nmi,named", [
        (airspace.propagation_delay_ns, math.inf, "inf"),
        (airspace.propagation_delay_ns, math.nan, "nan"),
        (airspace.propagation_delay_ns, 1e306, "1e+306"),
        (airspace.round_trip_ns, math.inf, "inf"), (airspace.round_trip_ns, -math.inf, "-inf"),
        (airspace.round_trip_ns, math.nan, "nan"), (airspace.round_trip_ns, 1e306, "2e+306"),
        (airspace.round_trip_ns, -1e306, "-2e+306")],
        ids=["one-way-inf", "one-way-nan", "one-way-huge", "round-trip-inf",
             "round-trip-minus-inf", "round-trip-nan", "round-trip-huge", "round-trip-minus-huge"])
    def test_a_flight_past_the_ns_range_is_a_sim_error(self, flight, nmi, named):
        with pytest.raises(airspace.SimError,
                           match=rf"^light flight over {re.escape(named)} nmi does not count"):
            flight(nmi)


class TestAirtime:
    def test_reply_airtime(self):
        short = codec.build_reply("surveillance_short", 0x000001, altitude_ft=1000)
        long = codec.build_reply("surveillance_long", 0x000001, altitude_ft=1000)
        assert airspace.frame_airtime_ns(short) == (16 + 112) * 500
        assert airspace.frame_airtime_ns(long) == (16 + 224) * 500

    def test_interrogation_airtime(self):
        short = codec.build_interrogation("surveillance_short", 0x000001)
        long = codec.build_interrogation("surveillance_long", 0x000001)
        assert airspace.frame_airtime_ns(short) == (4 + 7 + 56 + 2) * 250
        assert airspace.frame_airtime_ns(long) == (4 + 7 + 112 + 2) * 250


class TestFanOut:
    def _world_with(self, *probes):
        w = airspace.World()
        for p in probes:
            w.add_entity(p)
        return w

    def test_broadcast_reaches_every_other_entity_once(self):
        a = Probe("a", 0x000001, _state(0, 0, 10_000))
        b = Probe("b", 0x000002, _state(10, 0, 10_000))
        c = Probe("c", 0x000003, _state(0, 30, 10_000))
        w = self._world_with(a, b, c)
        w.schedule_transmit(1_000, a, _squitter(0x000001))
        w.run_until(10_000_000)
        assert len(a.inbox) == 0 and len(b.inbox) == 1 and len(c.inbox) == 1
        delivers = [r for r in w.log if r.kind == "deliver"]
        assert len(delivers) == 2

    def test_delivery_time_is_transmit_plus_propagation(self):
        a = Probe("a", 0x000001, _state(0, 0, 0))
        b = Probe("b", 0x000002, _state(20, 0, 0))
        w = self._world_with(a, b)
        w.schedule_transmit(5_000, a, _squitter(0x000001))
        w.run_until(1_000_000)
        frame, rx = b.inbox[0]
        assert rx == 5_000 + 123_552
        assert frame.to_hex() == _squitter(0x000001).to_hex()

    def test_one_transmit_shares_one_frame_and_one_hex_string(self):
        a = Probe("a", 0x000001, _state(0, 0, 10_000))
        b = Probe("b", 0x000002, _state(10, 0, 10_000))
        c = Probe("c", 0x000003, _state(0, 30, 10_000))
        w = self._world_with(a, b, c)
        sent = _squitter(0x000001)
        w.schedule_transmit(1_000, a, sent)
        w.run_until(10_000_000)
        assert b.inbox[0][0] is sent and c.inbox[0][0] is sent
        transmit, *delivers = w.log
        assert [r.kind for r in delivers] == ["deliver", "deliver"]
        assert all(r.frame_hex is transmit.frame_hex for r in delivers)

    def test_out_of_range_receiver_hears_nothing(self):
        a = Probe("a", 0x000001, _state(0, 0, 0))
        b = Probe("b", 0x000002, _state(100.5, 0, 0))
        w = self._world_with(a, b)
        w.schedule_transmit(0, a, _squitter(0x000001))
        w.run_until(1_000_000)
        assert b.inbox == []
        assert [r.kind for r in w.log] == ["transmit"]

    def test_range_checked_at_transmit_instant(self):
        # closing pair: out of range at t=0, inside range 60 s later
        a = Probe("a", 0x000001, _state(0, 0, 0, vx=480))
        b = Probe("b", 0x000002, _state(110, 0, 0, vx=-480))
        w = self._world_with(a, b)
        w.schedule_transmit(0, a, _squitter(0x000001))
        w.schedule_transmit(60 * 10**9, a, _squitter(0x000001))
        w.run_until(120 * 10**9)
        assert len(b.inbox) == 1  # heard from 94 nmi, after 8 nmi of closing each
        assert b.inbox[0][1] == 60 * 10**9 + airspace.propagation_delay_ns(94.0)

    def test_conservation_transmits_vs_delivers(self):
        rng = random.Random(7)
        probes = [
            Probe(f"p{i}", 0x100 + i, _state(rng.uniform(-80, 80), rng.uniform(-80, 80), 20_000))
            for i in range(6)
        ]
        w = self._world_with(*probes)
        for i, p in enumerate(probes):
            w.schedule_transmit(i * 1_000_000, p, _squitter(p.icao))
        w.run_until(10**9)
        for i, p in enumerate(probes):
            t_tx = i * 1_000_000
            src_pos = p.position_at(t_tx)
            in_range = sum(
                1 for q in probes
                if q is not p and airspace.separation_nmi(src_pos, q.position_at(t_tx)) <= 100.0
            )
            got = sum(1 for r in w.log
                      if r.kind == "deliver" and r.source == p.name and r.time_ns >= t_tx
                      and r.time_ns <= t_tx + 700_000)
            assert got == in_range


class TestNonFinitePosition:
    """A position that is not finite stops the run as a SimError; the fan-out
    never takes it for a receiver out of range."""

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("who", ["a", "b"])
    def test_in_source_or_receiver(self, bad, who):
        a = Probe("a", 0x000001, _state(0, 0, 0))
        b = Probe("b", 0x000002, _state(5, 0, 0))
        w = airspace.World()
        w.add_entity(a)
        w.add_entity(b)
        {"a": a, "b": b}[who].position_at = lambda t_ns: (0.0, bad, 0.0)
        w.schedule_transmit(99, a, _squitter(0x000001))
        with pytest.raises(airspace.SimError,
                           match=rf"^transmit by a at time_ns=99: {who} is at a non-finite position"):
            w.run_until(1_000)
        assert b.inbox == []

    def test_overflowing_climb(self):
        # a finite climb rate near the float maximum overflows the altitude
        # within a second or two; the aircraft is then nowhere, not far away
        a = tcas.Aircraft("a", 0x000001, _state(0, 0, 30_000, vr=1.7e308),
                          mode=tcas.MODE_XPDR, squitter=False)
        b = Probe("b", 0x000002, _state(5, 0, 30_000))
        w = airspace.World()
        w.add_entity(a)
        w.add_entity(b)
        w.schedule_transmit(10**6, b, _squitter(0x000002))
        w.run_until(10**9)  # far above b, finite: out of range
        assert [r.kind for r in w.log] == ["transmit"] and math.isfinite(a.position_at(10**6)[2])
        w.schedule_transmit(2 * 10**9, b, _squitter(0x000002))
        with pytest.raises(airspace.SimError,
                           match=r"^transmit by b at time_ns=2000000000: "
                                 r"a is at a non-finite position \(0.0, 0.0, inf\)$"):
            w.run_until(3 * 10**9)


class TestJamming:
    def test_jammed_source_produces_no_deliveries(self):
        a = Probe("a", 0x000001, _state(0, 0, 0))
        b = Probe("b", 0x000002, _state(5, 0, 0))
        w = airspace.World()
        w.add_entity(a)
        w.add_entity(b)
        w.add_jam(airspace.JamDirective(target_icao=0x000001, start_ns=0, end_ns=None))
        w.schedule_transmit(1_000, a, _squitter(0x000001))
        w.schedule_transmit(2_000, b, _squitter(0x000002))
        w.run_until(10**9)
        assert b.inbox == []          # a is erased
        assert len(a.inbox) == 1      # b is untouched
        jam_recs = [r for r in w.log if r.outcome == "jammed"]
        assert [r.source for r in jam_recs] == ["a"]

    def test_window_edges(self):
        a = Probe("a", 0x000001, _state(0, 0, 0))
        b = Probe("b", 0x000002, _state(5, 0, 0))
        w = airspace.World()
        w.add_entity(a)
        w.add_entity(b)
        # window covers 1 ms..2 ms only
        w.add_jam(airspace.JamDirective(0x000001, 1_000_000, 2_000_000))
        for t in (0, 1_500_000, 3_000_000):
            w.schedule_transmit(t, a, _squitter(0x000001))
        w.run_until(10**9)
        assert len(b.inbox) == 2
        heard_tx = sorted(rx - airspace.propagation_delay_ns(5.0) for _, rx in b.inbox)
        assert heard_tx == [0, 3_000_000]

    def test_airtime_overlap_counts_as_jammed(self):
        # frame starts just before the window opens but is still on the air
        a = Probe("a", 0x000001, _state(0, 0, 0))
        b = Probe("b", 0x000002, _state(5, 0, 0))
        w = airspace.World()
        w.add_entity(a)
        w.add_entity(b)
        w.add_jam(airspace.JamDirective(0x000001, 1_000_000, 2_000_000))
        w.schedule_transmit(1_000_000 - 10_000, a, _squitter(0x000001))  # 64 us airtime
        w.run_until(10**9)
        assert b.inbox == []

    def test_a_world_without_jam_directives_computes_no_airtime(self, monkeypatch):
        def refused(frame):
            raise AssertionError("airtime computed in a world that jams nothing")

        monkeypatch.setattr(airspace, "frame_airtime_ns", refused)
        result = harness.simulate(scen.load_scenario(NOISELESS_RING))
        outcomes = {r.outcome for r in result.records if r.kind == "transmit"}
        assert outcomes == {"sent"}

    def test_a_directive_added_between_runs_jams_only_its_targets_overlapping_frames(
            self, monkeypatch):
        timed = []
        airtime = airspace.frame_airtime_ns

        def timing(frame):
            timed.append(frame)
            return airtime(frame)

        monkeypatch.setattr(airspace, "frame_airtime_ns", timing)
        a = Probe("a", 0x000001, _state(0, 0, 0))
        b = Probe("b", 0x000002, _state(5, 0, 0))
        w = airspace.World()
        w.add_entity(a)
        w.add_entity(b)
        frame_a, frame_b = _squitter(0x000001), _squitter(0x000002)
        w.schedule_transmit(1_000_000, a, frame_a)
        w.schedule_transmit(1_000_000, b, frame_b)
        w.run_until(2_000_000)
        assert timed == []
        w.add_jam(airspace.JamDirective(0x000001, 5_000_000, 6_000_000))
        for t in (4_990_000, 7_000_000):  # 64 us airtime: the first overlaps the window
            w.schedule_transmit(t, a, frame_a)
        w.schedule_transmit(5_500_000, b, frame_b)
        w.run_until(10**9)
        assert [(r.time_ns, r.source, r.outcome) for r in w.log if r.kind == "transmit"] == [
            (1_000_000, "a", "sent"), (1_000_000, "b", "sent"), (4_990_000, "a", "jammed"),
            (5_500_000, "b", "sent"), (7_000_000, "a", "sent")]
        assert timed == [frame_a, frame_a]


class TestTransmitDestination:
    """The World logs a transmit's destination from the frame's seal."""

    FRAMES = {
        "UF4": (codec.build_interrogation("surveillance_short", 0x3C4EFA), "3c4efa"),
        "UF20": (codec.build_interrogation("surveillance_long", 0x3C4EFA, ra_active=True,
                                           rac=codec.RAC_DO_NOT_PASS_ABOVE, sender=0x000001),
                 "3c4efa"),
        "UF11": (codec.build_interrogation("all_call"), "*"),
        "DF4": (codec.build_reply("surveillance_short", 0x3C4EFA, altitude_ft=40_000), "*"),
        "DF11": (codec.build_reply("all_call", 0x3C4EFA), "*"),
        "DF17": (_squitter(0x3C4EFA), "*"),
    }

    @pytest.mark.parametrize("label", FRAMES)
    def test_an_addressed_uplink_logs_its_addressee_and_any_other_frame_a_star(self, label):
        frame, destination = self.FRAMES[label]
        a = Probe("a", 0x000001, _state())
        w = airspace.World()
        w.add_entity(a)
        w.schedule_transmit(0, a, frame)
        w.run_until(1)
        (rec,) = w.log
        assert (rec.kind, rec.destination, rec.outcome) == ("transmit", destination, "sent")
        assert harness.frame_label(rec.frame_hex, rec.destination) == label

    def test_a_jammed_interrogation_logs_its_addressee(self):
        a = Probe("a", 0x000001, _state())
        b = Probe("b", 0x000002, _state(5, 0, 0))
        w = airspace.World()
        w.add_entity(a)
        w.add_entity(b)
        w.add_jam(airspace.JamDirective(target_icao=0x000001, start_ns=0))
        w.schedule_transmit(0, a, codec.build_interrogation("surveillance_short", 0x000002))
        w.run_until(10**9)
        assert [(r.kind, r.destination, r.outcome) for r in w.log] == [
            ("transmit", "000002", "jammed")]


UF4_TO_B = codec.build_interrogation("surveillance_short", 0x000002)
UF20_TO_C = codec.build_interrogation("surveillance_long", 0x000003,
                                      rac=codec.RAC_DO_NOT_PASS_ABOVE, ra_active=True,
                                      sender=0x000001)
ROUND_T_NS = 1_000_000
NOWHERE = None  # a probe whose position is not finite


def _round(world_type, positions, frames, *, jam_from_ns=None, snr_db=None):
    """Run a round of ``frames`` sent by the first of ``positions`` (name ->
    (x, y, alt) or NOWHERE) at ROUND_T_NS through a world of ``world_type``:
    its log lines, what each probe heard and timed, and any error with the
    log it carried."""
    channel = None if snr_db is None else airspace.AwgnChannel(snr_db, 5)
    w = world_type(channel)
    probes = []
    for i, (name, xyz) in enumerate(positions.items()):
        p = Probe(name, 0x000001 + i, _state(*(xyz or (0, 0, 0))))
        if xyz is NOWHERE:
            p.position_at = lambda t_ns: (0.0, math.nan, 0.0)
        w.add_entity(p)
        probes.append(p)
    if jam_from_ns is not None:
        w.add_jam(airspace.JamDirective(0x000001, ROUND_T_NS + jam_from_ns, ROUND_T_NS + 10**6))
    # timers of the sender at the round's instant, queued before and after
    # it, and a later one-frame transmit of the last probe
    w.schedule_timer(ROUND_T_NS, probes[0], "before")
    w.schedule_transmit(ROUND_T_NS, probes[0], *frames)
    w.schedule_timer(ROUND_T_NS, probes[0], "after")
    w.schedule_transmit(ROUND_T_NS + 5_000, probes[-1], _squitter(0x000001 + len(probes) - 1))
    error = None
    try:
        w.run_until(10**9)
    except airspace.SimError as exc:
        error = str(exc), [r.to_line() for r in exc.records]
    return ([r.to_line() for r in w.log], [(p.inbox, p.timers) for p in probes], error)


class TestRounds:
    """Frames that one call queues as one transmit event log, arrive and fail
    byte for byte as the reference world's one event per frame, which is
    what one call per frame queued before rounds were grouped."""

    def _same(self, positions, frames, **kw):
        got = _round(airspace.World, positions, frames, **kw)
        assert got == _round(oracles.ReferenceWorld, positions, frames, **kw)
        return got

    @pytest.mark.parametrize("snr_db", [None, 12.0])
    def test_a_jam_window_erases_only_the_frames_it_overlaps(self, snr_db):
        # the window opens 20 us in: after UF4's 17.25 us, within UF20's 31.25 us
        assert [airspace.frame_airtime_ns(f) for f in (UF4_TO_B, UF20_TO_C)] == [17_250, 31_250]
        positions = {"a": (0, 0, 0), "b": (5, 0, 0), "c": (0, 7, 500), "d": (-3, 2, 0)}
        lines, heard, error = self._same(positions, [UF4_TO_B, UF20_TO_C, UF4_TO_B, UF20_TO_C],
                                         jam_from_ns=20_000, snr_db=snr_db)
        transmits = [line.split(",")[-1] for line in lines if ",transmit,a," in line]
        assert transmits == ["sent", "jammed", "sent", "jammed"] and error is None
        if snr_db is None:  # b hears both UF4s and none of the UF20s
            assert [f for f, _ in heard[1][0] if f.direction == codec.UPLINK] == [UF4_TO_B] * 2

    def test_a_receiver_at_zero_separation_hears_the_round_at_its_instant(self):
        positions = {"a": (1, 1, 9_000), "b": (1, 1, 9_000), "c": (4, 1, 9_000)}
        lines, heard, _ = self._same(positions, [UF4_TO_B, UF20_TO_C, UF4_TO_B])
        assert [rx for f, rx in heard[1][0] if f.direction == codec.UPLINK] == [ROUND_T_NS] * 3
        # the sender's timer queued after the round runs after its transmits
        # and before those deliveries
        assert [line.split(",")[1] for line in lines[:6]] == [
            "timer", "transmit", "transmit", "transmit", "timer", "deliver"]

    def test_receivers_at_equal_delay_hear_each_frame_in_registration_order(self):
        positions = {"a": (0, 0, 0), "b": (6, 0, 0), "c": (-6, 0, 0)}
        lines, _, _ = self._same(positions, [UF4_TO_B, UF20_TO_C])
        delivers = [line.split(",")[3:5] for line in lines if ",deliver,a," in line]
        assert delivers == [["b", UF4_TO_B.to_hex()], ["c", UF4_TO_B.to_hex()],
                            ["b", UF20_TO_C.to_hex()], ["c", UF20_TO_C.to_hex()]]

    @pytest.mark.parametrize("first_jammed", [False, True])
    def test_a_receiver_nowhere_mid_round_stops_it_as_one_frame_per_event_did(
            self, first_jammed):
        positions = {"a": (0, 0, 0), "b": (5, 0, 0), "c": NOWHERE, "d": (0, 5, 0)}
        frames = [UF20_TO_C, UF4_TO_B] if first_jammed else [UF4_TO_B, UF20_TO_C]
        lines, heard, (text, partial) = self._same(positions, frames, jam_from_ns=20_000)
        assert text == (f"transmit by a at time_ns={ROUND_T_NS}: "
                        "c is at a non-finite position (0.0, nan, 0.0)")
        assert partial == lines and [line.split(",")[1] for line in lines] == (
            ["timer"] + ["transmit"] * (1 + first_jammed))
        assert all(inbox == [] for inbox, _ in heard) and heard[0][1] == [(ROUND_T_NS, "before", 0)]

    @settings(max_examples=40, deadline=None)
    @given(spots=st.lists(st.sampled_from([(0, 0, 0), (5, 0, 0), (-5, 0, 0), (0, 0, 3_000),
                                           (120, 0, 0), NOWHERE]), min_size=2, max_size=5),
           frames=st.lists(st.sampled_from([UF4_TO_B, UF20_TO_C, _squitter(0x000001),
                                            codec.build_interrogation("all_call")]),
                           min_size=1, max_size=5),
           jam_from_ns=st.sampled_from([None, -100_000, 0, 17_250, 20_000]))
    def test_any_round_runs_as_the_reference_world(self, spots, frames, jam_from_ns):
        positions = {f"p{i}": xyz for i, xyz in enumerate(spots)}
        self._same(positions, frames, jam_from_ns=jam_from_ns)


class TestDeterminism:
    def _run(self, seed):
        a = Probe("a", 0x000001, _state(0, 0, 10_000, vx=200))
        b = Probe("b", 0x000002, _state(8, 0, 11_000, vx=-200))
        w = airspace.World(channel=airspace.AwgnChannel(12.0, seed))
        w.add_entity(a)
        w.add_entity(b)
        for k in range(40):
            w.schedule_transmit(k * 50_000_000, a, _squitter(0x000001, 10_000))
            w.schedule_transmit(k * 50_000_000 + 7_000, b, _squitter(0x000002, 11_000))
        w.run_until(5 * 10**9)
        return [r.to_line() for r in w.log]

    def test_same_seed_same_log(self):
        assert self._run(42) == self._run(42)

    def test_different_seed_different_noise(self):
        # marginal SNR: at least one reception outcome should differ
        assert self._run(1) != self._run(2)


REFERENCE_JOBS = {**{f"{name}{variant}": (name, variant)
                    for name in scen.bundled_scenario_names() for variant in ("", "/control")},
                  "awgn_ring4": AWGN_RING, "ring6": NOISELESS_RING}


@pytest.mark.parametrize("job", sorted(REFERENCE_JOBS))
def test_world_replays_byte_for_byte_as_the_reference_world(monkeypatch, job):
    spec = REFERENCE_JOBS[job]
    if isinstance(spec, dict):
        scenario = scen.load_scenario(spec)
    else:
        scenario = scen.bundled_scenario(spec[0])
        if spec[1]:
            scenario = scenario.without_attacker()

    def texts(result):
        return "".join(r.to_line() + "\n" for r in result.records), result.report.to_json()

    want = texts(harness.simulate(scenario))
    monkeypatch.setattr(scen, "World", oracles.ReferenceWorld)
    assert texts(harness.simulate(scenario)) == want


class TestAwgnChannel:
    def test_clean_snr_delivers_exact_frame_and_timestamp(self):
        a = Probe("a", 0x000001, _state(0, 0, 0))
        b = Probe("b", 0x000002, _state(1, 0, 0))
        w = airspace.World(channel=airspace.AwgnChannel(30.0, 9))
        w.add_entity(a)
        w.add_entity(b)
        w.schedule_transmit(0, a, _squitter(0x000001))
        uf = codec.build_interrogation("surveillance_short", 0x000001)
        w.schedule_transmit(10_000_000, b, uf)
        w.run_until(10**9)
        frame, rx = b.inbox[0]
        assert frame.to_hex() == _squitter(0x000001).to_hex()
        assert rx == 6178
        frame_a, rx_a = a.inbox[0]
        assert frame_a.to_hex() == uf.to_hex()
        assert rx_a == 10_000_000 + 6178

    def test_hopeless_snr_drops_frames(self):
        a = Probe("a", 0x000001, _state(0, 0, 0))
        b = Probe("b", 0x000002, _state(1, 0, 0))
        w = airspace.World(channel=airspace.AwgnChannel(-15.0, 9))
        w.add_entity(a)
        w.add_entity(b)
        for k in range(20):
            w.schedule_transmit(k * 1_000_000, a, _squitter(0x000001))
        w.run_until(10**9)
        drops = [r for r in w.log if r.outcome == "phy_drop"]
        assert len(drops) + len(b.inbox) == 20
        assert len(drops) > 10

    @pytest.mark.parametrize("snr_db,seed,error", [
        (math.nan, 0, phy.PhyError),
        (-5000.0, 0, phy.PhyError),
        (12.0, -1, ValueError),
        (12.0, 1.5, TypeError),
    ], ids=["snr-nan", "snr-overflows", "seed-negative", "seed-not-an-integer"])
    def test_bad_arguments_fail_when_the_channel_is_built(self, snr_db, seed, error):
        with pytest.raises(error):
            airspace.AwgnChannel(snr_db, seed)

    def test_a_zero_dimensional_snr_is_one_snr(self):
        got = airspace.AwgnChannel(np.array(12.0), 3)
        want = airspace.AwgnChannel(12.0, 3)
        assert got.snr_db == 12.0 and type(got.snr_db) is float
        frame = _squitter(0x000001)
        for k in range(5):
            assert got.receive(frame, k) == want.receive(frame, k)

    def test_a_world_refuses_a_channel_of_several_snrs(self):
        channel = airspace.AwgnChannel([12.0, 20.0], 7)
        assert channel.snr_db == (12.0, 20.0)
        with pytest.raises(airspace.SimError, match="one reception per delivery"):
            airspace.World(channel=channel)

    @pytest.mark.parametrize("snr_db", [np.float64(12.0), np.int64(12), 12],
                             ids=["numpy-float", "numpy-int", "int"])
    def test_a_scalar_snr_of_any_type_is_a_float_a_world_takes(self, snr_db):
        channel = airspace.AwgnChannel(snr_db, 3)
        assert channel.snr_db == 12.0 and type(channel.snr_db) is float
        assert airspace.World(channel=channel).channel is channel

    # a sequence of one SNR still gives a list per reception, so its shape
    # is the argument's, not its length's
    @pytest.mark.parametrize("snr_db", [[12.0], (12,), np.array([12.0])],
                             ids=["list", "tuple", "array"])
    def test_a_sequence_of_one_snr_is_still_a_sequence(self, snr_db):
        got = airspace.AwgnChannel(snr_db, 3)
        want = airspace.AwgnChannel(12.0, 3)
        assert got.snr_db == (12.0,) and type(got.snr_db[0]) is float
        frame = _squitter(0x000001)
        for k in range(5):
            assert got.receive(frame, k) == [want.receive(frame, k)]
        with pytest.raises(airspace.SimError, match="one reception per delivery"):
            airspace.World(channel=got)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, -4000.0], ids=["nan", "minus-inf",
                                                                        "overflows"])
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_a_bad_snr_anywhere_in_a_list_fails_when_the_channel_is_built(self, bad, at):
        snrs = [12.0, math.inf, 12.0]
        snrs.insert(at, bad)
        with pytest.raises(phy.PhyError):
            airspace.AwgnChannel(snrs, 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(1, 30),
           st.lists(st.sampled_from([0.0, 7.5, 12.0]) | st.floats(-5, 30), min_size=1,
                    max_size=4))
    def test_a_channel_of_several_snrs_is_one_channel_per_snr(self, seed, corpus_seed, size,
                                                              drawn):
        snrs = [*drawn, math.inf, drawn[0]]  # always an inf row and a duplicate
        several = airspace.AwgnChannel(snrs, seed)
        singles = [airspace.AwgnChannel(snr_db, seed) for snr_db in snrs]
        for k, frame in enumerate(harness._corpus(corpus_seed, size)):
            want = [channel.receive(frame, k * 1_000_000) for channel in singles]
            assert several.receive(frame, k * 1_000_000) == want

    # decode_reception demodulates at every detection without a guard:
    # a detection leaves room for a short frame behind its preamble
    @settings(max_examples=200, deadline=None)
    @given(st.booleans(), st.integers(0, 2**112 - 1), st.sampled_from([56, 112]),
           st.floats(-5, 30), st.integers(0, 2**32 - 1),
           st.sampled_from(["frame", "noise", "truncated"]), st.integers(0, 300))
    def test_every_detection_leaves_room_to_demodulate(self, downlink, word, nbits, snr_db,
                                                       seed, stream, keep):
        bits = np.array([(word >> i) & 1 for i in range(nbits)], dtype=np.uint8)
        clean = (phy.ppm_modulate if downlink else phy.dbpsk_modulate)(bits)
        pad = np.zeros(airspace.LEAD_PAD, dtype=clean.dtype)
        samples = np.concatenate([pad, clean if stream != "noise" else 0 * clean, pad])
        if stream == "truncated":
            samples = samples[:keep]
        noisy = phy.awgn(samples, snr_db, seed)
        detect = phy.ppm_frame_detect if downlink else phy.dbpsk_frame_detect
        for det in detect(noisy):
            if downlink:  # as decode_reception demodulates
                fit = (noisy.size - det.offset - phy.PPM_PREAMBLE.size) // 2
                got = phy.ppm_demodulate(noisy, det.offset, min(fit, phy.MAX_PAYLOAD_BITS))
            else:
                got = phy.dbpsk_demodulate(noisy, phy.sync_offset_of(det.offset))
            assert got.size >= phy.MIN_PAYLOAD_BITS

    # a block of one frame's receptions at several SNRs, as the loss sweep
    # decodes it, gives per row what that row's reception alone gives
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 13), st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from([-5.0, 3.0, 7.5, math.inf]) | st.floats(-8, 30),
                    min_size=1, max_size=6),
           st.integers(0, 10**12))
    def test_a_block_decodes_as_its_rows_one_at_a_time(self, corpus_seed, index, noise_seed,
                                                        snrs, deliver_ns):
        frame = harness._corpus(corpus_seed, index + 1)[index]  # every builder by index 13
        samples, sent = airspace.transmission(frame)
        block = phy.awgn(samples, snrs, noise_seed)
        got = airspace.decode_reception(frame, sent, block, deliver_ns)
        assert got == [airspace.decode_reception(frame, sent, row, deliver_ns) for row in block]


class TestEventOrdering:
    def test_same_time_orders_by_registration_then_sequence(self):
        a = Probe("a", 0x000001, _state(0, 0, 0))
        b = Probe("b", 0x000002, _state(1, 0, 0))
        w = airspace.World()
        w.add_entity(a)
        w.add_entity(b)
        w.schedule_timer(1_000, b, "t_b1")
        w.schedule_timer(1_000, a, "t_a1")
        w.schedule_timer(1_000, b, "t_b2")
        w.run_until(2_000)
        order = [r.outcome for r in w.log if r.kind == "timer"]
        assert order == ["t_a1", "t_b1", "t_b2"]

    @pytest.mark.parametrize("world_type", [airspace.World, oracles.ReferenceWorld],
                             ids=["world", "reference"])
    def test_a_timer_is_handed_the_generation_it_was_scheduled_with(self, world_type):
        a = Probe("a", 0x000001, _state(0, 0, 0))
        w = world_type()
        w.add_entity(a)
        w.schedule_timer(1_000, a, "plain")
        w.schedule_timer(2_000, a, "stamped", 7)
        w.schedule_timer(3_000, a, "keyword", generation=2**40)
        w.run_until(10_000)
        assert a.timers == [(1_000, "plain", 0), (2_000, "stamped", 7),
                            (3_000, "keyword", 2**40)]

    def test_causality_violation_raises(self):
        a = Probe("a", 0x000001, _state(0, 0, 0))
        w = airspace.World()
        w.add_entity(a)
        w.time_ns = 5_000
        with pytest.raises(airspace.SimError):
            w.schedule_timer(1_000, a, "late")

    def test_duplicate_entity_name_rejected(self):
        w = airspace.World()
        w.add_entity(Probe("a", 0x000001, _state(0, 0, 0)))
        with pytest.raises(airspace.SimError):
            w.add_entity(Probe("a", 0x000002, _state(1, 0, 0)))

    @pytest.mark.parametrize("schedule", [
        lambda w, e: w.schedule_timer(1_000, e, "tick"),
        lambda w, e: w.schedule_transmit(1_000, e, _squitter(0x000002)),
    ], ids=["timer", "transmit"])
    def test_unregistered_entity_rejected_at_schedule_time(self, schedule):
        w = airspace.World()
        w.add_entity(Probe("a", 0x000001, _state(0, 0, 0)))
        with pytest.raises(airspace.SimError, match="'stray'"):
            schedule(w, Probe("stray", 0x000002, _state(1, 0, 0)))
        w.run_until(10**9)
        assert w.log == []

    def test_pending_events_do_not_keep_the_world_alive(self):
        # a World whose queue still holds entries must be freed by reference
        # counting alone, or every finished run's log lives until a full GC
        a = Probe("a", 0x000001, _state(0, 0, 0))
        b = Probe("b", 0x000002, _state(1, 0, 0))
        w = airspace.World()
        w.add_entity(a)
        w.add_entity(b)
        w.schedule_timer(10**9, a, "later")
        w.schedule_transmit(10**9, a, _squitter(0x000001))
        w.run_until(1_000)
        ref = weakref.ref(w)
        gc.disable()
        try:
            del w
            assert ref() is None
        finally:
            gc.enable()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)), max_size=40))
    def test_timers_pop_by_time_then_registration_then_sequence(self, schedule):
        probes = [Probe(f"p{i}", i + 1, _state(i, 0, 0)) for i in range(5)]
        w = airspace.World()
        for p in probes:
            w.add_entity(p)
        for seq, (who, t) in enumerate(schedule):
            w.schedule_timer(t * 1_000, probes[who], str(seq))
        w.run_until(10_000)
        got = [(r.time_ns, r.source, r.outcome) for r in w.log if r.kind == "timer"]
        want = sorted((t * 1_000, who, seq) for seq, (who, t) in enumerate(schedule))
        assert got == [(t, f"p{who}", str(seq)) for t, who, seq in want]


class TestEventLog:
    def test_round_trip_through_file(self, tmp_path):
        a = Probe("a", 0x000001, _state(0, 0, 0))
        b = Probe("b", 0x000002, _state(2, 0, 0))
        w = airspace.World()
        w.add_entity(a)
        w.add_entity(b)
        w.schedule_timer(500, a, "tick")
        w.schedule_transmit(1_000, a, _squitter(0x000001))
        w.run_until(10**9)
        path = tmp_path / "events.log"
        airspace.write_event_log(path, w.log)
        back = airspace.read_event_log(path)
        assert back == w.log

    def test_comma_in_field_rejected(self):
        rec = airspace.LogRecord(0, "timer", "a", "-", "-", "bad,outcome")
        with pytest.raises(airspace.SimError):
            rec.to_line()

    def test_repeated_tails_read_back_sharing_their_strings(self, tmp_path):
        frames = ["8d4840d6202cc371c32ce0576098", "02e197b00179c3", "5d4840d6a1b2c3"]
        records = [airspace.LogRecord(1_000 * t, "deliver", "north", f"south{t % 2}",
                                      frames[t % 3], "not_addressed") for t in range(60)]
        path = tmp_path / "events.log"
        airspace.write_event_log(path, records)
        back = airspace.read_event_log(path)
        assert back == records
        for i, rec in enumerate(back):
            twin = back[i % 6]  # same destination and frame, so the same tail
            for name in ("kind", "source", "destination", "frame_hex", "outcome"):
                assert getattr(rec, name) is getattr(twin, name)
        assert back[0].frame_hex is not back[1].frame_hex

    @pytest.mark.parametrize("line", ["5,timer,a,-,-", "5,timer,a,-,-,tick,extra", "1,2,3"])
    def test_file_line_needs_exactly_six_fields(self, tmp_path, line):
        path = tmp_path / "events.log"
        path.write_text(f"1,timer,a,-,-,tick\n{line}\n")
        with pytest.raises(airspace.SimError, match="malformed log line"):
            airspace.read_event_log(path)

    def test_bad_time_on_a_repeated_tail_is_rejected(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_text("1,timer,a,-,-,tick\nsoon,timer,a,-,-,tick\n")
        with pytest.raises(ValueError, match="soon"):
            airspace.read_event_log(path)

    @pytest.mark.parametrize("time_text", ["1_000", " 7", "+5", "-5", "007", "abc",
                                           "9223372036854775808"])
    def test_time_must_read_as_written(self, tmp_path, time_text):
        path = tmp_path / "events.log"
        path.write_text(f"1,timer,a,-,-,tick\n{time_text},timer,a,-,-,tick\n")
        with pytest.raises(airspace.SimError, match="malformed log line"):
            airspace.read_event_log(path)

    # 20 digits is one more than any int64 has; 5,000 is past the length
    # int() converts at all, which raised a bare ValueError
    @pytest.mark.parametrize("digits", [20, 5_000])
    def test_a_time_with_more_digits_than_an_int64_is_a_malformed_line(self, tmp_path, digits):
        line = f"{'9' * digits},timer,a,-,-,tick"
        path = tmp_path / "events.log"
        path.write_text(f"1,timer,a,-,-,tick\n{line}\n")
        with pytest.raises(airspace.SimError, match="malformed log line") as caught:
            airspace.read_event_log(path)
        assert repr(line) in str(caught.value)

    def test_the_largest_int64_time_reads_back(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_text("9223372036854775807,timer,a,-,-,tick\n")
        assert airspace.read_event_log(path) == [
            airspace.LogRecord(2 ** 63 - 1, "timer", "a", "-", "-", "tick")]

    def test_a_record_past_int64_is_a_sim_error_that_logs_nothing(self):
        w = airspace.World()
        w.time_ns = airspace.TIME_LIMIT_NS - 1
        w.record("timer", "a", "-", None, "tick")
        w.time_ns = airspace.TIME_LIMIT_NS
        with pytest.raises(airspace.SimError, match="64 bits"):
            w.record("timer", "a", "-", None, "tock")
        assert w.log == [airspace.LogRecord(2 ** 63 - 1, "timer", "a", "-", "-", "tick")]
        assert w.log.table == [("timer", "a", "-", "-", "tick")]

    # one row per field, the time first; the first line's tail is the second's
    # in the time row, so that row reaches the time check on a repeated tail
    @pytest.mark.parametrize("line", [
        b"2\xc3\xa9,timer,a,-,-,tick", b"2,tim\xc3\xa9r,a,-,-,tick", b"2,timer,\xc3\xa9,-,-,tick",
        b"2,timer,a,\xc3\xa9,-,tick", b"2,timer,a,-,\xc3\xa9,tick", b"2,timer,a,-,-,tick\xc3\xa9"],
        ids=["time", "kind", "source", "destination", "frame_hex", "outcome"])
    def test_a_byte_that_is_not_ascii_makes_a_malformed_line(self, tmp_path, line):
        path = tmp_path / "events.log"
        path.write_bytes(b"1,timer,a,-,-,tick\n" + line + b"\n")
        with pytest.raises(airspace.SimError, match="malformed log line"):
            airspace.read_event_log(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_text("\n1,timer,a,-,-,tick\n  \n\n2,timer,a,-,-,tick\n\n")
        assert airspace.read_event_log(path) == [
            airspace.LogRecord(1, "timer", "a", "-", "-", "tick"),
            airspace.LogRecord(2, "timer", "a", "-", "-", "tick")]

    def test_read_back_costs_about_the_records_themselves(self, tmp_path):
        # 10,000 records over 50 distinct tails: strings split afresh for
        # every line cost about 400 B a record, shared ones under 200
        records = [airspace.LogRecord(10**9 + 7 * t, "deliver", f"craft{t % 5}",
                                      f"craft{t % 10}", f"8d{t % 50:06x}202cc371c32ce0576098",
                                      "unmatched_reply") for t in range(10_000)]
        path = tmp_path / "events.log"
        airspace.write_event_log(path, records)
        tracemalloc.start()
        try:
            back = airspace.read_event_log(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back == records
        assert peak / len(records) <= 200

    def test_last_line_without_newline_reads_back(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_text("1,timer,a,-,-,tick\n2,timer,a,-,-,tick")
        assert airspace.read_event_log(path) == [
            airspace.LogRecord(1, "timer", "a", "-", "-", "tick"),
            airspace.LogRecord(2, "timer", "a", "-", "-", "tick")]

    @pytest.mark.parametrize("field", ["source", "destination", "frame_hex", "outcome"])
    def test_comma_in_any_field_is_rejected_on_write(self, tmp_path, field):
        good = airspace.LogRecord(1, "deliver", "a", "b", "8d4840d6", "known")
        bad = good._replace(**{field: "x,y"})
        line = ",".join(map(str, bad))  # the error names the offending line
        with pytest.raises(airspace.SimError) as info:
            airspace.write_event_log(tmp_path / "events.log", [good, bad, good])
        assert repr(line) in str(info.value)
        with pytest.raises(airspace.SimError) as info:
            bad.to_line()
        assert repr(line) in str(info.value)

    @pytest.mark.parametrize("text", ["\u00e9", "\n", "\r"], ids=["non-ascii", "lf", "cr"])
    @pytest.mark.parametrize("field", ["kind", "source", "destination", "frame_hex", "outcome"])
    def test_what_the_reader_cannot_read_back_is_rejected_on_write(self, tmp_path, field, text):
        good = airspace.LogRecord(1, "deliver", "a", "b", "8d4840d6", "known")
        bad = good._replace(**{field: f"kno{text}wn"})
        line = ",".join(map(str, bad))
        path = tmp_path / "events.log"
        with pytest.raises(airspace.SimError) as info:
            airspace.write_event_log(path, [good, bad, good])
        assert repr(line) in str(info.value)
        assert not path.exists()  # refused before the file is opened
        with pytest.raises(airspace.SimError) as info:
            bad.to_line()
        assert repr(line) in str(info.value)

    def test_record_unpacks_to_its_six_fields_in_line_order(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_text("7,deliver,a,b,02e197b00179c3,known\n")
        [rec] = airspace.read_event_log(path)
        assert tuple(rec) == (7, "deliver", "a", "b", "02e197b00179c3", "known")

    def test_read_back_records_are_log_records(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_text("1,timer,a,-,-,tick\n2,timer,a,-,-,tick\n")
        back = airspace.read_event_log(path)
        assert [type(rec) for rec in back] == [airspace.LogRecord] * 2
        assert back[1].time_ns == 2 and back[1].outcome == "tick"

    def test_records_are_slotted_and_frozen(self):
        rec = airspace.LogRecord(7, "timer", "a", "-", "-", "tick")
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):
            rec.outcome = "tock"

    @pytest.mark.parametrize("line", [
        "5,radar,a,-,-,ping",
        "5,transmit,a,*,8d4840d6202cc371c32ce0576098,lost",
        "5,tcas,a,000001,-,bogus;1",
        "5,tcas,a,000001,-,range=abc;rate=none",
        "5,nmac,a,b,-,window",
        "5,deliver,a,b,8d4840d6,known",
        "5,transmit,a,*,8D4840D6202CC371C32CE0576098,sent",
        "5,deliver,a,b,0x4840d6202cc371c32ce0576098,known",
        "5,deliver,a,b,-,phy_drop",
        "5,timer,a,-,02e197b00179c3,tick",
        "5,tcas,a,000001,02e197b00179c3,ta_issued",
    ], ids=["unknown-kind", "transmit-lost", "unknown-note", "range-not-a-number",
            "window-without-until", "frame-of-8-digits", "frame-in-capitals", "frame-with-0x",
            "delivery-without-frame", "timer-with-frame", "note-with-frame"])
    def test_read_rejects_outcomes_outside_the_grammar(self, tmp_path, line):
        path = tmp_path / "events.log"
        path.write_text(f"1,timer,a,-,-,tick\n{line}\n")
        with pytest.raises(airspace.SimError) as info:
            airspace.read_event_log(path)
        assert repr(line) in str(info.value)

    def test_note_writes_and_parse_note_reads_each_shape(self):
        cases = {"ta_issued": ("ta_issued", (), {}),
                 "ra_issued;climb;limit=12600": ("ra_issued", ("climb",), {"limit": "12600"}),
                 "range=2.500000;rate=none": ("range", (), {"range": "2.500000", "rate": "none"}),
                 "window;until=7": ("window", (), {"until": "7"}),
                 "recon;a30002;code=x=1": ("recon", ("a30002",), {"code": "x=1"})}
        for text, (name, args, params) in cases.items():
            assert airspace.parse_note(text) == airspace.Note(name, args, params)
            assert airspace.note(name, *args, **params) == text

    @pytest.mark.parametrize("line", [
        "2,tcas,own,a30002,-,range=nan;rate=none",
        "2,tcas,own,a30002,-,range=inf;rate=none",
        "2,tcas,own,a30002,-,range=1_0;rate=none",
        "2,nmac,own,ground,-,window;until=-5",
        "2,nmac,own,ground,-,window;until= 7",
    ], ids=["range-nan", "range-inf", "range-with-underscore", "until-negative",
            "until-with-space"])
    def test_read_takes_a_note_value_only_as_its_writer_writes_it(self, tmp_path, line):
        path = tmp_path / "events.log"
        path.write_text(f"1,timer,a,-,-,tick\n{line}\n")
        with pytest.raises(airspace.SimError, match="malformed log line") as info:
            airspace.read_event_log(path)
        assert repr(line) in str(info.value)

    @pytest.mark.parametrize("args, params", [
        (("a=b",), {}), (("a;b",), {}), ((), {"range": "1;2", "rate": "none"}),
        ((), {"a=b": "1"}), ((), {"a;b": "1"}), (("climb",), {"limit": "1;2"}),
    ], ids=["arg-with-eq", "arg-with-semicolon", "value-with-semicolon", "key-with-eq",
            "key-with-semicolon", "value-after-an-arg"])
    def test_note_refuses_what_parse_note_could_not_give_back(self, args, params):
        with pytest.raises(airspace.SimError, match="note 'recon'"):
            airspace.note("recon", *args, **params)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab1.=;"))
    @example("")
    @example(";;")
    @example("a=b=c")
    @example("a=1;a=2;b")
    @example("a;b=1;b=2;b")
    @example("=;=a;a=")
    def test_parse_note_equals_the_oracle(self, text):
        assert airspace.parse_note(text) == oracles.reference_parse_note(text)

    def test_each_note_name_has_exactly_one_kind(self):
        listed = [name for names in airspace.NOTES.values() for name in names]
        assert sorted(airspace.NOTE_KIND) == sorted(listed)  # a name under two kinds fails
        assert all(name in airspace.NOTES[kind] for name, kind in airspace.NOTE_KIND.items())

    def test_world_note_logs_under_the_kind_of_its_name(self):
        a = Probe("a", 0x000001, _state())
        w = airspace.World()
        w.add_entity(a)
        w.note(a, "000002", "ra_issued", "climb", limit="12600")
        w.note(a, "-", "engage", rate="1500")
        w.note(a, "000002", "range", range="2.500000", rate="none")
        assert [r.to_line() for r in w.log] == [
            "0,tcas,a,000002,-,ra_issued;climb;limit=12600",
            "0,pilot,a,-,-,engage;rate=1500",
            "0,tcas,a,000002,-,range=2.500000;rate=none"]

    def test_world_note_refuses_a_name_that_notes_does_not_list(self):
        a = Probe("a", 0x000001, _state())
        w = airspace.World()
        w.add_entity(a)
        with pytest.raises(airspace.SimError, match=r"^a: note 'no_such_note' is not"):
            w.note(a, "-", "no_such_note")
        assert w.log == []

    # a kind, or a listed name in other case, is not a note name either
    @pytest.mark.parametrize("name", ["", "tcas", "timer", "RANGE"])
    def test_world_note_refuses_a_kind_or_a_name_in_other_case(self, name):
        a = Probe("a", 0x000001, _state())
        w = airspace.World()
        w.add_entity(a)
        with pytest.raises(airspace.SimError, match=f"^a: note {name!r} is not"):
            w.note(a, "-", name)
        assert w.log == []

    # one digit short of or past either frame length, or both lengths run
    # together, is no frame as ModeSFrame.to_hex writes it
    @pytest.mark.parametrize("digits", [
        codec.SHORT_FRAME_BITS // 4 - 1, codec.SHORT_FRAME_BITS // 4 + 1,
        codec.LONG_FRAME_BITS // 4 - 1, codec.LONG_FRAME_BITS // 4 + 1,
        (codec.SHORT_FRAME_BITS + codec.LONG_FRAME_BITS) // 4])
    def test_a_frame_of_any_other_length_is_a_malformed_line(self, tmp_path, digits):
        short, long = "02e197b00179c3", _squitter(0x000001).to_hex()
        assert (len(short), len(long)) == (codec.SHORT_FRAME_BITS // 4,
                                           codec.LONG_FRAME_BITS // 4)
        line = f"5,deliver,a,b,{(short + long)[:digits]},known"
        path = tmp_path / "events.log"
        path.write_text(f"1,deliver,a,b,{short},known\n2,deliver,a,b,{long},known\n{line}\n")
        with pytest.raises(airspace.SimError, match="malformed log line") as info:
            airspace.read_event_log(path)
        assert repr(line) in str(info.value)


class Faulty(Probe):
    """A probe whose handlers fail, as a buggy entity's would."""

    def on_frame(self, world, frame, rx_time_ns) -> str:
        raise KeyError("no such track")

    def on_timer(self, world, timer, generation) -> None:
        raise ZeroDivisionError("rate of nothing")


class TestHandlerErrors:
    """An exception escaping a handler leaves ``run_until`` as a SimError
    naming the event kind, its entities and the instant, chained from it."""

    def test_a_bound_that_is_no_time_raises_as_it_is(self):
        a = Probe("a", 0x000001, _state(0, 0, 0))
        w = airspace.World()
        w.add_entity(a)
        w.schedule_timer(1_234, a, "tick")
        with pytest.raises(TypeError):
            w.run_until(None)
        assert w.log == [] and a.timers == []

    def test_timer(self):
        a = Faulty("a", 0x000001, _state(0, 0, 0))
        w = airspace.World()
        w.add_entity(a)
        w.schedule_timer(1_234, a, "tick")
        with pytest.raises(airspace.SimError,
                           match=r"^timer 'tick' of a at time_ns=1234: rate of nothing$") as info:
            w.run_until(10_000)
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_deliver(self):
        a = Probe("a", 0x000001, _state(0, 0, 0))
        b = Faulty("b", 0x000002, _state(20, 0, 0))
        w = airspace.World()
        w.add_entity(a)
        w.add_entity(b)
        w.schedule_transmit(5_000, a, _squitter(0x000001))
        with pytest.raises(airspace.SimError,
                           match=r"^deliver from a to b at time_ns=128552: ") as info:
            w.run_until(10**9)
        assert isinstance(info.value.__cause__, KeyError)

    def test_transmit(self):
        a = Probe("a", 0x000001, _state(0, 0, 0))
        w = airspace.World()
        w.add_entity(a)
        w.add_entity(Probe("b", 0x000002, _state(1, 0, 0)))
        a.state0 = None  # its position can no longer be computed
        w.schedule_transmit(99, a, _squitter(0x000001))
        with pytest.raises(airspace.SimError, match=r"^transmit by a at time_ns=99: ") as info:
            w.run_until(1_000)
        assert isinstance(info.value.__cause__, AttributeError)


class TestMotionSegments:
    def test_segments_capture_velocity_changes(self):
        a = tcas.Aircraft("a", 0x000001, _state(0, 0, 10_000, vx=100), mode=tcas.MODE_XPDR,
                          squitter=False, pilot=tcas.PilotModel(delay_s=0.0))
        w = airspace.World()
        w.add_entity(a)
        w.run_until(3 * 10**9)
        # a descent flown from t=3 s, well short of its limit by t=4 s
        a.advisory = tcas.Advisory(tcas.DESCEND, 9_000.0, 0x000002)
        a.fly_advisory(w)
        w.run_until(4 * 10**9)
        segs = a.segments
        assert len(segs) == 2
        assert segs[0][0] == 0 and segs[1][0] == 3 * 10**9
        assert segs[1][1].vertical_rate_fpm == -1500
        assert segs[1][1].x_nmi == pytest.approx(100 * 3 / 3600)
        assert a.state_at(4 * 10**9).altitude_ft == pytest.approx(10_000 - 25)
