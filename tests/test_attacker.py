"""Phantom injection phase machine, reply timing, and flood behaviour."""

from __future__ import annotations

import json
import math
import random
from importlib import resources

import pytest

from tcassim import airspace, attacker as atk, harness, modes_codec as codec, tcas
from tcassim import scenario as scen

import oracles

VICTIM = 0x3C4EFA
PHANTOM = VICTIM - 1


def _victim(x=-20.0, alt=42_000.0, vx=480.0, mode=tcas.MODE_TA_RA):
    return tcas.Aircraft("victim", VICTIM,
                         airspace.AircraftState(x, 0.0, alt, vx_kt=vx), mode=mode)


def _attacker(**kw):
    pos = (-15.0, 2.0, 0.0)
    kw.setdefault("mission", atk.MISSION_PHANTOM)
    kw.setdefault("target", _victim())
    return atk.Attacker("attacker", pos, **kw)


def _build(*entities):
    w = airspace.World()
    for idx, e in enumerate(entities):
        w.add_entity(e)
        e.start(w, phase_ns=idx * 37_000_000)
    return w


def _bundled_doc(name):
    return json.loads((resources.files("tcassim") / "scenarios" / f"{name}.json").read_text())


def _phase_times(world):
    out = []
    for rec in world.log:
        if rec.kind == "attack" and rec.outcome.startswith("phase;"):
            out.append((rec.outcome.split(";")[1], rec.time_ns))
    return out


class TestReplyDelay:
    def test_matches_long_hand_oracle(self):
        rng = random.Random(0x5EED)
        for _ in range(200):
            true = rng.uniform(0.2, 60.0)
            desired = rng.uniform(max(0.1, true - 10.0), 80.0)
            assert atk.compute_reply_delay(true, desired) == \
                oracles.spoof_extra_delay_ns(true, desired)

    def test_outward_spoof_positive_inward_negative(self):
        assert atk.compute_reply_delay(5.0, 10.0) > 0
        assert atk.compute_reply_delay(10.0, 5.0) < 0

    def test_infeasible_when_reply_precedes_reception(self):
        # pulling the phantom more than ~10.36 nmi inside the true range
        # would need a transmission before the interrogation arrives
        with pytest.raises(atk.InfeasibleReply):
            atk.compute_reply_delay(12.0, 1.0)
        atk.compute_reply_delay(10.0, 1.0)  # just inside: allowed

    def test_zero_shift_is_zero(self):
        assert atk.compute_reply_delay(7.0, 7.0) == 0


class TestTrajectoryFit:
    def test_exact_on_linear_motion(self):
        s0 = airspace.AircraftState(-20.0, 1.0, 42_000.0, vx_kt=480.0,
                                    vy_kt=-60.0, vertical_rate_fpm=-900.0)
        samples = []
        for k in range(6):
            t = k * airspace.NS_PER_S
            s = airspace.step_kinematics(s0, k)
            samples.append((t, s.x_nmi, s.y_nmi, s.altitude_ft))
        at = 8 * airspace.NS_PER_S
        want = airspace.step_kinematics(s0, 8.0)
        x, y, alt = atk.fit_linear_track(samples, at)
        assert x == pytest.approx(want.x_nmi, abs=1e-9)
        assert y == pytest.approx(want.y_nmi, abs=1e-9)
        assert alt == pytest.approx(want.altitude_ft, abs=1e-6)

    def test_single_sample_is_stationary(self):
        assert atk.fit_linear_track([(0, 1.0, 2.0, 3.0)], 10**9) == (1.0, 2.0, 3.0)

    def test_empty_rejected(self):
        with pytest.raises(airspace.SimError):
            atk.fit_linear_track([], 0)


class TestPlan:
    def test_profile_and_floor(self):
        plan = atk.PhantomPlan()
        assert plan.desired_range_nmi(0.0) == 10.0
        assert plan.desired_range_nmi(27.0) == pytest.approx(6.4)
        assert plan.desired_range_nmi(71.25) == pytest.approx(0.5)
        assert plan.desired_range_nmi(200.0) == 0.5


class TestPhantomMission:
    def test_a_phantom_without_a_target_is_refused_when_built(self):
        with pytest.raises(airspace.SimError, match="target"):
            atk.Attacker("attacker", (-15.0, 2.0, 0.0),
                         mission=atk.MISSION_PHANTOM)

    def _run(self, seconds=60):
        victim = _victim()
        ghost = _attacker(target=victim)
        w = _build(victim, ghost)
        w.run_until(seconds * airspace.NS_PER_S)
        return w, victim, ghost

    def test_phases_in_order(self):
        w, victim, ghost = self._run(60)
        names = [p for p, _ in _phase_times(w)]
        assert names == ["recon", "baiting", "tracking", "threat_declared", "done"]
        times = [t for _, t in _phase_times(w)]
        assert times == sorted(times)
        assert ghost.phase == "done"

    def test_victim_tracks_phantom_and_descends(self):
        w, victim, ghost = self._run(60)
        assert PHANTOM in victim.tracks
        ra = [r for r in w.log if r.kind == "tcas" and r.source == "victim"
              and r.outcome.startswith("ra_issued")]
        assert len(ra) == 1
        assert ra[0].destination == f"{PHANTOM:06x}"
        parts = ra[0].outcome.split(";")
        assert parts[1] == "descend"
        assert parts[2] == "limit=40800"
        assert 36.0 <= ra[0].time_ns / 1e9 <= 44.0

    def test_restriction_received_before_advisory(self):
        w, victim, ghost = self._run(60)
        rac = [r for r in w.log if r.kind == "tcas" and r.source == "victim"
               and r.outcome.startswith("rac_received")]
        ra = [r for r in w.log if r.outcome.startswith("ra_issued")]
        assert rac and ra and rac[0].time_ns < ra[0].time_ns
        assert rac[0].outcome == f"rac_received;{codec.RAC_DO_NOT_PASS_ABOVE}"

    def test_recon_measures_true_range(self):
        w, victim, ghost = self._run(10)
        recs = [r for r in w.log if r.kind == "attack" and r.outcome.startswith("recon;")]
        assert len(recs) == 1
        rng = float(recs[0].outcome.split(";")[1].split("=")[1])
        t = recs[0].time_ns
        true = airspace.separation_nmi(victim.position_at(t), ghost.position_at(t))
        assert rng == pytest.approx(true, abs=0.05)

    def test_spoofed_ranges_follow_plan(self):
        w, victim, ghost = self._run(120)
        plan = ghost.plan
        interrogations = [r.time_ns for r in w.log
                          if r.kind == "transmit" and r.source == "victim"
                          and r.destination == f"{PHANTOM:06x}" and r.outcome == "sent"]
        t0 = interrogations[0]
        updates = [r for r in w.log if r.kind == "tcas" and r.source == "victim"
                   and r.destination == f"{PHANTOM:06x}"
                   and r.outcome.startswith("range=")]
        assert len(updates) >= 110
        half_quantum = 0.5 * tcas.rtt_to_range_nmi(tcas.TURNAROUND_NS + 2000)
        for rec in updates:
            measured = float(rec.outcome.split(";")[0].split("=")[1])
            tx = max(t for t in interrogations if t < rec.time_ns)
            want = plan.desired_range_nmi((tx - t0) / 1e9)
            assert abs(measured - want) <= half_quantum, rec.to_line()

    def test_predictive_mode_engages_when_reaction_is_too_late(self):
        w, victim, ghost = self._run(120)
        armed = [r for r in w.log if r.outcome.startswith("predictive_armed")]
        assert armed
        assert 90.0 <= armed[0].time_ns / 1e9 <= 115.0
        covered = [r for r in w.log if r.kind == "deliver" and r.outcome == "spoof_predicted"]
        assert covered
        missed = [r for r in w.log if r.outcome == "spoof_missed"]
        assert not missed

    def test_attack_survives_until_end(self):
        w, victim, ghost = self._run(120)
        # the advisory must stay latched: no clear, phantom track alive
        assert not [r for r in w.log if r.outcome.startswith("ra_cleared")]
        assert victim.advisory is not None
        state = victim.state_at(w.time_ns)
        assert state.altitude_ft == 40_800.0
        assert state.vertical_rate_fpm == 0.0

    def test_a_phantom_farther_out_than_its_plan_misses_until_it_predicts(self):
        # from the intruder's start, 40 nmi from the victim, no reply sent on
        # reception can make the phantom look 2 nmi away
        doc = _bundled_doc("head_on_phantom")
        doc["attacker"]["position"].update(x_nmi=20.0, y_nmi=0.0)
        doc["attacker"]["plan"]["initial_range_nmi"] = 2.0
        result = harness.simulate(scen.load_scenario(doc))
        missed = [r.time_ns for r in result.records if r.outcome == "spoof_missed"]
        notes = [r.time_ns for r in result.records if r.outcome == "reactive_infeasible"]
        assert len(missed) == 12 and notes == missed
        assert result.report.succeeded

    def test_a_victims_ra_active_reply_ends_a_declared_threat(self):
        victim = _victim()
        ghost = _attacker(target=victim)
        w = _build(victim, ghost)
        ghost.phase = "threat_declared"
        reply = codec.build_reply("surveillance_long", VICTIM, altitude_ft=42_000,
                                  rac=codec.RAC_DO_NOT_PASS_BELOW, ra_active=True)
        assert ghost.on_frame(w, reply, 0) == "evidence"
        assert ghost.phase == "done"
        assert [r.outcome for r in w.log[-2:]] == ["phase;done", "evidence;target_ra_active"]

    # a phantom answers only interrogations addressed to it; only an
    # attacker sends all-calls, and a world holds one attacker
    @pytest.mark.parametrize("frame", [
        codec.ModeSFrame.from_hex("00000000000000", codec.UPLINK),
        codec.build_interrogation("all_call"),
        codec.ModeSFrame.from_hex("00000000000000", codec.DOWNLINK)],
        ids=["unknown-uplink", "all-call", "unknown-downlink"])
    def test_a_tracking_phantom_observes_what_is_not_its_interrogation(self, frame):
        victim = _victim()
        ghost = _attacker(target=victim)
        w = airspace.World()
        w.add_entity(victim)
        w.add_entity(ghost)
        ghost.phase = "tracking"
        assert ghost.on_frame(w, frame, 0) == "observed"
        assert w.log == [] and w._heap == []

    def test_no_prediction_is_armed_for_a_reply_already_too_late(self):
        # 50 nmi out, a reply leaving now still arrives after a 1 nmi
        # phantom's would
        victim = _victim()
        ghost = atk.Attacker("attacker", (30.0, 0.0, 0.0), target=victim,
                             plan=atk.PhantomPlan(initial_range_nmi=1.0))
        w = airspace.World()
        w.add_entity(victim)
        w.add_entity(ghost)
        w.time_ns = airspace.NS_PER_S
        ghost._intel.append((w.time_ns, *victim.position_at(w.time_ns)))
        ghost._plan_t0_ns = w.time_ns
        ghost._arm_prediction(w, w.time_ns)
        assert w.log == [] and w._heap == [] and ghost._predicted_for_ns is None

    def test_bait_timeout_without_surveillance(self):
        victim = _victim(mode=tcas.MODE_XPDR)  # replies but never interrogates
        ghost = _attacker(bait_timeout_s=15.0, target=victim)
        w = _build(victim, ghost)
        w.run_until(30 * airspace.NS_PER_S)
        assert [r for r in w.log if r.outcome == "bait_timeout"]
        names = [p for p, _ in _phase_times(w)]
        assert names == ["recon", "baiting", "done"]

    def test_a_phantom_that_gives_up_goes_silent(self):
        result = harness.simulate(scen.load_scenario(GIVE_UP))
        gave_up = next(i for i, r in enumerate(result.records) if r.outcome == "bait_timeout")
        after = result.records[gave_up + 1:]
        assert not [r for r in after if r.kind == "transmit" and r.source == "attacker"]
        assert {r.outcome for r in after
                if r.kind == "deliver" and r.destination == "attacker"} == {"observed"}
        # each of its timers fires once more, and does not re-arm
        timers = [r.outcome for r in after if r.kind == "timer" and r.source == "attacker"]
        assert sorted(timers) == ["bait", "intel"]
        assert not [r for r in after if r.kind == "tcas" and r.destination == f"{PHANTOM:06x}"
                    and r.outcome.startswith(("range", "ta_issued"))]
        assert [p for _, p in result.report.attack_phases] == ["recon", "baiting", "done"]
        assert result.report.plan_error_series == []


# The victim's interrogations are jammed until after the bait timeout, so
# the phantom gives up before the victim ever asks it for a range.
GIVE_UP = {
    "schema_version": 1, "name": "give_up", "duration_s": 60.0,
    "aircraft": [{"name": "victim", "icao": f"{VICTIM:06X}", "mode": "ta_ra",
                  "position": {"x_nmi": -20.0, "y_nmi": 0.0, "altitude_ft": 42_000.0},
                  "velocity": {"vx_kt": 480.0}}],
    "attacker": {"name": "attacker", "mission": "phantom", "target": f"{VICTIM:06X}",
                 "position": {"x_nmi": -15.0, "y_nmi": 2.0, "altitude_ft": 0.0},
                 "bait_timeout_s": 20.0,
                 "jam": [{"target": f"{VICTIM:06X}", "start_s": 0.1, "end_s": 30.0}]},
}


class TestPeriodLearning:
    def test_median_of_reconstructed_spacings(self):
        ghost = _attacker()
        for t in (0, 10**9, 2 * 10**9 + 40, 3 * 10**9 + 40, 4 * 10**9):
            ghost._est_tx.append(t)
        assert ghost.surveillance_period_ns() == 10**9

    def test_needs_two_observations(self):
        ghost = _attacker()
        assert ghost.surveillance_period_ns() is None
        ghost._est_tx.append(0)
        assert ghost.surveillance_period_ns() is None


class TestAllCallFlood:
    def test_every_aircraft_answers_every_interrogation(self):
        aircraft = [
            tcas.Aircraft(f"ac{k}", 0x100001 + k,
                          airspace.AircraftState(3.0 * k - 6.0, 5.0, 11_000 + 500 * k),
                          mode=tcas.MODE_XPDR)
            for k in range(4)
        ]
        ghost = atk.Attacker("attacker", (0.0, 0.0, 0.0),
                             mission=atk.MISSION_ALL_CALL_FLOOD,
                             flood=atk.FloodPlan(rate_hz=10.0, duration_s=10.0))
        w = _build(*aircraft, ghost)
        w.run_until(15 * airspace.NS_PER_S)
        calls = [r for r in w.log if r.kind == "transmit" and r.source == "attacker"]
        assert len(calls) == 100
        replies = [r for r in w.log
                   if r.kind == "deliver" and r.destination == "attacker"
                   and codec.ModeSFrame.from_hex(r.frame_hex, codec.DOWNLINK).format_code
                   == codec.DF_ALL_CALL_REPLY]
        assert len(replies) == 400
        assert [r for r in w.log if r.outcome == "flood_complete"]


@pytest.mark.parametrize("mission", [atk.MISSION_ALL_CALL_FLOOD, atk.MISSION_SQUITTER_FLOOD])
@pytest.mark.parametrize("rate_hz,duration_s", [(3.0, 1.0), (7.0, 2.5), (0.3, 5.0), (10.0, 1.0)])
def test_a_flood_sends_its_plans_frame_count(mission, rate_hz, duration_s):
    plan = atk.FloodPlan(rate_hz=rate_hz, duration_s=duration_s)
    duration_ns = round(duration_s * airspace.NS_PER_S)
    want = [k * plan.period_ns for k in range(100) if k * plan.period_ns < duration_ns]
    w = _build(atk.Attacker("attacker", (0.0, 0.0, 0.0), mission=mission, flood=plan))
    w.run_until(20 * airspace.NS_PER_S)
    assert [r.time_ns for r in w.log if r.kind == "transmit"] == want
    assert plan.frames == len(want)
    done = [r.time_ns for r in w.log if r.outcome == "flood_complete"]
    assert done == [len(want) * plan.period_ns]


class TestSquitterFlood:
    def _run(self, flood):
        victim = tcas.Aircraft("victim", VICTIM,
                               airspace.AircraftState(0.0, 0.0, 36_000, vx_kt=450.0))
        real = tcas.Aircraft("real", 0x0ABCDE,
                             airspace.AircraftState(9.0, 3.0, 35_000, vx_kt=440.0),
                             mode=tcas.MODE_XPDR)
        entities = [victim, real]
        if flood:
            entities.append(atk.Attacker(
                "attacker", (-2.0, -2.0, 0.0),
                mission=atk.MISSION_SQUITTER_FLOOD,
                flood=atk.FloodPlan(rate_hz=100.0, duration_s=5.0)))
        w = _build(*entities)
        w.run_until(8 * airspace.NS_PER_S)
        return w, victim

    def test_real_track_evicted_under_flood(self):
        w, victim = self._run(flood=True)
        drops = [r for r in w.log if r.source == "victim"
                 and r.outcome == "track_drop;evicted" and r.destination == "0abcde"]
        assert drops
        # the table must have been saturated while the flood ran
        count = peak = 0
        for r in w.log:
            if r.kind == "tcas" and r.source == "victim":
                if r.outcome == "track_new":
                    count += 1
                    peak = max(peak, count)
                elif r.outcome.startswith("track_drop"):
                    count -= 1
        assert peak == tcas.TRACK_CAPACITY
        # once the flood stops, the fabricated tracks miss out and the
        # real target is re-acquired
        assert 0x0ABCDE in victim.tracks
        assert len(victim.tracks) < tcas.TRACK_CAPACITY

    def test_a_flood_that_covers_the_victims_address_is_not_tracked(self):
        doc = _bundled_doc("squitter_flood")  # the watcher is 3C5A10
        doc["attacker"]["flood"]["address_base"] = "3C5A00"
        result = harness.simulate(scen.load_scenario(doc))
        [own] = [r for r in result.records if r.outcome == "own_address"]
        assert (own.source, own.destination) == ("ground", "watcher")
        assert codec.parse_frame(codec.ModeSFrame.from_hex(
            own.frame_hex, codec.DOWNLINK)).fields["icao"] == 0x3C5A10
        assert "3c5a10" not in {r.destination for r in result.records
                                if r.outcome == "track_new"}

    def test_control_run_keeps_real_track(self):
        w, victim = self._run(flood=False)
        assert not [r for r in w.log if r.outcome.startswith("track_drop")]
        assert 0x0ABCDE in victim.tracks

    def test_flood_addresses_never_repeat(self):
        w, victim = self._run(flood=True)
        sent = [r.frame_hex for r in w.log
                if r.kind == "transmit" and r.source == "attacker"]
        assert len(sent) == 500
        addresses = {
            codec.parse_frame(codec.ModeSFrame.from_hex(h, codec.DOWNLINK)).fields["icao"]
            for h in sent}
        assert len(addresses) == 500


class TestJamDuringAdvisory:
    """Jamming the threat's replies during a resolution advisory: the
    threat's track misses out, and the advisory clears with it."""

    def _run(self):
        doc = _bundled_doc("head_on_phantom")
        doc["aircraft"][1]["position"]["altitude_ft"] = 41_800.0
        doc["attacker"] = {"name": "ground", "mission": "all_call_flood",
                           "position": {"x_nmi": 0.0, "y_nmi": 50.0, "altitude_ft": 0.0},
                           "jam": [{"target": "4B17C3", "start_s": 118.0}]}
        doc["success"] = []
        return harness.simulate(scen.load_scenario(doc)).records

    def test_a_lost_threat_track_clears_the_advisory(self):
        victim = [(r.time_ns, r.outcome) for r in self._run()
                  if r.kind in ("tcas", "pilot") and r.source == "victim"
                  and r.outcome.startswith(("ra_", "track_drop", "engage", "level_off"))]
        assert victim == [(115_500_241_668, "ra_issued;climb;limit=42400"),
                          (120_500_241_668, "engage;rate=1500"),
                          (124_500_000_000, "track_drop;miss_limit"),
                          (124_500_000_000, "ra_cleared;track_lost"),
                          (124_500_000_000, "level_off;cleared")]

    def test_the_cleared_advisorys_level_off_timer_does_nothing(self):
        records = self._run()
        fired = [r.time_ns for r in records
                 if r.kind == "timer" and r.source == "victim" and r.outcome == "pilot_level"]
        assert fired == [136_500_241_668]
        assert not [r for r in records if r.source == "victim" and r.kind == "pilot"
                    and r.time_ns >= fired[0]]


@pytest.mark.parametrize("call,match", [
    (lambda: atk.Attacker("attacker", (0.0, 0.0, 0.0), mission="jam"), "unknown mission"),
    (lambda: _attacker().on_timer(airspace.World(), "tock", {}), "unknown timer"),
    (lambda: atk.compute_reply_delay(0.0, math.inf), "inf nmi does not count in nanoseconds"),
    (lambda: atk.compute_reply_delay(0.0, math.nan), "nan nmi does not count in nanoseconds"),
    (lambda: atk.compute_reply_delay(0.0, 1e306), "2e\\+306 nmi does not count"),
], ids=["unknown-mission", "unknown-timer", "reply-delay-inf", "reply-delay-nan",
        "reply-delay-huge"])
def test_direct_construction_is_checked(call, match):
    with pytest.raises(airspace.SimError, match=match):
        call()
