"""Scenario schema: strict validation, defaults, bundled fixtures, assembly."""

from __future__ import annotations

import json
import math
from dataclasses import fields

import pytest

from tcassim import modes_codec as codec
from tcassim import scenario as scen
from tcassim.airspace import AwgnChannel, NoiselessChannel, separation_nmi
from tcassim.attacker import Attacker, FloodPlan, PhantomPlan
from tcassim.scenario import ScenarioError
from tcassim.tcas import Aircraft, PilotModel


PHANTOM = {"name": "g", "mission": "phantom", "target": "ABC123",
           "position": {"x_nmi": 1.0, "y_nmi": 0.0, "altitude_ft": 0.0}}
SQUITTER_FLOOD = {"name": "g", "mission": "squitter_flood",
                  "position": {"x_nmi": 1.0, "y_nmi": 0.0, "altitude_ft": 0.0}}


def minimal_doc(**extra) -> dict:
    doc = {
        "schema_version": 1,
        "name": "case",
        "duration_s": 10.0,
        "aircraft": [
            {"name": "solo", "icao": "ABC123",
             "position": {"x_nmi": 0.0, "y_nmi": 0.0, "altitude_ft": 30000.0}},
        ],
    }
    doc.update(extra)
    return doc


class TestLoading:
    def test_minimal_document_defaults(self):
        s = scen.load_scenario(minimal_doc())
        assert s.name == "case"
        assert s.surveillance_period_s == 1.0
        assert s.snr_db == math.inf
        assert s.seed == 0
        assert s.attacker is None
        assert s.success == ()
        craft = s.aircraft[0]
        assert craft.mode == "ta_ra"
        assert craft.squitter is True
        assert (craft.state.vx_kt, craft.state.vy_kt, craft.state.vertical_rate_fpm) == (0, 0, 0)

    def test_load_from_json_text_and_path(self, tmp_path):
        text = json.dumps(minimal_doc())
        assert scen.load_scenario(text).name == "case"
        path = tmp_path / "case.json"
        path.write_text(text)
        assert scen.load_scenario(path).name == "case"
        assert scen.load_scenario(str(path)).name == "case"

    @pytest.mark.parametrize("source", [42, b"{}", None], ids=["int", "bytes", "none"])
    def test_load_refuses_what_is_no_document(self, source):
        with pytest.raises(ScenarioError, match="cannot load a scenario from"):
            scen.load_scenario(source)

    def test_duration_in_nanoseconds(self):
        s = scen.load_scenario(minimal_doc(duration_s=2.5))
        assert s.duration_ns == 2_500_000_000

    def test_without_attacker_strips_only_the_attacker(self):
        s = scen.bundled_scenario("squitter_flood")
        control = s.without_attacker()
        assert control.attacker is None
        assert control.aircraft == s.aircraft
        assert control.seed == s.seed


class TestValidation:
    @pytest.mark.parametrize("mutate,needle", [
        (lambda d: d.update(color="red"), "color"),
        (lambda d: d.update(schema_version=2), "schema_version"),
        (lambda d: d.pop("name"), "name"),
        (lambda d: d.pop("duration_s"), "duration_s"),
        (lambda d: d.update(duration_s=0), "duration_s"),
        (lambda d: d.update(surveillance_period_s=-1), "surveillance_period_s"),
        (lambda d: d.update(seed=1.5), "seed"),
        (lambda d: d.update(seed=-1), "seed"),
        (lambda d: d.update(seed=-1, channel={"kind": "awgn", "snr_db": 10}), "seed"),
        (lambda d: d.update(aircraft=[]), "aircraft"),
        (lambda d: d.update(success=["win"]), "win"),
        (lambda d: d.update(channel={"kind": "fuzzy"}), "fuzzy"),
        (lambda d: d.update(channel={"kind": "noiseless", "snr_db": 3}), "snr_db"),
        (lambda d: d.update(channel={"kind": "awgn", "snr_db": 10}), "seed"),
        (lambda d: d["aircraft"][0].update(thrust=1), "thrust"),
        (lambda d: d["aircraft"][0].update(icao="xyz"), "hex"),
        (lambda d: d["aircraft"][0].update(mode="glider"), "glider"),
        (lambda d: d["aircraft"][0].update(squitter="yes"), "squitter"),
        (lambda d: d["aircraft"][0].pop("position"), "position"),
        (lambda d: d["aircraft"][0]["position"].pop("x_nmi"), "x_nmi"),
        (lambda d: d["aircraft"][0]["position"].update(tilt=3), "tilt"),
        (lambda d: d["aircraft"][0]["position"].update(x_nmi="3"), "must be a number"),
    ])
    def test_error_names_the_field(self, mutate, needle):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(ScenarioError, match=needle):
            scen.load_scenario(doc)

    @pytest.mark.parametrize("mutate,needle", [
        pytest.param(lambda d: d.update(attacker={**PHANTOM, "jam": 5}), "jam",
                     id="jam-not-a-list"),
        pytest.param(lambda d: d.update(success=[[1]]), "success",
                     id="success-not-a-string"),
        pytest.param(lambda d: d.update(success="no_advisories"), "'success' must be a list",
                     id="success-not-a-list"),
        pytest.param(lambda d: d.update(duration_s=float("inf")), "duration_s",
                     id="duration-inf"),
        pytest.param(lambda d: d.update(duration_s=float("nan")), "duration_s",
                     id="duration-nan"),
        pytest.param(lambda d: d.update(duration_s=10 ** 400), "duration_s",
                     id="duration-huge-int"),
        pytest.param(lambda d: d.update(seed=1, channel={"kind": "awgn", "snr_db": float("nan")}),
                     "snr_db", id="snr-nan"),
        pytest.param(lambda d: d["aircraft"][0].update(pilot={"delay_s": -1}), "delay_s",
                     id="pilot-delay-negative"),
        pytest.param(lambda d: d["aircraft"][0].update(pilot={"rate_fpm": 0}), "rate_fpm",
                     id="pilot-rate-zero"),
        pytest.param(lambda d: d["aircraft"][0]["position"].update(altitude_ft=-100),
                     "altitude_ft", id="aircraft-altitude-negative"),
        pytest.param(lambda d: d["aircraft"][0].update(
                         position={"x_nmi": 0.0, "y_nmi": 0.0, "altitude_ft": 500.0},
                         velocity={"vertical_rate_fpm": -6000.0}),
                     "vertical_rate_fpm", id="aircraft-descends-below-zero"),
        pytest.param(lambda d: d["aircraft"][0].update(
                         position={"x_nmi": 0.0, "y_nmi": 0.0,
                                   "altitude_ft": codec.ALTITUDE_MAX_FT - 100.0},
                         velocity={"vertical_rate_fpm": 6000.0}),
                     "vertical_rate_fpm", id="aircraft-climbs-above-max"),
        pytest.param(lambda d: d.update(attacker={**PHANTOM, "plan": {"altitude_ft": -100}}),
                     "altitude_ft", id="attacker-plan-altitude-negative"),
        pytest.param(lambda d: d.update(attacker={**PHANTOM, "bait_timeout_s": -1}),
                     "bait_timeout_s", id="bait-timeout-negative"),
        pytest.param(lambda d: d.update(surveillance_period_s=1e-12), "surveillance_period_s",
                     id="surveillance-period-tiny"),
        pytest.param(lambda d: d.update(attacker={**SQUITTER_FLOOD,
                                                  "flood": {"address_base": "FFFFFF"}}),
                     "address_base", id="flood-addresses-past-24-bits"),
        pytest.param(lambda d: d.update(attacker={**SQUITTER_FLOOD, "flood": {"rate_hz": 0}}),
                     "rate_hz", id="flood-rate-zero"),
        pytest.param(lambda d: d.update(attacker={**SQUITTER_FLOOD, "flood": {"duration_s": -1}}),
                     "duration_s", id="flood-duration-negative"),
        pytest.param(lambda d: d.update(attacker={**SQUITTER_FLOOD, "flood": {"rate_hz": 1e10}}),
                     "rate_hz", id="flood-period-below-1-ns"),
        pytest.param(lambda d: d.update(attacker={**SQUITTER_FLOOD, "flood": {"rate_hz": 1e-310}}),
                     "rate_hz", id="flood-period-infinite"),
        pytest.param(lambda d: d["aircraft"][0].update(pilot={"rate_fpm": 1e-300}), "rate_fpm",
                     id="pilot-rate-tiny"),
        # each of these counts as an infinite number of nanoseconds
        pytest.param(lambda d: d.update(duration_s=1e300), "duration_s",
                     id="duration-past-ns-range"),
        pytest.param(lambda d: d.update(surveillance_period_s=1e300), "surveillance_period_s",
                     id="surveillance-period-past-ns-range"),
        pytest.param(lambda d: d["aircraft"][0].update(pilot={"delay_s": 1e300}), "delay_s",
                     id="pilot-delay-past-ns-range"),
        pytest.param(lambda d: d.update(attacker={**PHANTOM, "bait_timeout_s": 1e300}),
                     "bait_timeout_s", id="bait-timeout-past-ns-range"),
        pytest.param(lambda d: d.update(attacker={**PHANTOM, "jam": [
                         {"target": "ABC123", "start_s": 1e300}]}),
                     "start_s", id="jam-start-past-ns-range"),
        pytest.param(lambda d: d.update(attacker={**PHANTOM, "jam": [
                         {"target": "ABC123", "start_s": 0, "end_s": 1e300}]}),
                     "end_s", id="jam-end-past-ns-range"),
        pytest.param(lambda d: d.update(attacker={**SQUITTER_FLOOD,
                                                  "flood": {"duration_s": 1e300}}),
                     "duration_s", id="flood-duration-past-ns-range"),
        pytest.param(lambda d: d["aircraft"][0].update(velocity={"vx_kt": 1e308}),
                     "velocity", id="velocity-overflows-position"),
        pytest.param(lambda d: d.update(attacker={**PHANTOM, "plan": {"floor_nmi": -1.0}}),
                     "floor_nmi", id="plan-floor-negative"),
        # each of these asks for a reply hold of infinitely many nanoseconds
        pytest.param(lambda d: d.update(attacker={**PHANTOM,
                                                  "plan": {"initial_range_nmi": 1e306}}),
                     "initial_range_nmi", id="plan-initial-range-past-ns-range"),
        pytest.param(lambda d: d.update(attacker={**PHANTOM, "plan": {"floor_nmi": 1e306}}),
                     "floor_nmi", id="plan-floor-past-ns-range"),
        pytest.param(lambda d: d.update(attacker={**PHANTOM, "plan": {"closure_kt": -1e308}}),
                     "closure_kt", id="plan-range-grows-past-ns-range"),
        # 10^400 is no float, so -4000 dB has no finite noise power
        pytest.param(lambda d: d.update(seed=1, channel={"kind": "awgn", "snr_db": -4000}),
                     "snr_db", id="snr-noise-power-overflows"),
        # a plan takes only its own fields
        pytest.param(lambda d: d["aircraft"][0].update(pilot={"reflex_s": 1}), "reflex_s",
                     id="pilot-unknown-field"),
        pytest.param(lambda d: d.update(attacker={**PHANTOM, "plan": {"heading": 1}}), "heading",
                     id="plan-unknown-field"),
        pytest.param(lambda d: d.update(attacker={**SQUITTER_FLOOD, "flood": {"burst": 1}}),
                     "burst", id="flood-unknown-field"),
        # an address is a string of hex digits
        pytest.param(lambda d: d.update(attacker={**SQUITTER_FLOOD,
                                                  "flood": {"address_base": 0x500000}}),
                     "address_base", id="flood-address-base-a-number"),
        pytest.param(lambda d: d.update(attacker={**SQUITTER_FLOOD,
                                                  "flood": {"address_base": "5ZZZZZ"}}),
                     "address_base", id="flood-address-base-not-hex"),
        pytest.param(lambda d: d.update(attacker={**PHANTOM, "jam": [
                         {"target": "ABC12G", "start_s": 0}]}),
                     r"jam\[0\]: field 'target'", id="jam-target-not-hex"),
        # ... of exactly six, with no sign, prefix, separator or space
        *[pytest.param(lambda d, v=text: d["aircraft"][0].update(icao=v),
                       r"aircraft\[0\]: field 'icao': transponder address must be 6 hex digits",
                       id=f"icao-{label}")
          for label, text in (("0x", "0x4840D6"), ("underscores", "48_40_D6"), ("plus", "+4840D6"),
                              ("spaces", " 4840d6 "), ("newline", "4840D6\n"),
                              ("arabic-indic-digits", "\u0664\u0668\u0664\u0660D6"),
                              ("five-digits", "4840D"), ("seven-digits", "04840D6"))],
        pytest.param(lambda d: d.update(attacker={**PHANTOM, "target": "0xABC123"}),
                     r"attacker: field 'target'", id="phantom-target-0x"),
        pytest.param(lambda d: d.update(attacker={**SQUITTER_FLOOD,
                                                  "flood": {"address_base": "5_0000"}}),
                     "address_base", id="flood-address-base-underscore"),
        # the event log is ASCII, one record a line, fields split at commas
        pytest.param(lambda d: d["aircraft"][0].update(name="a,b"), "name",
                     id="aircraft-name-with-comma"),
        pytest.param(lambda d: d["aircraft"][0].update(name="two\nlines"), "name",
                     id="aircraft-name-with-newline"),
        pytest.param(lambda d: d["aircraft"][0].update(name="café"), "name",
                     id="aircraft-name-not-ascii"),
        pytest.param(lambda d: d.update(attacker={**PHANTOM, "name": "g,h"}), "name",
                     id="attacker-name-with-comma"),
        # a phantom takes the address just below its target's, and 000000 has none
        pytest.param(lambda d: (d["aircraft"][0].update(icao="000000"),
                                d.update(attacker={**PHANTOM, "target": "000000"})),
                     "target", id="phantom-target-address-0"),
        # only an absent velocity means at rest
        *[pytest.param(lambda d, v=value: d["aircraft"][0].update(velocity=v), "velocity",
                       id=f"velocity-{label}")
          for label, value in (("empty-list", []), ("zero", 0), ("empty-string", ""),
                               ("false", False), ("null", None))],
    ])
    def test_rejects_out_of_range_values(self, mutate, needle):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(ScenarioError, match=needle):
            scen.load_scenario(doc)

    def test_flood_may_end_on_the_last_24_bit_address(self):
        # 3 Hz for 1 s: squitters at 0, 1/3, 2/3 and 0.999999999 s
        flood = {"rate_hz": 3, "duration_s": 1, "address_base": "FFFFFC"}
        doc = minimal_doc(duration_s=2.0, attacker={**SQUITTER_FLOOD, "flood": flood})
        world, _ = scen.build_world(scen.load_scenario(doc))
        world.run_until(2 * 10**9)
        sent = [codec.ModeSFrame.from_hex(r.frame_hex, codec.DOWNLINK)
                for r in world.log if r.kind == "transmit" and r.source == "g"]
        assert [codec.parse_frame(f).fields["icao"] for f in sent] == [
            0xFFFFFC, 0xFFFFFD, 0xFFFFFE, 0xFFFFFF]
        with pytest.raises(ScenarioError, match="address_base"):
            scen.load_scenario(minimal_doc(attacker={
                **SQUITTER_FLOOD, "flood": {**flood, "address_base": "FFFFFD"}}))

    def test_awgn_with_seed_is_fine(self):
        doc = minimal_doc(seed=9, channel={"kind": "awgn", "snr_db": 12.0})
        s = scen.load_scenario(doc)
        assert s.snr_db == 12.0 and s.seed == 9

    def test_duplicate_names_and_addresses(self):
        doc = minimal_doc()
        doc["aircraft"].append(dict(doc["aircraft"][0]))
        with pytest.raises(ScenarioError, match="unique"):
            scen.load_scenario(doc)
        doc["aircraft"][1] = dict(doc["aircraft"][1], name="other")
        with pytest.raises(ScenarioError, match="unique"):
            scen.load_scenario(doc)

    def test_attacker_validation(self):
        scen.load_scenario(minimal_doc(attacker=PHANTOM))  # sane baseline

        for mutate, needle in [
            (lambda a: a.update(mission="lasers"), "lasers"),
            (lambda a: a.pop("target"), "target"),
            (lambda a: a.update(target="0A0A0A"), "target"),
            (lambda a: a.update(name="solo"), "name"),
            (lambda a: a.update(flood={"rate_hz": 1}), "flood"),
            (lambda a: a.update(jam=[{"target": "ABC123", "start_s": 5, "end_s": 1}]), "start_s"),
            (lambda a: a.update(jam=[{"target": "ABC123", "start_s": 0, "window": 1}]), "window"),
        ]:
            atk = {**PHANTOM, "jam": []}
            mutate(atk)
            with pytest.raises(ScenarioError, match=needle):
                scen.load_scenario(minimal_doc(attacker=atk))

    def test_flood_mission_rejects_phantom_fields(self):
        atk = {"name": "g", "mission": "all_call_flood",
               "position": {"x_nmi": 1.0, "y_nmi": 0.0, "altitude_ft": 0.0}}
        with pytest.raises(ScenarioError, match="target"):
            scen.load_scenario(minimal_doc(attacker={**atk, "target": "ABC123"}))
        with pytest.raises(ScenarioError, match="plan"):
            scen.load_scenario(minimal_doc(attacker={**atk, "plan": {"floor_nmi": 1.0}}))


class TestPlans:
    # where each plan sits in a document, and how its spec is found on the scenario
    PLANS = [
        pytest.param(PilotModel, None, lambda d, p: d["aircraft"][0].update(pilot=p),
                     lambda s: s.aircraft[0].pilot, id="pilot"),
        pytest.param(PhantomPlan, PHANTOM, lambda d, p: d["attacker"].update(plan=p),
                     lambda s: s.attacker.plan, id="plan"),
        pytest.param(FloodPlan, SQUITTER_FLOOD, lambda d, p: d["attacker"].update(flood=p),
                     lambda s: s.attacker.flood, id="flood"),
    ]

    @pytest.mark.parametrize("cls,attacker,put,get", PLANS)
    def test_every_field_is_read(self, cls, attacker, put, get):
        expected = cls(**{f.name: f.default + 1 for f in fields(cls)})
        doc = minimal_doc(**({"attacker": dict(attacker)} if attacker else {}))
        # an address is written in hex, every other field as a number
        put(doc, {f.name: f"{getattr(expected, f.name):06X}" if f.name == "address_base"
                  else getattr(expected, f.name) for f in fields(cls)})
        assert get(scen.load_scenario(doc)) == expected

    @pytest.mark.parametrize("cls,attacker,put,get", PLANS)
    def test_an_absent_plan_takes_its_type_defaults(self, cls, attacker, put, get):
        doc = minimal_doc(**({"attacker": dict(attacker)} if attacker else {}))
        assert get(scen.load_scenario(doc)) == cls()


class TestBundled:
    def test_all_four_fixtures_load(self):
        names = scen.bundled_scenario_names()
        assert names == ["all_call_flood", "benign_pair", "head_on_phantom", "squitter_flood"]
        for name in names:
            assert scen.bundled_scenario(name).name == name

    def test_unknown_bundled_name(self):
        with pytest.raises(ScenarioError, match="no bundled scenario"):
            scen.bundled_scenario("nope")

    def test_head_on_geometry(self):
        # two aircraft on reciprocal bearings, level, vertically separated
        s = scen.bundled_scenario("head_on_phantom")
        a, b = (craft.state for craft in s.aircraft)
        dot = a.vx_kt * b.vx_kt + a.vy_kt * b.vy_kt
        speed_a = (a.vx_kt ** 2 + a.vy_kt ** 2) ** 0.5
        speed_b = (b.vx_kt ** 2 + b.vy_kt ** 2) ** 0.5
        assert dot == pytest.approx(-speed_a * speed_b)  # exactly opposed
        assert a.vertical_rate_fpm == b.vertical_rate_fpm == 0
        assert abs(a.altitude_ft - b.altitude_ft) > 1200
        assert s.attacker is not None and s.attacker.mission == "phantom"

    def test_benign_pair_expected_rounds(self):
        s = scen.bundled_scenario("benign_pair")
        assert s.duration_s / s.surveillance_period_s == pytest.approx(600)


class TestBuildWorld:
    def test_entities_and_channel(self):
        world, entities = scen.build_world(scen.load_scenario(minimal_doc()))
        assert isinstance(world.channel, NoiselessChannel)
        assert isinstance(entities["solo"], Aircraft)

        noisy = scen.load_scenario(minimal_doc(seed=5, channel={"kind": "awgn", "snr_db": 8}))
        world, _ = scen.build_world(noisy)
        assert isinstance(world.channel, AwgnChannel)
        assert world.channel.snr_db == 8 and world.channel.seed == 5

    def test_attacker_wiring(self):
        s = scen.bundled_scenario("head_on_phantom")
        world, entities = scen.build_world(s)
        attacker = entities["ground"]
        assert isinstance(attacker, Attacker)
        assert attacker.target is entities["victim"]
        assert len(world.jam_directives) == 1
        jam = world.jam_directives[0]
        assert jam.target_icao == entities["intruder"].icao
        assert jam.start_ns == 5_000_000_000 and jam.end_ns is None

    def test_stagger_separates_timers(self):
        s = scen.bundled_scenario("benign_pair")
        world, entities = scen.build_world(s)
        world.run_until(100_000_000)  # both squitter timers inside
        squits = [r for r in world.log if r.kind == "timer" and r.outcome == "squitter"]
        assert len({r.time_ns for r in squits}) == len(squits)

    def test_positions_respected(self):
        s = scen.bundled_scenario("head_on_phantom")
        world, entities = scen.build_world(s)
        d = separation_nmi(entities["victim"].position_at(0), entities["intruder"].position_at(0))
        assert d == pytest.approx((40.0 ** 2 + (1250.0 / 6076.115485564304) ** 2) ** 0.5)
