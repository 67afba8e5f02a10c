"""Simulation harness: frame labeling, metrics extraction, report/log
consistency, loss sweeps, and risk-table plumbing."""

from __future__ import annotations

import copy
import dataclasses
import gc
import importlib.util
import json
import math
import sys
import tracemalloc
from collections import Counter
from importlib import resources
from itertools import combinations
from operator import itemgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcassim import airspace, fta, harness, phy
from tcassim import modes_codec as codec
from tcassim import scenario as scen
from tcassim.airspace import EventLog, LogRecord, SimError, read_event_log, write_event_log

import oracles
from test_cli import fail_deliveries_to
from test_golden import AWGN_RING, NOISELESS_RING


def crossing_doc(**extra) -> dict:
    """Two aircraft meeting head-on at the same altitude: guaranteed contact."""
    doc = {
        "schema_version": 1,
        "name": "crossing",
        "duration_s": 60.0,
        "aircraft": [
            {"name": "one", "icao": "100001", "mode": "xpdr", "squitter": False,
             "position": {"x_nmi": -4.0, "y_nmi": 0.0, "altitude_ft": 20000.0},
             "velocity": {"vx_kt": 480.0, "vy_kt": 0.0, "vertical_rate_fpm": 0.0}},
            {"name": "two", "icao": "100002", "mode": "xpdr", "squitter": False,
             "position": {"x_nmi": 4.0, "y_nmi": 0.0, "altitude_ft": 20000.0},
             "velocity": {"vx_kt": -480.0, "vy_kt": 0.0, "vertical_rate_fpm": 0.0}},
        ],
        "success": ["nmac_occurred"],
    }
    doc.update(extra)
    return doc


class TestFrameLabel:
    def test_self_checking_downlink_formats(self):
        df11 = codec.build_reply("all_call", 0xABC123)
        df17 = codec.build_reply("extended_squitter", 0xABC123, altitude_ft=10000)
        assert harness.frame_label(df11.to_hex()) == "DF11"
        assert harness.frame_label(df17.to_hex()) == "DF17"

    def test_all_call_interrogation_splits_on_parity(self):
        uf11 = codec.build_interrogation("all_call")
        assert harness.frame_label(uf11.to_hex()) == "UF11"

    def test_addressed_formats_split_on_destination(self):
        uf4 = codec.build_interrogation("surveillance_short", 0xABC123)
        df4 = codec.build_reply("surveillance_short", 0xABC123, altitude_ft=9000)
        assert harness.frame_label(uf4.to_hex(), "abc123") == "UF4"
        assert harness.frame_label(df4.to_hex(), "*") == "DF4"
        uf20 = codec.build_interrogation("surveillance_long", 0xABC123, sender=0x0000FF)
        assert harness.frame_label(uf20.to_hex(), "abc123") == "UF20"

    def test_garbage(self):
        assert harness.frame_label("zz") == "invalid"

    def test_every_code_length_seal_and_destination_labels_as_the_parse_based_rule(self):
        cases = 0
        for code in range(32):
            for nbits in (codec.SHORT_FRAME_BITS, codec.LONG_FRAME_BITS):
                body_nbits = nbits - codec.AP_BITS
                body = (code << (body_nbits - 5)) | (0x5A3C96E1 & ((1 << (body_nbits - 5)) - 1))
                crc = codec.crc24([int(b) for b in format(body, f"0{body_nbits}b")])
                for overlay in (0, 0xA30002):
                    frame_hex = codec.ModeSFrame(
                        codec.DOWNLINK, nbits, (body << codec.AP_BITS) | (crc ^ overlay)).to_hex()
                    for destination in ("*", "a30002"):
                        cases += 1
                        assert (harness.frame_label(frame_hex, destination)
                                == parse_based_label(frame_hex, destination)), \
                            (code, nbits, overlay, destination)
        assert cases == 256


def parse_based_label(frame_hex: str, destination: str = "*") -> str:
    """Reference: ``frame_label``'s former rule, which took the kinds from
    the format code and bit length and the DF11 verdict from ``parse_frame``."""
    try:
        frame = codec.ModeSFrame.from_hex(frame_hex, codec.DOWNLINK)
    except codec.CodecError:
        return "invalid"
    code = frame.format_code
    if code == 11 and frame.nbits == 56:
        return "DF11" if codec.parse_frame(frame).parity.passed else "UF11"
    if code == 17 and frame.nbits == 112:
        return "DF17"
    if code in (4, 20):
        return f"{'UF' if destination != '*' else 'DF'}{code}"
    return f"fmt{code}"


class TestSimulate:
    def test_nmac_detected_and_logged(self):
        result = harness.simulate(scen.load_scenario(crossing_doc()))
        report = result.report
        assert report.nmac_occurred
        ((a, b, on_ns, off_ns),) = report.nmac_windows
        assert {a, b} == {"one", "two"}
        # 8 nmi head-on at 960 kt: contact half-window is 500 ft of closure
        center = 8.0 / 960.0 * 3600.0
        half = 500.0 / 6076.115485564304 / (960.0 / 3600.0)
        assert on_ns / 1e9 == pytest.approx(center - half, abs=1e-3)
        assert off_ns / 1e9 == pytest.approx(center + half, abs=1e-3)
        assert report.success == {"nmac_occurred": True}
        assert any(r.kind == "nmac" for r in result.records)

    def test_report_recomputable_from_log(self, tmp_path):
        scenario = scen.bundled_scenario("all_call_flood")
        result = harness.simulate(scenario)
        path = tmp_path / "events.log"
        write_event_log(path, result.records)
        again = harness.metrics_from_log(read_event_log(path), scenario)
        assert again == result.report

    def test_flood_delivery_count(self):
        report = harness.simulate(scen.bundled_scenario("all_call_flood")).report
        assert report.deliveries["DF11>ground"] == 1000
        assert report.frames_sent["UF11"] == 100
        assert report.success == {"flood_complete": True}

    def test_jammed_transmissions_counted(self):
        report = harness.simulate(scen.bundled_scenario("head_on_phantom")).report
        assert report.transmit_outcomes["jammed"] > 0
        assert report.transmit_outcomes["sent"] > 0

    def test_plan_error_series_present_for_phantom(self):
        report = harness.simulate(scen.bundled_scenario("head_on_phantom")).report
        assert len(report.plan_error_series) > 100
        worst = max(abs(err) for _, _, _, err in report.plan_error_series)
        assert worst < 0.01

    def test_plan_errors_start_at_the_tracking_epoch(self):
        # a log read from a file may range the phantom before it tracks
        records = [LogRecord(5, "tcas", "victim", "3c4ef9", "-", "range=9.000000;rate=none"),
                   LogRecord(10, "attack", "ground", "3c4efa", "-", "phase;tracking"),
                   LogRecord(15, "tcas", "victim", "3c4ef9", "-", "range=8.000000;rate=none")]
        report = harness.metrics_from_log(records, scen.bundled_scenario("head_on_phantom"))
        assert [row[:2] for row in report.plan_error_series] == [[15, 8.0]]

    def test_lossy_links_balance(self):
        doc = crossing_doc(seed=13, channel={"kind": "awgn", "snr_db": 4.0},
                           duration_s=10.0, success=[])
        doc["aircraft"][0].update(mode="ta_ra", squitter=True)
        doc["aircraft"][1].update(squitter=True)
        report = harness.simulate(scen.load_scenario(doc)).report
        assert report.links  # traffic flowed
        lost = 0
        for stats in report.links.values():
            assert stats["attempts"] == stats["decoded"] + stats["lost"]
            lost += stats["lost"]
        assert lost > 0  # 4 dB is a hostile channel

    def test_awgn_waveform_is_modulated_once_per_frame_per_channel(self, monkeypatch):
        # each run builds a fresh channel, so a run must not find waveforms
        # another run left behind, and copies of one frame share one waveform
        calls = []
        for name in ("ppm_modulate", "dbpsk_modulate"):
            real = getattr(phy, name)
            monkeypatch.setattr(phy, name,
                                lambda *a, real=real, **kw: calls.append(1) or real(*a, **kw))
        doc = crossing_doc(seed=5, channel={"kind": "awgn", "snr_db": 12.0},
                           duration_s=5.0, success=[])
        doc["aircraft"].append({"name": "three", "icao": "100003", "mode": "ta_ra",
                                "position": {"x_nmi": 0.0, "y_nmi": 3.0, "altitude_ft": 20500.0}})
        doc["aircraft"][0].update(mode="ta_ra", squitter=True)
        runs = []
        for _ in range(2):
            calls.clear()
            records = harness.simulate(scen.load_scenario(doc)).records
            runs.append((len(calls), sum(1 for r in records if r.kind == "deliver")))
        assert runs[0] == runs[1]
        modulations, deliveries = runs[0]
        assert 0 < modulations < deliveries

    def test_benign_pair_round_counts(self):
        report = harness.simulate(scen.bundled_scenario("benign_pair")).report
        assert set(report.rounds_per_track.values()) == {600}
        assert report.advisories == []
        assert not report.nmac_occurred


    def test_handler_error_is_a_sim_error_naming_the_event(self, monkeypatch):
        fail_deliveries_to(monkeypatch, "two")
        doc = crossing_doc(success=[])
        for aircraft in doc["aircraft"]:
            aircraft.update(mode="ta_ra", squitter=True)
        with pytest.raises(SimError, match=r"^deliver from one to two "
                                           r"at time_ns=\d+: injected fault$") as info:
            harness.simulate(scen.load_scenario(doc))
        assert isinstance(info.value.__cause__, codec.CodecError)


    @pytest.mark.parametrize("rate_fpm", [1e15, 1e308, sys.float_info.max])
    @pytest.mark.parametrize("phantom,delay_s", [(True, 60.0), (False, 0.0)])
    def test_extreme_pilot_rate_never_hides_a_receiver(self, monkeypatch, rate_fpm,
                                                       phantom, delay_s):
        # Pilots that fly a rate near the float maximum, after a long reaction
        # delay, in a coordinated encounter with or without a phantom.  Each
        # engage levels off at the limit within the same nanosecond, before
        # any reversal can skip it, so the run completes and every separation
        # the fan-out measures is finite: no receiver passes as out of range.
        doc = json.loads((resources.files("tcassim") / "scenarios" / "head_on_phantom.json")
                         .read_text())
        doc.update(duration_s=120.0, success=[])
        if not phantom:
            del doc["attacker"]
        for craft in doc["aircraft"]:
            craft["pilot"] = {"rate_fpm": rate_fpm, "delay_s": delay_s}
        doc["aircraft"][1]["position"]["altitude_ft"] = 42_100.0
        separations = []
        separation = airspace.separation_nmi
        monkeypatch.setattr(airspace, "separation_nmi",
                            lambda p, q: separations.append(separation(p, q)) or separations[-1])
        result = harness.simulate(scen.load_scenario(doc))
        engages = [r for r in result.records if r.outcome.startswith("engage;")]
        assert engages and all(abs(float(r.outcome.split("=")[1])) == rate_fpm for r in engages)
        assert separations and all(d <= airspace.RECEPTION_RANGE_NMI for d in separations)


def per_record_links_and_deliveries(records: list[LogRecord]) -> tuple[dict, dict]:
    """Reference: each delivery labelled, one record at a time, with the
    label of its own source's last transmit of its hex, or its own."""
    sent_as = {(rec.source, rec.frame_hex): harness.frame_label(rec.frame_hex, rec.destination)
               for rec in records if rec.kind == "transmit"}
    links: dict[str, dict[str, int]] = {}
    deliveries: dict[str, int] = {}
    for rec in records:
        if rec.kind == "deliver":
            stats = links.setdefault(f"{rec.source}>{rec.destination}",
                                     {"attempts": 0, "decoded": 0, "lost": 0})
            stats["attempts"] += 1
            if rec.outcome in harness.LOSS_OUTCOMES:
                stats["lost"] += 1
                continue
            stats["decoded"] += 1
            label = sent_as.get((rec.source, rec.frame_hex)) or harness.frame_label(rec.frame_hex)
            key = f"{label}>{rec.destination}"
            deliveries[key] = deliveries.get(key, 0) + 1
    return links, deliveries


# UF4 to a30002 and the DF4 a 0 ft transponder a30002 sends share one hex;
# a UF20's hex reads as DF20 from any source that never sent it.
SHARED_HEX = codec.build_interrogation("surveillance_short", 0xA30002).to_hex()
UF20_HEX = codec.build_interrogation("surveillance_long", 0xA30002, rac=1).to_hex()
SQUITTER_HEX = codec.build_reply("extended_squitter", 0xA30001, altitude_ft=2000).to_hex()


class TestDeliveryLabels:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["transmit", "deliver", "deliver", "timer"]),
        st.sampled_from(["own", "ground", "attacker"]),
        st.sampled_from(["*", "a30002", "own", "ground"]),
        st.sampled_from([SHARED_HEX, UF20_HEX, SQUITTER_HEX, "ffff"]),
        st.sampled_from(["sent", "replied", "phy_drop", "parity_drop", "known"])), max_size=40))
    def test_counts_equal_the_per_record_loop(self, rows):
        records = [LogRecord(t, kind, source, destination, frame_hex, outcome)
                   for t, (kind, source, destination, frame_hex, outcome) in enumerate(rows)]
        report = harness.metrics_from_log(records, scen.bundled_scenario("benign_pair"))
        links, deliveries = per_record_links_and_deliveries(records)
        # equal in order of first appearance, not only as mappings
        assert list(report.links.items()) == list(links.items())
        assert list(report.deliveries.items()) == list(deliveries.items())

    def test_label_comes_from_the_deliveries_own_source(self):
        assert SHARED_HEX == codec.build_reply("surveillance_short", 0xA30002).to_hex()
        records = [
            LogRecord(0, "deliver", "own", "ground", UF20_HEX, "replied"),
            LogRecord(1, "transmit", "own", "a30002", SHARED_HEX, "sent"),
            LogRecord(2, "deliver", "own", "ground", SHARED_HEX, "replied"),
            LogRecord(3, "transmit", "ground", "*", SHARED_HEX, "sent"),
            LogRecord(4, "deliver", "ground", "own", SHARED_HEX, "range_update"),
            LogRecord(5, "deliver", "own", "ground", SHARED_HEX, "replied"),
            LogRecord(6, "transmit", "own", "a30002", UF20_HEX, "sent"),
            LogRecord(7, "deliver", "own", "ground", UF20_HEX, "replied"),
            LogRecord(8, "deliver", "own", "ground", UF20_HEX, "phy_drop"),
            LogRecord(9, "deliver", "attacker", "ground", UF20_HEX, "replied"),
        ]
        report = harness.metrics_from_log(records, scen.bundled_scenario("benign_pair"))
        # one hex, two sources, two labels; a UF20 delivered before its own
        # transmit is still a UF20, and one from a source that never sent it
        # takes the frame's own label
        assert report.deliveries == {"UF20>ground": 2, "UF4>ground": 2, "DF4>own": 1,
                                     "DF20>ground": 1}
        assert report.links == {"own>ground": {"attempts": 5, "decoded": 4, "lost": 1},
                                "ground>own": {"attempts": 1, "decoded": 1, "lost": 0},
                                "attacker>ground": {"attempts": 1, "decoded": 1, "lost": 0}}


def test_the_label_memo_lives_for_one_call(monkeypatch):
    records = harness.simulate(scen.bundled_scenario("head_on_phantom")).records
    sent = {(rec.source, rec.frame_hex) for rec in records if rec.kind == "transmit"}
    want = {(rec.frame_hex, rec.destination) for rec in records if rec.kind == "transmit"}
    want |= {(rec.frame_hex, "*") for rec in records if rec.kind == "deliver"
             and rec.outcome not in harness.LOSS_OUTCOMES and (rec.source, rec.frame_hex) not in sent}
    calls = []
    label = harness.frame_label
    monkeypatch.setattr(harness, "frame_label", lambda *key: calls.append(key) or label(*key))
    scenario = scen.bundled_scenario("head_on_phantom")
    first = harness.metrics_from_log(records, scenario)
    # one call per distinct (frame_hex, destination), far fewer than records
    assert len(calls) == len(set(calls)) and set(calls) == want
    assert sum(rec.kind == "transmit" for rec in records) > 10 * len(calls)
    # a second call labels again: no memo outlives a call
    once = list(calls)
    assert harness.metrics_from_log(records, scenario) == first
    assert calls == once * 2


# -- the event log as columns ---------------------------------------------------------

# each bundled scenario, its control, and the two golden rings
EVERY_RUN = {"noiseless_ring": scen.load_scenario(NOISELESS_RING),
             "awgn_ring": scen.load_scenario(AWGN_RING),
             **{name: scen.bundled_scenario(name) for name in scen.bundled_scenario_names()},
             **{f"{name}/control": scen.bundled_scenario(name).without_attacker()
                for name in scen.bundled_scenario_names()}}


@pytest.mark.parametrize("name", list(EVERY_RUN))
def test_report_json_and_columns_agree_with_the_record_loop(name):
    scenario = EVERY_RUN[name]
    result = harness.simulate(scenario)
    report = result.report
    assert report.to_json() == json.dumps(dataclasses.asdict(report), sort_keys=True, indent=1)
    assert report.to_json() == oracles.reference_metrics_from_log(
        list(result.records), scenario).to_json()


# a few tails of every kind the report reads, and frames of both lengths
LOG_TAILS = st.one_of(
    st.tuples(st.just("deliver"), st.sampled_from(["own", "ground"]),
              st.sampled_from(["own", "ground"]), st.sampled_from([SHARED_HEX, UF20_HEX, SQUITTER_HEX]),
              st.sampled_from(["phy_drop", "parity_drop", "replied", "known"])),
    st.tuples(st.just("transmit"), st.sampled_from(["own", "ground"]),
              st.sampled_from(["*", "a30002"]), st.sampled_from([SHARED_HEX, UF20_HEX, SQUITTER_HEX]),
              st.sampled_from(["sent", "jammed"])),
    st.tuples(st.just("timer"), st.sampled_from(["own", "ground"]), st.just("-"), st.just("-"),
              st.sampled_from(["squitter", "surveillance"])),
    st.tuples(st.just("tcas"), st.just("own"), st.sampled_from(["a30002", "a30001"]), st.just("-"),
              st.sampled_from(["range=1.500000;rate=none", "track_new", "ta_issued",
                               "ra_issued;climb;limit=12600", "rac_received;1"])),
    st.tuples(st.just("attack"), st.just("ground"), st.just("-"), st.just("-"),
              st.sampled_from(["phase;tracking", "recon;a30002"])),
    st.tuples(st.just("nmac"), st.just("own"), st.just("ground"), st.just("-"),
              st.just("window;until=9")))
LOG_TIMES = st.one_of(st.integers(0, 3), st.just(2 ** 63 - 1), st.integers(0, 2 ** 63 - 1))


@st.composite
def record_lists(draw) -> list[LogRecord]:
    """Records drawn from a small pool of tails, so that tails repeat, at
    times that repeat and need not rise."""
    pool = draw(st.lists(LOG_TAILS, min_size=1, max_size=6))
    picks = draw(st.lists(st.tuples(LOG_TIMES, st.sampled_from(pool)), max_size=30))
    return [LogRecord(t, *tail) for t, tail in picks]


class TestEventLogColumns:
    @settings(max_examples=150, deadline=None)
    @given(record_lists(), st.data())
    def test_reads_writes_and_reports_as_the_list_does(self, tmp_path_factory, records, data):
        log = EventLog()
        for rec in records:
            log.append(rec)
        assert len(log) == len(records) and list(log) == records
        assert all(type(rec) is LogRecord for rec in log)
        assert [log[i] for i in range(-len(records), len(records))] == records * 2
        start, stop = data.draw(st.integers(-35, 35)), data.draw(st.integers(-35, 35))
        step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
        assert log[start:stop:step] == records[start:stop:step]
        assert log == records and records == log and log == EventLog(records)
        assert log != records + [LogRecord(0, "timer", "own", "-", "-", "extra")]
        assert log != tuple(records)  # a list equals no tuple either
        assert len(log.table) == len(set(rec[1:] for rec in records))

        path = tmp_path_factory.mktemp("columns") / "events.log"
        write_event_log(path, log)
        text = "".join(rec.to_line() + "\n" for rec in records)
        assert path.read_text() == text
        write_event_log(path, records)
        assert path.read_text() == text
        assert read_event_log(path) == records

        scenario = scen.bundled_scenario("head_on_phantom")
        want = oracles.reference_metrics_from_log(records, scenario).to_json()
        assert harness.metrics_from_log(records, scenario).to_json() == want
        assert harness.metrics_from_log(log, scenario).to_json() == want

    def test_nmac_windows_go_where_a_stable_sort_by_time_puts_them(self, monkeypatch):
        scenario = scen.load_scenario(NOISELESS_RING)
        monkeypatch.setattr(harness, "nmac_intervals", lambda *args: [])
        run = list(harness.simulate(scenario).records)
        # a time at which several records were logged, the first and the last
        shared = next(t for t, n in Counter(rec.time_ns for rec in run).items() if n > 1)
        windows = [(shared, shared + 1), (0, 3), (run[-1].time_ns, run[-1].time_ns + 2)]
        monkeypatch.setattr(harness, "nmac_intervals", lambda *args: windows)
        nmacs = [LogRecord(on_ns, "nmac", a.name, b.name, "-", airspace.note("window", until=off_ns))
                 for a, b in combinations(scenario.aircraft, 2) for on_ns, off_ns in windows]
        result = harness.simulate(scenario)
        assert result.records == sorted(run + nmacs, key=itemgetter(0))
        assert result.report.to_json() == oracles.reference_metrics_from_log(
            list(result.records), scenario).to_json()

    def test_a_run_keeps_its_log_in_a_few_bytes_a_record(self):
        # as a list of records the log cost about 150 B a record; as columns
        # it costs an int64 and an index, 12 B, plus the table of distinct tails
        scenario = scen.bundled_scenario("benign_pair")
        harness.simulate(scenario)  # fills the codec's frame caches, which outlive a run
        tracemalloc.start()
        try:
            log = harness.simulate(scenario).records
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        strings = {id(field): sys.getsizeof(field) for tail in log.table for field in tail}
        table = (sys.getsizeof(log.table) + sys.getsizeof(log._index)
                 + sum(map(sys.getsizeof, log.table)) + sum(strings.values()))
        assert len(log) > 100 * len(log.table)
        assert (held - table) / len(log) <= 48


class TestLossSweep:
    SCENARIO = scen.load_scenario({
        "schema_version": 1, "name": "probe", "duration_s": 1.0, "seed": 21,
        "channel": {"kind": "awgn", "snr_db": 10.0},
        "aircraft": [{"name": "solo", "icao": "ABC123", "mode": "xpdr",
                      "position": {"x_nmi": 0.0, "y_nmi": 0.0, "altitude_ft": 30000.0}}],
    })

    def test_rows_sorted_and_sized(self):
        points = harness.loss_sweep(self.SCENARIO, [20.0, 5.0, math.inf], corpus_size=60)
        assert [p.snr_db for p in points] == [5.0, 20.0, math.inf]
        assert all(p.samples == 60 for p in points)

    def test_noiseless_sentinel_is_lossless(self):
        (point,) = harness.loss_sweep(self.SCENARIO, [math.inf], corpus_size=80)
        assert point.lost == 0
        assert point.loss_fraction == 0.0
        (point,) = harness.loss_sweep(self.SCENARIO, [math.inf], corpus_size=80)
        assert point.lost == 0

    def test_deterministic(self):
        a = harness.loss_sweep(self.SCENARIO, [8.0, 12.0], corpus_size=50)
        b = harness.loss_sweep(self.SCENARIO, [8.0, 12.0], corpus_size=50)
        assert a == b

    @pytest.mark.parametrize("snr_list,corpus_size", [
        ([10.0], 0), ([10.0], -1), ([math.nan], 10), ([-math.inf], 10), ([math.inf, math.nan], 10),
        ([-4000.0], 10)],
        ids=["empty-corpus", "negative-corpus", "snr-nan", "snr-minus-inf", "nan-beside-none",
             "snr-noise-power-overflows"])
    def test_rejects_empty_corpus_and_non_numeric_snr(self, snr_list, corpus_size):
        with pytest.raises(ValueError):
            harness.loss_sweep(self.SCENARIO, snr_list, corpus_size=corpus_size)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 40))
    def test_zero_noise_is_noiseless(self, seed, corpus_size):
        # the identity that lets the sweep run its inf row through the modem:
        # every frame arrives as the sent object at its delivery instant
        channel = airspace.AwgnChannel(math.inf, seed)
        for i, frame in enumerate(harness._corpus(seed, corpus_size)):
            got_frame, got_ns = channel.receive(frame, i * 1_000_000)
            assert got_frame is frame and got_ns == i * 1_000_000

    def receptions(self, sweep, seed, snr_list, corpus_size):
        """``sweep``'s points and what each reception decoded to, keyed by
        ``(snr_db, frame index)``: the noisy samples and the result, in call
        order, from a spy on the shared ``decode_reception``.  A reception's
        SNR is the one ``phy.awgn`` last drew at."""
        real_awgn, real_decode = phy.awgn, airspace.decode_reception
        drawn_at, outcomes = [], {}

        def awgn(samples, snr_db, rng):
            drawn_at.append(snr_db)
            return real_awgn(samples, snr_db, rng)

        def decode(frame, sent, noisy, deliver_time_ns):
            got = real_decode(frame, sent, noisy, deliver_time_ns)
            key = (drawn_at[-1], deliver_time_ns // (airspace.NS_PER_S // 1000))
            outcomes.setdefault(key, []).append((noisy.tobytes(), got))
            return got

        scenario = dataclasses.replace(self.SCENARIO, seed=seed)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(phy, "awgn", awgn)
            m.setattr(airspace, "decode_reception", decode)
            m.setattr(harness, "decode_reception", decode)
            points = sweep(scenario, snr_list, corpus_size)
        return points, outcomes

    def check_against_reference(self, seed, snr_list, corpus_size):
        got = self.receptions(harness.loss_sweep, seed, snr_list, corpus_size)
        want = self.receptions(oracles.reference_loss_sweep, seed, snr_list, corpus_size)
        assert got == want
        return got

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60),
           st.lists(st.sampled_from([0.0, 7.5, 12.0, math.inf]) | st.floats(-5, 30),
                    max_size=5),
           st.integers(1, 8))
    def test_equals_a_channel_per_point(self, seed, corpus_size, snr_list, block):
        # a small noise block puts block boundaries inside a short corpus
        with pytest.MonkeyPatch.context() as m:
            m.setattr(airspace, "NOISE_BLOCK", block)
            self.check_against_reference(seed, snr_list, corpus_size)

    def test_corpus_crossing_a_noise_block(self):
        corpus_size = airspace.NOISE_BLOCK + 76
        points, outcomes = self.check_against_reference(21, [7.5], corpus_size)
        assert 0 < points[0].lost < corpus_size  # the noise mattered, and not to every frame
        # frame k's noise is stream k + 1 of the sweep's seed, on both sides
        # of the block boundary, drawn here from a fresh SeedSequence
        noise_seed = int(np.random.SeedSequence([21, 0x51EE]).generate_state(1)[0])
        for k, frame in enumerate(harness._corpus(21, corpus_size)):
            samples, _ = airspace.transmission(frame)
            want = phy.awgn(samples, 7.5, np.random.SeedSequence([noise_seed, k + 1]))
            assert outcomes[7.5, k][0][0] == want.tobytes()

    @pytest.mark.parametrize("snr_list,modulations", [([], 0), ([3.0, math.inf, 3.0], 40)])
    def test_modulates_each_frame_once(self, monkeypatch, snr_list, modulations):
        calls = []
        for name in ("ppm_modulate", "dbpsk_modulate"):
            real = getattr(phy, name)
            monkeypatch.setattr(phy, name, lambda bits, real=real: calls.append(1) or real(bits))
        harness.loss_sweep(self.SCENARIO, snr_list, corpus_size=40)
        assert len(calls) == modulations

    def test_csv_rendering(self):
        points = harness.loss_sweep(self.SCENARIO, [math.inf], corpus_size=10)
        text = harness.loss_table_csv(points)
        assert text.splitlines()[0] == "snr_db,samples,lost,loss_fraction"
        assert text.splitlines()[1] == "inf,10,0,0"


class TestFtaReport:
    def test_default_document_gives_published_row(self):
        sweep, table = harness.fta_report({})
        assert len(sweep) == 1
        rep = sweep.report
        assert (rep.p_unresolved[0], rep.p_induced[0]) == (0.413, 0.11)
        assert rep.p_top_sum[0] == pytest.approx(0.523, abs=1e-12)
        assert rep.p_top_published[0] == 0.424
        assert "0.413,0.11,0.523,0.424" in table

    def test_grid_cardinality(self):
        sweep, _ = harness.fta_report({"grid": {"rnf": [0, 0.5, 1], "ti": [0, 1]}})
        assert len(sweep) == 6

    def test_factors_document(self):
        sweep, _ = harness.fta_report({"factors": {"ti": 0.5}})
        assert sweep.report.p_induced[0] == pytest.approx(0.405, abs=1e-12)

    def test_attack_overrides_elevate_and_flag(self):
        sweep, _ = harness.fta_report({
            "factors": {"vna": 1.0, "tna": 1.0, "rnf": 1.0},
            "overrides": {"n": 1.0, "o": 1.0}})
        rep = sweep.report
        assert rep.risk_ratio[0] > 1.0
        assert "p_unresolved>1" in rep.flags[0]

    def test_unknown_fields_rejected(self):
        with pytest.raises(fta.FtaError, match="mood"):
            harness.fta_report({"mood": {}})
        with pytest.raises(fta.FtaError):
            harness.fta_report({"overrides": {"zz": 0.5}})

    @pytest.mark.parametrize("document,names", [
        ([], "JSON object"),
        ({"grid": {"ti": ["a"]}}, "TI"),
        ({"grid": {"ti": 0.5}}, "'ti'"),
        ({"grid": {"ti": [True]}}, "TI"),
        ({"grid": [["ti", [0.5]]]}, "'grid'"),
        ({"factors": [1]}, "'factors'"),
        ({"factors": {"ti": True}}, "TI"),
        ({"overrides": {"n": "x"}}, r"\bn must be a probability"),
        ({"overrides": {"n": False}}, r"\bn must be a probability"),
        (None, "JSON object"),
        ({"overrides": {"a": 0.16}}, "'a' feeds no formula"),
    ])
    def test_malformed_document_names_the_field(self, document, names):
        with pytest.raises(fta.FtaError, match=names):
            harness.fta_report(document)


# -- fuzzed scenario documents ------------------------------------------------------

# Values a fuzzed document puts in place of any field.  None of them is a
# valid value that makes a run long (a tiny surveillance period, a high
# flood rate), as a long run is no fault of the loader.  Each draw is a
# copy: a drawn list that a later mutation appended to would otherwise be
# changed for every later example, and could be appended into itself.
HOSTILE = st.sampled_from([
    None, True, "", "x", "a,b", "café", "line\nbreak", "ZZZZZZ", "1000000", [], {}, [1],
    {"x": 1}, -1, 0, 1, -0.5, 1e-300, 1e308, -1e308, 10**400, math.inf, -math.inf,
    math.nan]).map(copy.deepcopy)


def _aircraft_doc(i: int):
    return st.fixed_dictionaries({
        "name": st.just(f"craft{i}"),
        "icao": st.just(f"{0xA10000 + i:06X}"),
        "position": st.fixed_dictionaries({
            "x_nmi": st.floats(-6, 6), "y_nmi": st.floats(-6, 6),
            "altitude_ft": st.floats(0, 45_000)}),
    }, optional={
        "mode": st.sampled_from(["standby", "xpdr", "ta_only", "ta_ra"]),
        "squitter": st.booleans(),
        "velocity": st.fixed_dictionaries({}, optional={
            "vx_kt": st.floats(-600, 600), "vy_kt": st.floats(-600, 600),
            "vertical_rate_fpm": st.floats(-3000, 3000)}),
        "pilot": st.fixed_dictionaries({}, optional={
            "delay_s": st.floats(0, 3), "rate_fpm": st.floats(500, 3000)}),
    })


GROUND = {"x_nmi": 1.0, "y_nmi": 0.0, "altitude_ft": 0.0}
ATTACKERS = st.one_of(
    st.fixed_dictionaries({
        "name": st.just("ground"), "mission": st.just("phantom"),
        "position": st.just(GROUND), "target": st.just("A10000")}, optional={
        "plan": st.fixed_dictionaries({}, optional={
            "initial_range_nmi": st.floats(0, 20), "closure_kt": st.floats(-600, 600),
            "floor_nmi": st.floats(0, 2), "altitude_ft": st.floats(0, 45_000)}),
        "bait_timeout_s": st.floats(0, 2),
        "jam": st.lists(st.fixed_dictionaries(
            {"target": st.just("A10001"), "start_s": st.floats(0, 1)},
            optional={"end_s": st.one_of(st.none(), st.floats(1.5, 3))}), max_size=2)}),
    st.fixed_dictionaries({
        "name": st.just("ground"),
        "mission": st.sampled_from(["all_call_flood", "squitter_flood"]),
        "position": st.just(GROUND)}, optional={
        "flood": st.fixed_dictionaries({}, optional={
            "rate_hz": st.floats(1, 100), "duration_s": st.floats(0.1, 2)})}))

SCENARIO_DOCS = st.fixed_dictionaries({
    "schema_version": st.just(1),
    "name": st.just("fuzzed"),
    "duration_s": st.floats(0.05, 1.5),
    "seed": st.integers(0, 2**40),
    "aircraft": st.integers(1, 3).flatmap(
        lambda n: st.tuples(*map(_aircraft_doc, range(n))).map(list)),
}, optional={
    "channel": st.one_of(st.just({"kind": "noiseless"}),
                         st.fixed_dictionaries({"kind": st.just("awgn"),
                                                "snr_db": st.floats(0, 20)})),
    "surveillance_period_s": st.floats(0.2, 2),
    "attacker": ATTACKERS,
    "success": st.lists(st.sampled_from(sorted(scen.SUCCESS_PREDICATES)), max_size=2),
})


def _field_paths(node, path=()):
    """Every (container path, key) of a document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, path + (key,))


def _fuzz(doc: dict, data) -> dict:
    """A copy with a few fields deleted, replaced or joined by a stranger
    (a list gains one more item)."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        path, key = data.draw(st.sampled_from(list(_field_paths(doc))), label="field")
        parent = doc
        for step in path:
            parent = parent[step]
        action = data.draw(st.sampled_from(["replace", "delete", "add"]), label="action")
        if action == "replace":
            parent[key] = data.draw(HOSTILE, label="value")
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent["stranger"] = data.draw(HOSTILE, label="value")
        else:
            parent.append(data.draw(HOSTILE, label="value"))
    return doc


class TestFuzzedScenarios:
    @settings(max_examples=100, deadline=None)
    @given(SCENARIO_DOCS, st.data())
    def test_loads_runs_and_replays_or_fails_cleanly(self, tmp_path_factory, doc, data):
        doc = _fuzz(doc, data)
        try:
            scenario = scen.load_scenario(doc)
        except scen.ScenarioError:
            return
        try:
            result = harness.simulate(scenario)
        except SimError:
            return
        path = tmp_path_factory.mktemp("fuzzed") / "events.log"
        write_event_log(path, result.records)
        back = read_event_log(path)
        assert back == result.records
        again = harness.metrics_from_log(back, scenario)
        assert again.to_json() == result.report.to_json()

    @settings(max_examples=30, deadline=None)
    @given(SCENARIO_DOCS)
    def test_runs_as_the_reference_world_does(self, doc):
        try:
            scenario = scen.load_scenario(doc)
            result = harness.simulate(scenario)
        except (scen.ScenarioError, SimError):
            return
        with mock.patch.object(scen, "World", oracles.ReferenceWorld):
            reference = harness.simulate(scenario)
        assert reference.records == result.records
        assert reference.report.to_json() == result.report.to_json()


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_logs_stay_within_the_benchmark_vocabulary(monkeypatch):
    """The benchmark counts log records by kind and deliveries by outcome,
    each under its own name; one it does not list would only read 0."""
    for name in ("tracing", "workloads"):  # imported by run.py, dropped afterwards
        monkeypatch.setitem(sys.modules, name, _load_bench_module(name))
    run = _load_bench_module("run")
    kinds, outcomes = set(), set()
    for name in scen.bundled_scenario_names():
        scenario = scen.bundled_scenario(name)
        for variant in (scenario, scenario.without_attacker()):
            for rec in harness.simulate(variant).records:
                kinds.add(rec.kind)
                if rec.kind == "deliver":
                    outcomes.add(rec.outcome)
    assert "deliver" in kinds
    assert kinds <= set(run.RECORD_KINDS)
    assert outcomes <= set(run.DELIVER_OUTCOMES)
    assert set(airspace.KINDS) == set(run.RECORD_KINDS)


def test_every_logged_note_round_trips_through_the_grammar():
    """``note`` rebuilds each note outcome from what ``parse_note`` reads,
    over the bundled scenarios, their controls and a five-aircraft ring."""
    ring = _load_bench_module("workloads").ring_document(5, 4.0, 60.0, 0)
    scenarios = [scen.load_scenario(ring)]
    for name in scen.bundled_scenario_names():
        scenario = scen.bundled_scenario(name)
        scenarios += [scenario, scenario.without_attacker()]
    seen = set()
    for scenario in scenarios:
        for rec in harness.simulate(scenario).records:
            if rec.kind in airspace.NOTES:
                parsed = airspace.parse_note(rec.outcome)
                assert parsed.name in airspace.NOTES[rec.kind], rec
                assert airspace.note(parsed.name, *parsed.args, **parsed.params) == rec.outcome
                seen.add(parsed.name)
    assert {"range", "track_drop", "rac_received", "ra_issued", "ra_cleared", "engage",
            "level_off", "phase", "recon", "evidence", "predictive_armed", "window"} <= seen


# -- reference cycles ----------------------------------------------------------------

@pytest.mark.parametrize("name", scen.bundled_scenario_names())
def test_a_run_its_log_and_its_report_leave_no_cycle(name, tmp_path):
    """A run, a log read and a report make no reference cycle, so what they
    leave is freed by reference counting alone, the moment its last
    reference goes, and never waits for a cyclic collection."""
    scenario = scen.bundled_scenario(name)
    path = tmp_path / "events.log"
    gc.collect()
    result = harness.simulate(scenario)
    write_event_log(path, result.records)
    harness.metrics_from_log(read_event_log(path), scenario)
    del result
    assert gc.collect() == 0
