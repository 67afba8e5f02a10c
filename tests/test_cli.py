"""Command-line surface: exit codes, artifacts on disk, output shapes."""

from __future__ import annotations

import json

import pytest

from tcassim import cli
from tcassim import modes_codec as codec
from tcassim.airspace import read_event_log


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


NOISY_DOC = {
    "schema_version": 1, "name": "noisy", "duration_s": 5.0, "seed": 9,
    "channel": {"kind": "awgn", "snr_db": 15.0},
    "aircraft": [{"name": "solo", "icao": "ABC123", "mode": "xpdr",
                  "position": {"x_nmi": 0.0, "y_nmi": 0.0, "altitude_ft": 30000.0}}],
}

# head-on at 200 ft and 250 ft: the resolution advisory takes one aircraft
# below 0 ft, whose next reply cannot encode its altitude
LOW_HEAD_ON = {
    "schema_version": 1, "name": "low_head_on", "duration_s": 60.0,
    "aircraft": [{"name": name, "icao": icao, "mode": "ta_ra",
                  "position": {"x_nmi": 0.0, "y_nmi": y, "altitude_ft": alt},
                  "velocity": {"vx_kt": 0.0, "vy_kt": -75.0 * y}}
                 for name, icao, y, alt in [("north", "A40001", 4.0, 200.0),
                                            ("south", "A40002", -4.0, 250.0)]]}
LOW_HEAD_ON_ERROR = ("deliver from south to north at time_ns=26537022103: "
                     "altitude below encodable range: -0.92")


class TestSimulate:
    def test_bundled_scenario_artifacts(self, capsys, tmp_path):
        log = tmp_path / "run.log"
        metrics = tmp_path / "run.json"
        code, out, _ = run(capsys, "simulate", "benign_pair",
                           "--log", str(log), "--metrics", str(metrics))
        assert code == 0
        assert "success no_advisories: pass" in out
        assert read_event_log(log)  # parses back
        report = json.loads(metrics.read_text())
        assert report["scenario"] == "benign_pair"
        assert report["nmac_occurred"] is False

    def test_an_attack_prints_its_phases(self, capsys):
        code, out, _ = run(capsys, "simulate", "head_on_phantom")
        assert code == 0
        assert "attack phases: recon baiting tracking threat_declared done\n" in out

    def test_failed_predicate_exits_nonzero(self, capsys, tmp_path):
        doc = {"schema_version": 1, "name": "hopeless", "duration_s": 2.0,
               "aircraft": [{"name": "solo", "icao": "ABC123",
                             "position": {"x_nmi": 0.0, "y_nmi": 0.0,
                                          "altitude_ft": 30000.0}}],
               "success": ["nmac_occurred"]}
        path = tmp_path / "hopeless.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "simulate", str(path))
        assert code == 1
        assert "success nmac_occurred: FAIL" in out

    def test_seed_override_lands_in_report(self, capsys, tmp_path):
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(NOISY_DOC))
        metrics = tmp_path / "m.json"
        code, _, _ = run(capsys, "simulate", str(path), "--seed", "77",
                         "--metrics", str(metrics))
        assert code == 0
        assert json.loads(metrics.read_text())["seed"] == 77

    @pytest.mark.parametrize("field,value", [
        ("success", [[1]]), ("duration_s", 10 ** 400), ("surveillance_period_s", 1e-12)],
        ids=["success", "duration_s", "surveillance_period_s"])
    def test_malformed_document_is_usage_error(self, capsys, tmp_path, field, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**NOISY_DOC, field: value}))
        code, _, err = run(capsys, "simulate", str(path))
        assert code == 2
        assert err.startswith("error:") and field in err

    def test_runtime_error_names_event_aircraft_and_time(self, capsys, tmp_path):
        path = tmp_path / "low.json"
        path.write_text(json.dumps(LOW_HEAD_ON))
        code, _, err = run(capsys, "simulate", str(path))
        assert code == 2
        assert err.startswith(f"error: {LOW_HEAD_ON_ERROR}")

    def test_runtime_error_keeps_the_partial_log(self, capsys, tmp_path):
        path = tmp_path / "low.json"
        path.write_text(json.dumps(LOW_HEAD_ON))
        log = tmp_path / "low.log"
        code, _, err = run(capsys, "simulate", str(path), "--log", str(log))
        assert code == 2
        assert err.startswith(f"error: {LOW_HEAD_ON_ERROR}")
        records = read_event_log(log)
        assert len(records) > 100
        assert records[-1].time_ns <= 26537022103
        assert [r.time_ns for r in records] == sorted(r.time_ns for r in records)

    def test_negative_seed_in_document_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**NOISY_DOC, "seed": -1}))
        log = tmp_path / "bad.log"
        code, _, err = run(capsys, "simulate", str(path), "--log", str(log))
        assert code == 2
        assert err.startswith("error: scenario: field 'seed'")
        assert not log.exists()  # refused before the run

    def test_negative_seed_option_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(NOISY_DOC))
        log = tmp_path / "noisy.log"
        code, _, err = run(capsys, "simulate", str(path), "--seed", "-3", "--log", str(log))
        assert code == 2
        assert err.startswith("error: scenario: field 'seed' must be a non-negative integer")
        assert not log.exists()  # refused before the run

    def test_unwritable_partial_log_keeps_the_run_error(self, capsys, tmp_path):
        path = tmp_path / "low.json"
        path.write_text(json.dumps(LOW_HEAD_ON))
        code, _, err = run(capsys, "simulate", str(path), "--log", str(tmp_path))
        assert code == 2
        assert err.startswith("warning: partial log not written:")
        assert f"error: {LOW_HEAD_ON_ERROR}" in err

    def test_unknown_reference(self, capsys):
        code, _, err = run(capsys, "simulate", "no_such_scenario")
        assert code == 2
        assert "bundled" in err


class TestSweep:
    def test_table_on_stdout(self, capsys, tmp_path):
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(NOISY_DOC))
        code, out, _ = run(capsys, "sweep", str(path), "--snr", "20,5,inf",
                           "--frames", "40")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "snr_db,samples,lost,loss_fraction"
        assert [row.split(",")[0] for row in lines[1:]] == ["5", "20", "inf"]

    def test_out_writes_the_table_stdout_would_show(self, capsys, tmp_path):
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(NOISY_DOC))
        argv = ("sweep", str(path), "--snr", "20,5", "--frames", "40")
        _, shown, _ = run(capsys, *argv)
        table = tmp_path / "loss.csv"
        assert run(capsys, *argv, "--out", str(table)) == (0, "", "")
        assert table.read_text() == shown

    @pytest.mark.parametrize("argv", [
        ("--snr", "10", "--frames", "0"), ("--snr=-inf",), ("--snr", "nan"), ("--snr", "5,NaN"),
        ("--snr=-4000",)],
        ids=["frames-zero", "snr-minus-inf", "snr-nan", "snr-nan-in-list",
             "snr-noise-power-overflows"])
    def test_bad_sweep_input_is_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(NOISY_DOC))
        code, out, err = run(capsys, "sweep", str(path), *argv)
        assert code == 2
        assert err.startswith("error:") and out == ""

    def test_noiseless_scenario_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "benign_pair", "--snr", "10")
        assert code == 2
        assert "awgn" in err


class TestFta:
    def test_defaults_row(self, capsys):
        code, out, _ = run(capsys, "fta", "--defaults")
        assert code == 0
        assert "0.413,0.11,0.523,0.424" in out

    def test_document_with_overrides(self, capsys, tmp_path):
        path = tmp_path / "risk.json"
        path.write_text(json.dumps({"grid": {"ti": [0.0, 1.0]}}))
        code, out, _ = run(capsys, "fta", str(path), "--override", "n=1", "--override", "o=1")
        assert code == 0
        assert len(out.strip().splitlines()) == 3  # header + two grid rows

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "fta", "--defaults", "--json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["p_top_sum"] == pytest.approx(0.523, abs=1e-12)

    def test_bad_override_shape(self, capsys):
        code, _, err = run(capsys, "fta", "--defaults", "--override", "n:1")
        assert code == 2 and "k=v" in err

    def test_needs_file_or_defaults(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fta"])

    @pytest.mark.parametrize("document,argv,names", [
        ({"grid": {"ti": ["a"]}}, [], "TI"),
        ({"grid": {"ti": 0.5}}, [], "'ti'"),
        ({"factors": [1]}, [], "'factors'"),
        ({"overrides": {"n": "x"}}, [], "n must be a probability"),
        ({"overrides": {"n": True}}, [], "n must be a probability"),
        ([], [], "JSON object"),
        ([], ["--override", "n=1"], "JSON object"),
        ({"overrides": [1]}, ["--override", "n=1"], "'overrides'"),
        (None, [], "JSON object"),
        ({}, ["--override", "a=0.16"], "'a'"),  # a feeds no formula
    ])
    def test_malformed_document_exits_2_naming_the_field(self, capsys, tmp_path,
                                                         document, argv, names):
        path = tmp_path / "risk.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "fta", str(path), *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and names in err


class TestCodec:
    def test_library_build_cli_decode_round_trip(self, capsys):
        frame = codec.build_reply("extended_squitter", 0x3C4EFA, altitude_ft=41400)
        code, out, _ = run(capsys, "codec", frame.to_hex())
        assert code == 0
        assert "icao: 3c4efa" in out
        assert "altitude_ft: 41400" in out
        assert "parity: pass" in out

    def test_corrupted_nibble_fails_parity(self, capsys):
        text = codec.build_reply("all_call", 0x3C4EFA).to_hex()
        bad = ("0" if text[3] != "0" else "1").join((text[:3], text[4:]))
        code, out, _ = run(capsys, "codec", bad)
        assert code == 1
        assert "parity: FAIL" in out

    def test_addressed_uplink_with_expected_address(self, capsys):
        frame = codec.build_interrogation("surveillance_short", 0xABC123)
        code, out, _ = run(capsys, "codec", frame.to_hex(), "--uplink",
                           "--address", "ABC123")
        assert code == 0
        code, out, _ = run(capsys, "codec", frame.to_hex(), "--uplink",
                           "--address", "ABC124")
        assert code == 1

    def test_addressed_without_address_is_unverified(self, capsys):
        frame = codec.build_reply("surveillance_short", 0xABC123, altitude_ft=5000)
        code, out, _ = run(capsys, "codec", frame.to_hex())
        assert code == 1
        assert "unverified" in out

    def test_unsupported_format_has_no_parity_to_check(self, capsys):
        code, out, _ = run(capsys, "codec", "00000000000000")
        assert code == 1
        assert "format code: 0 (unknown), 56 bits" in out
        assert out.endswith("parity: not checkable for this format\n")

    def test_malformed_hex_is_usage_error(self, capsys):
        code, _, err = run(capsys, "codec", "nothex")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("frame_text,address", [
        ("0x8d4840d6202cc371c32ce0576098", None), ("8d4840d6_02cc371c32ce0576098", None),
        (" 8d4840d6202cc371c32ce0576098", None), ("02e197b00179c3", "0xABC123"),
        ("02e197b00179c3", "ABC_123"), ("02e197b00179c3", "+ABC123")],
        ids=["frame-0x", "frame-underscore", "frame-space", "address-0x",
             "address-underscore", "address-plus"])
    def test_hex_that_is_not_exactly_its_digits_is_usage_error(self, capsys, frame_text,
                                                               address):
        extra = () if address is None else ("--uplink", "--address", address)
        code, _, err = run(capsys, "codec", frame_text, *extra)
        assert code == 2
        assert "hex digits" in err
