"""Waveform tests: modem round trips, preamble structure, detection
behavior, and noise statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import SeedSequence

from tcassim import airspace, phy

import oracles


def test_reply_preamble_is_the_fixed_16_chip_vector():
    assert phy.PPM_PREAMBLE.tolist() == [1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0]


def test_ppm_block_length_example():
    x = phy.ppm_modulate(np.zeros(56, dtype=np.uint8))
    assert x.shape == (16 + 112,) and x.dtype == np.float64


@pytest.mark.parametrize("nbits", [56, 112])
def test_ppm_round_trip(nbits):
    rng = np.random.default_rng(101 + nbits)
    for _ in range(20):
        bits = rng.integers(0, 2, nbits)
        x = phy.ppm_modulate(bits)
        assert phy.ppm_frame_detect(x) == [phy.FrameDetection(0)]
        assert (phy.ppm_demodulate(x, 0, nbits) == bits).all()


@pytest.mark.parametrize("nbits", [56, 112])
def test_dbpsk_round_trip(nbits):
    rng = np.random.default_rng(201 + nbits)
    for _ in range(20):
        bits = rng.integers(0, 2, nbits)
        x = phy.dbpsk_modulate(bits)
        assert x.shape == (4 + 7 + nbits + 2,) and x.dtype == np.complex128
        assert phy.dbpsk_frame_detect(x) == [phy.FrameDetection(0)]
        out = phy.dbpsk_demodulate(x, phy.sync_offset_of(0))
        assert (out[:nbits] == bits).all()


def test_sync_preamble_has_one_reversal_between_chips_5_and_6():
    x = phy.dbpsk_modulate(np.zeros(56, dtype=np.uint8))
    sync = x[4:11].real  # after the 4-sample suppression pair
    assert sync.tolist() == [1, 1, 1, 1, 1, -1, -1]
    flips = np.flatnonzero(sync[1:] != sync[:-1])
    assert flips.tolist() == [4]  # exactly one, between chip 5 and chip 6


def test_dbpsk_56_bit_frame_decodes_56_payload_bits_plus_pad():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 56)
    out = phy.dbpsk_demodulate(phy.dbpsk_modulate(bits), phy.sync_offset_of(0))
    # the stream holds 56 payload chips + 2 pad chips; the caller truncates
    # to the header-decoded length and ignores the rest
    assert out.size == 58
    assert (out[:56] == bits).all()
    assert out[56:].tolist() == [0, 0]


def test_dbpsk_demodulation_is_rotation_invariant():
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, 112)
    x = phy.dbpsk_modulate(bits)
    for theta in (0.3, 1.234, math.pi / 2, 3.0):
        rotated = x * np.exp(1j * theta)
        out = phy.dbpsk_demodulate(rotated, phy.sync_offset_of(0))
        assert (out[:112] == bits).all()


def test_dbpsk_truncation_error():
    cut = phy.dbpsk_modulate(np.zeros(56, dtype=np.uint8))[:40]
    with pytest.raises(phy.PhyError):
        phy.dbpsk_demodulate(cut, phy.sync_offset_of(0))


def test_ppm_tie_decodes_as_zero():
    # equal energy in both chips (here: none at all) must not decode as 1
    assert not phy.ppm_demodulate(np.zeros(16 + 112), 0, 56).any()


def test_inverted_amplitude_complements_bits():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, 56)
    inverted = 1.0 - phy.ppm_modulate(bits)
    assert (phy.ppm_demodulate(inverted, 0, 56) == 1 - bits).all()


def test_detect_empty_and_all_zero_stream():
    assert phy.ppm_frame_detect(np.zeros(0)) == []
    assert phy.ppm_frame_detect(np.zeros(400)) == []
    assert phy.dbpsk_frame_detect(np.zeros(400, dtype=complex)) == []


def test_detect_frame_at_offset():
    # a detection is the sample index of the preamble; the caller turns it
    # into a time (see airspace.decode_reception)
    bits = np.random.default_rng(6).integers(0, 2, 56)
    for modulate, detect in ((phy.ppm_modulate, phy.ppm_frame_detect),
                             (phy.dbpsk_modulate, phy.dbpsk_frame_detect)):
        x = modulate(bits)
        stream = np.concatenate([np.zeros(37, dtype=x.dtype), x, np.zeros(64, dtype=x.dtype)])
        assert detect(stream) == [phy.FrameDetection(37)]


def test_detect_two_frames_separated_by_a_frame_length():
    rng = np.random.default_rng(7)
    a = phy.ppm_modulate(rng.integers(0, 2, 56))
    b = phy.ppm_modulate(rng.integers(0, 2, 56))
    gap = np.zeros(a.size)  # one full frame length of silence
    dets = phy.ppm_frame_detect(np.concatenate([a, gap, b, np.zeros(8)]))
    assert [d.offset for d in dets] == [0, 2 * a.size]


def test_detection_shadow_suppresses_tail_self_similarity():
    # a frame ending in bits 1,1,x,0,0 echoes the preamble shape at its tail;
    # the shadow rule must not report that as a second frame
    tail_heavy = np.array([1] * 51 + [1, 1, 0, 0, 0], dtype=np.uint8)
    a = phy.ppm_modulate(tail_heavy)
    b = phy.ppm_modulate(np.zeros(56, dtype=np.uint8))
    stream = np.concatenate([a, np.zeros(a.size), b, np.zeros(8)])
    assert [d.offset for d in phy.ppm_frame_detect(stream)] == [0, 2 * a.size]


# modulate, detect, template, the template as the correlator takes it
# (conjugated), norm, and the least and most samples a frame takes behind
# its preamble
DETECTORS = {
    "ppm": (phy.ppm_modulate, phy.ppm_frame_detect, phy.PPM_PREAMBLE, phy.PPM_PREAMBLE,
            phy.PPM_PREAMBLE_NORM, phy.MIN_PAYLOAD_BITS * 2, phy.MAX_PAYLOAD_BITS * 2),
    "dbpsk": (phy.dbpsk_modulate, phy.dbpsk_frame_detect, phy.DBPSK_PREAMBLE,
              phy._DBPSK_MATCHED, phy.DBPSK_PREAMBLE_NORM, phy.MIN_PAYLOAD_BITS + 2,
              phy.MAX_PAYLOAD_BITS + 2),
}


@pytest.mark.parametrize("modem", ["ppm", "dbpsk"])
def test_detect_matches_reference_peak_picking(modem):
    # overlapping frames in heavy noise give many candidates, peaks that
    # shadow each other and peaks too close to the end to hold a frame
    modulate, detect, template, _, norm, min_tail, max_tail = DETECTORS[modem]
    rng = np.random.default_rng(12)
    found = 0
    for i in range(150):
        x = modulate(rng.integers(0, 2, int(rng.choice([56, 112]))))
        shift = int(rng.integers(1, x.size))
        stream = np.zeros(x.size + shift + int(rng.integers(0, 40)), dtype=x.dtype)
        stream[:x.size] += x
        stream[shift:shift + x.size] += x
        noisy = phy.awgn(stream, float(rng.choice([0.0, 4.0, 12.0])), SeedSequence([12, i]))
        want = oracles.detect_offsets(noisy, template, norm, min_tail, max_tail,
                                      phy.DETECTION_THRESHOLD)
        got = [d.offset for d in detect(noisy)]
        assert got == want, f"trial {i}"
        assert all(type(k) is int for k in got)
        found += len(got)
    assert found > 75


# a frame cut one sample short of room behind its preamble, and cut just
# at room: LEAD_PAD, then the preamble, then the least tail
@example("ppm", "truncated", 0, 56, 30.0, 0, 16 + 16 + 112 - 1, 0)
@example("ppm", "truncated", 0, 56, 30.0, 0, 16 + 16 + 112, 0)
@example("dbpsk", "truncated", 0, 56, 30.0, 0, 16 + 11 + 58 - 1, 0)
@example("dbpsk", "truncated", 0, 56, 30.0, 0, 16 + 11 + 58, 0)
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DETECTORS)),
       st.sampled_from(["frame", "two", "truncated", "noise", "zero", "empty"]),
       st.integers(0, 2**112 - 1), st.sampled_from([56, 112]), st.floats(-5, 30),
       st.integers(0, 2**32 - 1), st.integers(0, 10**6), st.integers(0, 40))
def test_correlation_and_detections_equal_the_whole_stream_oracle(modem, stream, word, nbits,
                                                                  snr_db, seed, cut, tail):
    modulate, detect, template, matched, norm, min_tail, max_tail = DETECTORS[modem]
    clean = modulate([(word >> i) & 1 for i in range(nbits)])
    if stream == "two":  # the second starts inside the first
        shift = 1 + cut % (clean.size - 1)
        samples = np.zeros(clean.size + shift + tail, dtype=clean.dtype)
        samples[:clean.size] += clean
        samples[shift:shift + clean.size] += clean
    else:
        pad = np.zeros(airspace.LEAD_PAD, dtype=clean.dtype)
        samples = np.concatenate([pad, clean, pad])
        if stream == "truncated":
            samples = samples[:cut % samples.size]
        elif stream == "empty":
            samples = samples[:0]
        elif stream != "frame":
            samples = np.zeros_like(samples)
    noisy = samples if stream == "zero" else phy.awgn(samples, snr_db, seed)

    want = oracles.normalized_correlation(noisy, template, norm)
    if noisy.size >= template.size:
        assert np.array_equal(phy._normalized_correlation(noisy, matched, norm), want)
    room = noisy.size - template.size - min_tail
    if room >= 0:  # the windows the detector correlates
        got = phy._normalized_correlation(noisy[:room + template.size], matched, norm)
        assert np.array_equal(got, want[:room + 1])
    assert [d.offset for d in detect(noisy)] == oracles.detect_offsets(
        noisy, template, norm, min_tail, max_tail, phy.DETECTION_THRESHOLD)


def test_complex_awgn_is_two_draws_of_n():
    # one draw of 2n normals is the same stream as an in-phase draw of n
    # followed by a quadrature draw of n
    x = phy.dbpsk_modulate(np.ones(112, dtype=np.uint8))
    for i in range(50):
        rng = np.random.default_rng(SeedSequence([3, i]))
        sigma = math.sqrt(10.0 ** (-6.0 / 10.0) / 2.0)
        noise = rng.normal(0.0, sigma, x.size) + 1j * rng.normal(0.0, sigma, x.size)
        assert (phy.awgn(x, 6.0, SeedSequence([3, i])) == x + noise).all()


def test_detection_timestamp_error_at_15db():
    rng = np.random.default_rng(8)
    errors = []
    for i in range(1000):
        bits = rng.integers(0, 2, 56)
        offset = int(rng.integers(5, 60))
        stream = np.concatenate([np.zeros(offset), phy.ppm_modulate(bits), np.zeros(130)])
        noisy = phy.awgn(stream, 15.0, SeedSequence([15, i]))
        dets = phy.ppm_frame_detect(noisy)
        assert dets, f"detection lost at 15 dB (trial {i})"
        errors.append(min(abs(d.offset - offset) for d in dets))
    errors.sort()
    assert errors[int(0.95 * len(errors)) - 1] <= 1


def test_awgn_infinite_snr_is_identity():
    for x in (phy.ppm_modulate(np.ones(56, dtype=np.uint8)),
              phy.dbpsk_modulate(np.ones(56, dtype=np.uint8))):
        out = phy.awgn(x, math.inf, 0)
        assert out is not x and out.dtype == x.dtype and (out == x).all()


def test_awgn_noise_power_within_two_percent():
    n = 1_000_000
    for snr_db in (0.0, 10.0):
        want = 10.0 ** (-snr_db / 10.0)
        delta = phy.awgn(np.zeros(n), snr_db, 123)
        assert abs(np.mean(delta ** 2) / want - 1.0) < 0.02
        delta = phy.awgn(np.zeros(n, dtype=complex), snr_db, 123)
        assert abs(np.mean(np.abs(delta) ** 2) / want - 1.0) < 0.02


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf, -4000.0, -1e300])
def test_an_snr_with_no_finite_noise_power_is_refused(snr_db):
    with pytest.raises(phy.PhyError, match="noise power"):
        phy.noise_power(snr_db)
    with pytest.raises(phy.PhyError, match="noise power"):
        phy.awgn(np.zeros(4), snr_db, 0)


def test_noise_power_from_the_floor_of_float_range_to_noiseless():
    assert phy.noise_power(math.inf) == 0.0
    for snr_db in (-3080.0, -20.0, 0.0, 12.0, 1e300):
        assert phy.noise_power(snr_db) == 10.0 ** (-snr_db / 10.0)


def test_awgn_deterministic_per_seed():
    x = phy.ppm_modulate(np.ones(56, dtype=np.uint8))
    a = phy.awgn(x, 10.0, 99)
    b = phy.awgn(x, 10.0, 99)
    c = phy.awgn(x, 10.0, 98)
    assert (a == b).all()
    assert not (a == c).all()


def test_ppm_ber_at_20db_below_1e_minus_3():
    rng = np.random.default_rng(9)
    errors = 0
    total = 0
    for i in range(900):
        bits = rng.integers(0, 2, 112)
        noisy = phy.awgn(phy.ppm_modulate(bits), 20.0, SeedSequence([20, i]))
        out = phy.ppm_demodulate(noisy, 0, 112)
        errors += int((out != bits).sum())
        total += 112
    assert total >= 100_000
    assert errors / total < 1e-3


def test_dbpsk_ber_at_20db_below_1e_minus_3():
    rng = np.random.default_rng(10)
    errors = 0
    total = 0
    for i in range(900):
        bits = rng.integers(0, 2, 112)
        noisy = phy.awgn(phy.dbpsk_modulate(bits), 20.0, SeedSequence([21, i]))
        out = phy.dbpsk_demodulate(noisy, phy.sync_offset_of(0))
        errors += int((out[:112] != bits).sum())
        total += 112
    assert total >= 100_000
    assert errors / total < 1e-3


@pytest.mark.parametrize("modulate", [phy.ppm_modulate, phy.dbpsk_modulate])
@pytest.mark.parametrize("bad", [2, -1])
def test_modulators_reject_values_other_than_0_and_1(modulate, bad):
    bits = np.zeros(56, dtype=np.int64)
    bits[17] = bad
    with pytest.raises(phy.PhyError, match="bits must be 0 or 1"):
        modulate(bits)
    with pytest.raises(phy.PhyError, match="bits must be 0 or 1"):
        modulate(bits.tolist())


@pytest.mark.parametrize("call", [
    lambda: phy.ppm_demodulate(np.zeros(40), 0, 56),
    lambda: phy.ppm_demodulate(np.zeros(240), -1, 56),
    lambda: phy.dbpsk_demodulate(np.zeros(200, dtype=complex), 0),
    lambda: phy.dbpsk_demodulate(np.zeros(200, dtype=complex), 199),
], ids=["ppm-too-short", "ppm-offset-negative", "dbpsk-sync-at-start", "dbpsk-sync-at-end"])
def test_a_demodulator_refuses_a_stream_without_room(call):
    with pytest.raises(phy.PhyError):
        call()


# -- blocks: the rows of one frame's receptions at several SNRs ----------------

# SNRs a block row may take: noiseless, below 0 dB, and any twice
BLOCK_SNRS = st.lists(st.sampled_from([math.inf, -5.0, 0.0, 12.0]) | st.floats(-10, 40),
                      min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["real", "complex"]), st.integers(0, 300), BLOCK_SNRS,
       st.integers(0, 2**64 - 1))
@example("real", 40, [math.inf, -3.0, -3.0, 20.0], 0)
@example("complex", 40, [math.inf, -3.0, -3.0, 20.0], 0)
def test_awgn_rows_equal_scalar_awgn_from_the_same_state(kind, size, snrs, seed):
    samples = np.random.default_rng(size).normal(0.0, 1.0, 2 * size)
    samples = samples[:size] + 1j * samples[size:] if kind == "complex" else samples[:size]
    samples[0::3] = 0.0  # zeros of both signs, where the sign of a zero of noise shows
    samples[1::3] *= -0.0
    block = phy.awgn(samples, snrs, SeedSequence([seed]))
    assert block.shape == (len(snrs), size) and block.dtype == samples.dtype
    for row, snr_db in zip(block, snrs):
        assert row.tobytes() == phy.awgn(samples, snr_db, SeedSequence([seed])).tobytes()


def test_awgn_rows_refuse_an_snr_with_no_finite_noise_power():
    with pytest.raises(phy.PhyError, match="noise power"):
        phy.awgn(np.zeros(4), [3.0, math.nan], 0)


def _streams(modem: str, count: int, frames: int, word: int, snr_db: float,
             seed: int) -> np.ndarray:
    """``count`` noisy copies of ``frames`` frames one after another, each
    frame one maximum frame extent behind the last, as a block."""
    modulate = DETECTORS[modem][0]
    clean = modulate([(word >> i) & 1 for i in range(112)])
    gap = np.zeros(clean.size + 8, dtype=clean.dtype)
    pad = np.zeros(airspace.LEAD_PAD, dtype=clean.dtype)
    stream = np.concatenate([pad, *[np.concatenate([clean, gap])] * (frames - 1), clean, pad])
    return phy.awgn(stream, [snr_db] * count, seed)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(DETECTORS)), st.integers(1, 5), st.integers(1, 3),
       st.integers(0, 2**112 - 1), st.floats(-5, 30), st.integers(0, 2**32 - 1))
def test_normalized_correlation_of_a_block_is_its_rows(modem, count, frames, word, snr_db,
                                                       seed):
    _, _, _, matched, norm, _, _ = DETECTORS[modem]
    block = _streams(modem, count, frames, word, snr_db, seed)
    got = phy._normalized_correlation(block, matched, norm)
    assert got.shape[0] == count
    for got_row, row in zip(got, block):
        assert got_row.tobytes() == phy._normalized_correlation(row, matched, norm).tobytes()


# one frame leaves a single possible detection per row; two or three give
# rows with several, and a cut block gives rows too short for any
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(DETECTORS)), st.integers(1, 6), st.integers(1, 3),
       st.integers(0, 2**112 - 1), st.floats(-5, 30), st.integers(0, 2**32 - 1),
       st.none() | st.integers(0, 800))
@example("ppm", 3, 3, 0, 30.0, 0, None)
@example("dbpsk", 3, 3, 0, 30.0, 0, None)
@example("ppm", 2, 1, 0, 30.0, 0, 20)
def test_detecting_a_block_is_detecting_its_rows(modem, count, frames, word, snr_db, seed,
                                                 cut):
    detect = DETECTORS[modem][1]
    block = _streams(modem, count, frames, word, snr_db, seed)[:, :cut]
    got = detect(block)
    assert got == [detect(row) for row in block]
    if (word, snr_db, cut) == (0, 30.0, None):
        assert [len(row) for row in got] == [frames] * count


def test_an_empty_block_has_no_detections():
    for modem in DETECTORS:
        assert DETECTORS[modem][1](_streams(modem, 0, 1, 0, 10.0, 0)) == []
