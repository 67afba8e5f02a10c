"""Waveform tests: modem round trips, preamble structure, detection
behavior, and noise statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.random import SeedSequence

from tcassim import phy


def test_reply_preamble_is_the_fixed_16_chip_vector():
    assert phy.PPM_PREAMBLE.tolist() == [1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0]


def test_ppm_block_length_example():
    blk = phy.ppm_modulate(np.zeros(56, dtype=np.uint8))
    assert blk.samples.size == 16 + 112


@pytest.mark.parametrize("nbits", [56, 112])
def test_ppm_round_trip(nbits):
    rng = np.random.default_rng(101 + nbits)
    for _ in range(20):
        bits = rng.integers(0, 2, nbits)
        blk = phy.ppm_modulate(bits)
        dets = phy.ppm_frame_detect(blk)
        assert len(dets) == 1 and dets[0].offset == 0 and dets[0].score == pytest.approx(1.0)
        assert (phy.ppm_demodulate(blk, dets[0].offset, nbits) == bits).all()


@pytest.mark.parametrize("nbits", [56, 112])
def test_dbpsk_round_trip(nbits):
    rng = np.random.default_rng(201 + nbits)
    for _ in range(20):
        bits = rng.integers(0, 2, nbits)
        blk = phy.dbpsk_modulate(bits)
        assert blk.samples.size == 4 + 7 + nbits + 2
        dets = phy.dbpsk_frame_detect(blk)
        assert len(dets) == 1 and dets[0].offset == 0
        out = phy.dbpsk_demodulate(blk, phy.sync_offset_of(0))
        assert (out[:nbits] == bits).all()


def test_sync_preamble_has_one_reversal_between_chips_5_and_6():
    blk = phy.dbpsk_modulate(np.zeros(56, dtype=np.uint8))
    sync = blk.samples[4:11].real  # after the 4-sample suppression pair
    assert sync.tolist() == [1, 1, 1, 1, 1, -1, -1]
    flips = np.flatnonzero(sync[1:] != sync[:-1])
    assert flips.tolist() == [4]  # exactly one, between chip 5 and chip 6


def test_dbpsk_56_bit_frame_decodes_56_payload_bits_plus_pad():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 56)
    blk = phy.dbpsk_modulate(bits)
    out = phy.dbpsk_demodulate(blk, phy.sync_offset_of(0))
    # the stream holds 56 payload chips + 2 pad chips; the caller truncates
    # to the header-decoded length and ignores the rest
    assert out.size == 58
    assert (out[:56] == bits).all()
    assert out[56:].tolist() == [0, 0]


def test_dbpsk_demodulation_is_rotation_invariant():
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, 112)
    blk = phy.dbpsk_modulate(bits)
    for theta in (0.3, 1.234, math.pi / 2, 3.0):
        rotated = phy.SampleBlock(blk.samples * np.exp(1j * theta))
        out = phy.dbpsk_demodulate(rotated, phy.sync_offset_of(0))
        assert (out[:112] == bits).all()


def test_dbpsk_truncation_error():
    blk = phy.dbpsk_modulate(np.zeros(56, dtype=np.uint8))
    cut = phy.SampleBlock(blk.samples[:40])
    with pytest.raises(phy.PhyError):
        phy.dbpsk_demodulate(cut, phy.sync_offset_of(0))


def test_ppm_tie_decodes_as_zero():
    # equal energy in both chips (here: none at all) must not decode as 1
    blk = phy.SampleBlock(np.zeros(16 + 112))
    assert not phy.ppm_demodulate(blk, 0, 56).any()


def test_inverted_amplitude_complements_bits():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, 56)
    blk = phy.ppm_modulate(bits)
    inverted = phy.SampleBlock(1.0 - blk.samples)
    assert (phy.ppm_demodulate(inverted, 0, 56) == 1 - bits).all()


def test_detect_empty_and_all_zero_stream():
    assert phy.ppm_frame_detect(phy.SampleBlock(np.zeros(0))) == []
    assert phy.ppm_frame_detect(phy.SampleBlock(np.zeros(400))) == []
    assert phy.dbpsk_frame_detect(phy.SampleBlock(np.zeros(400, dtype=complex))) == []


def test_detect_frame_at_offset_with_timestamp():
    rng = np.random.default_rng(6)
    blk = phy.ppm_modulate(rng.integers(0, 2, 56))
    stream = phy.SampleBlock(np.concatenate([np.zeros(37), blk.samples, np.zeros(64)]), 1_000)
    dets = phy.ppm_frame_detect(stream)
    assert [d.offset for d in dets] == [37]
    assert dets[0].timestamp_ns == 1_000 + 37 * phy.PPM_CHIP_NS


def test_detect_two_frames_separated_by_a_frame_length():
    rng = np.random.default_rng(7)
    a = phy.ppm_modulate(rng.integers(0, 2, 56))
    b = phy.ppm_modulate(rng.integers(0, 2, 56))
    gap = np.zeros(a.samples.size)  # one full frame length of silence
    stream = phy.SampleBlock(np.concatenate([a.samples, gap, b.samples, np.zeros(8)]))
    dets = phy.ppm_frame_detect(stream)
    assert [d.offset for d in dets] == [0, 2 * a.samples.size]


def test_detection_shadow_suppresses_tail_self_similarity():
    # a frame ending in bits 1,1,x,0,0 echoes the preamble shape at its tail;
    # the shadow rule must not report that as a second frame
    tail_heavy = np.array([1] * 51 + [1, 1, 0, 0, 0], dtype=np.uint8)
    a = phy.ppm_modulate(tail_heavy)
    b = phy.ppm_modulate(np.zeros(56, dtype=np.uint8))
    stream = phy.SampleBlock(
        np.concatenate([a.samples, np.zeros(a.samples.size), b.samples, np.zeros(8)]))
    assert [d.offset for d in phy.ppm_frame_detect(stream)] == [0, 2 * a.samples.size]


def test_detection_timestamp_error_at_15db():
    rng = np.random.default_rng(8)
    errors = []
    for i in range(1000):
        bits = rng.integers(0, 2, 56)
        offset = int(rng.integers(5, 60))
        blk = phy.ppm_modulate(bits)
        stream = phy.SampleBlock(
            np.concatenate([np.zeros(offset), blk.samples, np.zeros(130)]))
        noisy = phy.awgn(stream, 15.0, SeedSequence([15, i]))
        dets = phy.ppm_frame_detect(noisy)
        assert dets, f"detection lost at 15 dB (trial {i})"
        errors.append(min(abs(d.offset - offset) for d in dets))
    errors.sort()
    assert errors[int(0.95 * len(errors)) - 1] <= 1


def test_awgn_infinite_snr_is_identity():
    blk = phy.ppm_modulate(np.ones(56, dtype=np.uint8))
    out = phy.awgn(blk, math.inf, 0)
    assert (out.samples == blk.samples).all()


def test_awgn_noise_power_within_two_percent():
    n = 1_000_000
    for snr_db in (0.0, 10.0):
        want = 10.0 ** (-snr_db / 10.0)
        real = phy.SampleBlock(np.zeros(n))
        delta = phy.awgn(real, snr_db, 123).samples
        assert abs(np.mean(delta ** 2) / want - 1.0) < 0.02
        cplx = phy.SampleBlock(np.zeros(n, dtype=complex))
        delta = phy.awgn(cplx, snr_db, 123).samples
        assert abs(np.mean(np.abs(delta) ** 2) / want - 1.0) < 0.02


def test_awgn_deterministic_per_seed():
    blk = phy.ppm_modulate(np.ones(56, dtype=np.uint8))
    a = phy.awgn(blk, 10.0, 99).samples
    b = phy.awgn(blk, 10.0, 99).samples
    c = phy.awgn(blk, 10.0, 98).samples
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
