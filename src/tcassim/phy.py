"""Baseband waveforms for the two Mode S channels.

Replies (downlink) use pulse-position modulation: a fixed 16-chip preamble
followed by one chip pair per bit, energy in the first chip meaning 1 and in
the second meaning 0.  A reply chip is half a symbol, 500 ns, so a bit
occupies 1 us.

Interrogations (uplink) use differential BPSK at 250 ns per chip: a two-pulse
suppression pair that silences older transponder modes, a 7-chip sync
preamble whose single phase reversal sits between preamble chips 5 and 6,
the differentially encoded payload, and a 2-chip zero pad.

Waveforms are plain numpy arrays at one sample per chip, real for the pulse
modem and complex for the phase modem, so a sample index is a chip index and
``k`` samples last ``k`` chip periods.  Detection is normalized correlation
against the known preamble with a 0.75 decision threshold.  A stream is one
reception of one frame, so a detector reports at most one preamble: the
sample index where it starts; turning that into a time is the caller's
arithmetic.

A frame received at several SNRs is a block: ``awgn`` given a sequence of
SNRs returns one row per SNR, and the detectors take such a 2-D block and
return one list of detections per row, each what the row alone gives.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .modes_codec import LONG_FRAME_BITS, SHORT_FRAME_BITS

PPM_PREAMBLE = np.array([1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0], dtype=np.float64)
PPM_PREAMBLE.flags.writeable = False  # also the reply detection template
PPM_PREAMBLE_NORM = float(np.linalg.norm(PPM_PREAMBLE))
PPM_CHIP_NS = 500  # half of the 1 us reply symbol

SUPPRESSION_PULSES = np.array([1, 0, 1, 0], dtype=np.float64)
SYNC_PREAMBLE_BITS = (0, 0, 0, 0, 0, 1, 0)  # one reversal, between chips 5 and 6
DBPSK_CHIP_NS = 250

DETECTION_THRESHOLD = 0.75
MAX_PAYLOAD_BITS = LONG_FRAME_BITS
MIN_PAYLOAD_BITS = SHORT_FRAME_BITS


class PhyError(ValueError):
    """Insufficient samples, bits that are not 0 or 1, or an SNR with no
    finite noise power."""


@dataclass(frozen=True)
class FrameDetection:
    offset: int  # sample index of the preamble's first chip


# a stream's detections, or a block's, one list per row
Detections = list[FrameDetection] | list[list[FrameDetection]]


def _as_bit_array(bits) -> np.ndarray:
    # compared before any cast, which would truncate 0.5 to 0 and fail on
    # NaN or 1e30 with errors of its own
    arr = np.asarray(bits).ravel()
    if np.count_nonzero((arr != 0) & (arr != 1)):
        raise PhyError("bits must be 0 or 1")
    return arr.astype(np.int64)


def ppm_modulate(bits) -> np.ndarray:
    """Preamble plus one (1,0)/(0,1) chip pair per bit; amplitudes in {0,1}."""
    arr = _as_bit_array(bits)
    chips = np.empty(2 * arr.size, dtype=np.float64)
    chips[0::2] = arr
    chips[1::2] = 1 - arr
    return np.concatenate([PPM_PREAMBLE, chips])


def ppm_demodulate(samples: np.ndarray, offset: int, nbits: int) -> np.ndarray:
    """Chip-energy comparison per bit starting after the preamble at offset.

    A tie between the two chip energies decodes as 0.
    """
    start = offset + PPM_PREAMBLE.size
    need = start + nbits * 2
    if offset < 0 or need > samples.size:
        raise PhyError(f"stream too short for {nbits} bits at offset {offset}")
    chips = samples[start:need]  # real, as the pulse modem's samples are
    energy = chips * chips
    return (energy[0::2] > energy[1::2]).astype(np.uint8)


def _normalized_correlation(x: np.ndarray, matched: np.ndarray,
                            template_norm: float) -> np.ndarray:
    """|x . template| over the window's norm times the template's, for every
    window of x the template fits in; 0 where a window holds no energy.

    ``x`` is one stream, or a block of one or more streams of one length as
    the rows of a 2-D array, which gives one row of results per stream, bit
    for bit the stream's own.  ``matched`` is the template conjugated, as
    ``np.correlate`` conjugates its second argument.  The window energy is a
    difference of prefix sums of the power, so a prefix of x gives a prefix
    of the result, bit for bit.
    """
    n = matched.size
    if x.dtype.kind == "c":
        power = np.abs(x)
        power *= power  # abs(x) ** 2 bit for bit
    else:
        power = x * x
    # the same steps on one stream and on a block's rows, spelt out for
    # each: ``...`` indexing made the channel's one-stream detection about
    # 5% slower (0.55 us a reception on a 2-vCPU x86-64 host)
    if x.ndim == 1:
        dot = np.abs(np.correlate(x, matched))
        energy = np.empty(x.size + 1)
        energy[0] = 0.0
        power.cumsum(out=energy[1:])
        norm = energy[n:] - energy[:-n]
    else:  # np.correlate takes one stream at a time
        dot = np.abs(np.array([np.correlate(row, matched) for row in x]))
        energy = np.empty((len(x), x.shape[1] + 1))
        energy[:, 0] = 0.0
        power.cumsum(axis=1, out=energy[:, 1:])
        norm = energy[:, n:] - energy[:, :-n]
    np.sqrt(norm, out=norm)
    norm *= template_norm
    return np.divide(dot, norm, out=np.zeros(dot.shape), where=norm > 0)


def _detect(samples: np.ndarray, matched: np.ndarray, template_norm: float,
            min_tail: int) -> Detections:
    """The strongest window of the normalized correlation, earliest on ties,
    as the one detection when it reaches the threshold, else none.

    A reception holds one frame, so its preamble is its strongest window.
    Only windows with room for a minimum-length frame behind the preamble
    are correlated; the others could never be kept.

    ``samples`` is one stream, or a 2-D block of streams of one length,
    which is correlated in one call and gives one list per row.
    """
    n = matched.size
    room = samples.shape[-1] - n - min_tail  # the last window with room
    if room < 0 or samples.size == 0:
        return [] if samples.ndim == 1 else [[] for _ in samples]
    if samples.ndim == 1:
        corr = _normalized_correlation(samples[:room + n], matched, template_norm)
        k = int(corr.argmax())
        return [FrameDetection(k)] if corr[k] >= DETECTION_THRESHOLD else []
    corr = _normalized_correlation(samples[:, :room + n], matched, template_norm)
    return [[FrameDetection(int(k))] if row[k] >= DETECTION_THRESHOLD else []
            for row, k in zip(corr, corr.argmax(axis=1))]


def ppm_frame_detect(samples: np.ndarray) -> Detections:
    # the pulse template is real, so it is its own conjugate
    return _detect(samples, PPM_PREAMBLE, PPM_PREAMBLE_NORM, MIN_PAYLOAD_BITS * 2)


def _dbpsk_chips(bits: np.ndarray) -> np.ndarray:
    """Differentially encode sync + payload + zero pad into +-1 chips."""
    stream = np.concatenate([np.array(SYNC_PREAMBLE_BITS, dtype=np.int64), bits, [0, 0]])
    phase = np.cumsum(stream) % 2
    return np.where(phase == 0, 1.0, -1.0).astype(np.complex128)


# The interrogation detection template: suppression pair and sync preamble.
DBPSK_PREAMBLE = np.concatenate([
    SUPPRESSION_PULSES.astype(np.complex128),
    _dbpsk_chips(np.zeros(0, dtype=np.int64))[: len(SYNC_PREAMBLE_BITS)]])
DBPSK_PREAMBLE.flags.writeable = False
DBPSK_PREAMBLE_NORM = float(np.linalg.norm(DBPSK_PREAMBLE))
_DBPSK_MATCHED = np.conj(DBPSK_PREAMBLE)
_DBPSK_MATCHED.flags.writeable = False


def dbpsk_modulate(bits) -> np.ndarray:
    """Suppression pair, then DBPSK of (sync preamble, payload, 2-chip pad)."""
    arr = _as_bit_array(bits)
    return np.concatenate([SUPPRESSION_PULSES.astype(np.complex128), _dbpsk_chips(arr)])


def dbpsk_frame_detect(samples: np.ndarray) -> Detections:
    return _detect(samples, _DBPSK_MATCHED, DBPSK_PREAMBLE_NORM, MIN_PAYLOAD_BITS + 2)


def sync_offset_of(detection_offset: int) -> int:
    """Index of the first chip after the sync phase reversal, given the
    frame-start offset a detector reports."""
    return detection_offset + SUPPRESSION_PULSES.size + 5


def dbpsk_demodulate(samples: np.ndarray, sync_offset: int) -> np.ndarray:
    """Differentially decode up to 112 bits following the sync reversal.

    ``sync_offset`` points at the first chip after the phase reversal; the
    payload begins two chips later and every chip from there is decoded, up
    to 112, so short frames simply yield their 56 bits (plus pad) and the
    caller truncates using the decoded format code.
    Constant phase rotation of the whole stream cancels in the chip-pair
    products, so decoding is rotation invariant.
    """
    p0 = sync_offset + 2
    if sync_offset < 1 or p0 > samples.size:
        raise PhyError("sync offset leaves no room for a payload")
    n = min(MAX_PAYLOAD_BITS, samples.size - p0)
    if n < MIN_PAYLOAD_BITS:
        raise PhyError(f"stream truncated: only {n} symbols after the sync reversal")
    sym = samples[p0 - 1: p0 + n]
    diff = sym[1:] * np.conj(sym[:-1])
    return (diff.real < 0).astype(np.uint8)


def noise_power(snr_db: float) -> float:
    """The noise power 10^(-snr/10) of a unit signal; ``snr_db = inf`` gives
    zero.  An SNR with no finite power (NaN, -inf, or low enough to overflow)
    is a PhyError."""
    try:
        power = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        power = math.inf
    if not math.isfinite(power):
        raise PhyError(f"SNR {snr_db} dB gives no finite noise power")
    return power


def awgn(samples: np.ndarray, snr_db: float | Sequence[float], seed) -> np.ndarray:
    """A new array: the samples plus zero-mean Gaussian noise of
    ``noise_power(snr_db)``.

    ``snr_db = inf`` gives zero power, so the noise is exact zeros.  Complex
    samples get circular noise, half the power per quadrature.
    Deterministic for a given seed; a ``Generator`` passed as the seed is
    drawn from as it stands.

    ``snr_db`` may also be a sequence of SNRs.  Then the result has one row
    per SNR, all scaled from one draw of unit normals, and row j equals, bit
    for bit, ``awgn(samples, snr_db[j], seed)`` from the same generator
    state.
    """
    if hasattr(snr_db, "__len__"):
        return _awgn_rows(samples, snr_db, np.random.default_rng(seed))
    power = noise_power(snr_db)
    rng = np.random.default_rng(seed)
    if samples.dtype.kind == "c":
        # one draw of 2n is the same stream as two draws of n, in half the calls
        quadratures = rng.normal(0.0, math.sqrt(power / 2.0), 2 * samples.size)
        noise = quadratures[:samples.size] + 1j * quadratures[samples.size:]
    else:
        noise = rng.normal(0.0, math.sqrt(power), samples.size)
    return samples + noise


def _awgn_rows(samples: np.ndarray, snrs: Sequence[float], rng: np.random.Generator) -> np.ndarray:
    """``awgn`` at each of ``snrs``, one row each, from one unit draw."""
    powers = np.array([noise_power(snr_db) for snr_db in snrs], dtype=np.float64)
    n = samples.size
    complex_samples = samples.dtype.kind == "c"
    if complex_samples:
        powers /= 2.0
    # rng.normal(0.0, scale) draws the same unit normals and returns
    # 0.0 + scale * unit, where adding 0.0 turns a -0.0 into 0.0
    unit = rng.standard_normal(2 * n if complex_samples else n)
    quadratures = np.multiply.outer(np.sqrt(powers), unit)
    quadratures += 0.0
    noise = quadratures[:, :n] + 1j * quadratures[:, n:] if complex_samples else quadratures
    return samples + noise
