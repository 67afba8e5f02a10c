"""Known answers for the numpy primitives the AWGN logs rest on.

The AWGN golden digests depend on what numpy computes for the noise draws,
for ``np.correlate``'s float64 summation order (which sets the detector's
threshold test and its ``argmax``) and for the cumulative sums and square
roots of the normalized correlation.  The other tests compare these with
numpy itself, so a numpy build that moved one would fail only as a
whole-log digest mismatch.  Each test here pins one primitive against
absolute literals, so that a failure names the primitive that moved.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from tcassim import noise, phy

# two (state, inc) pairs of pcg64_states: one-word seed and index, and a
# two-word seed with a two-word index
STATE_A = (208745520555909116978795849195383758904, 261136684632268670825940853076396136793)
STATE_B = (255421438789155268189930557279000782148, 44641082262844644075859057911386811277)


def _generator(state: tuple[int, int]) -> np.random.Generator:
    return noise.set_state(np.random.Generator(np.random.PCG64(0)), state)


def test_pcg64_states_value():
    assert noise.pcg64_states(7, 0, 1) == [STATE_A]


@pytest.mark.parametrize("state,draws", [
    (STATE_A, ["0x1.427a31c1ffc58p-10", "0x1.31ea59a5b303ep-2", "-0x1.18b7980d81558p-2",
               "-0x1.c7fba74b18102p-1"]),
    (STATE_B, ["0x1.c597641db675bp+0", "-0x1.2edbf94f7169ap-1", "0x1.1f5c53458185ap-1",
               "0x1.db4b15dbf1ac6p-2"])], ids=["state-a", "state-b"])
def test_normal_draws_after_set_state(state, draws):
    assert [v.hex() for v in _generator(state).normal(0.0, 1.0, 4).tolist()] == draws


def test_correlate_adds_the_preamble_pulses_pairwise():
    # the preamble's pulses sit at chips 0, 2, 7 and 9; added left to right
    # instead, about 30% of these windows would differ in the last bit
    x = _generator(STATE_A).normal(0.0, 1.0, 3000)
    pairwise = (x[:-15] + x[2:-13]) + (x[7:-8] + x[9:-6])
    assert np.correlate(x, phy.PPM_PREAMBLE).tobytes() == pairwise.tobytes()


def test_normalized_correlation_vector():
    # the last window holds no energy, so it reads 0
    x = np.array([0.1, 0.9, 0.2, 1.1, 0.05, -0.1, 0.0, 0.3, 1.0, 0.2] + [0.0] * 16)
    got = phy._normalized_correlation(x, phy.PPM_PREAMBLE, phy.PPM_PREAMBLE_NORM)
    assert [v.hex() for v in got.tolist()] == [
        "0x1.c90e0e5a148bcp-3", "0x1.ad284e4d1f6e2p-1", "0x1.29e935671a88cp-3",
        "0x1.4dd0806ea1508p-2", "0x1.7f34a20095d14p-6", "0x1.7fa023f1068d2p-4",
        "0x1.e1a62a68be9a5p-2", "0x1.e1a62a68be9a5p-3", "0x1.f60eab9a5d3a2p-2",
        "0x1.ffffffffffffcp-2", "0x0.0p+0"]


def test_cumsum_along_the_last_axis_adds_each_row_left_to_right():
    # the detector's window energies of a block of receptions come from one
    # cumsum along its rows, written into a strided view as the detector does
    block = _generator(STATE_B).normal(0.0, 1.0, (3, 500)) ** 2
    out = np.empty((3, 501))
    block.cumsum(axis=-1, out=out[:, 1:])
    for row, got in zip(block, out[:, 1:]):
        assert got.tobytes() == np.cumsum(row).tobytes()
        assert got.tolist() == list(itertools.accumulate(row.tolist()))
