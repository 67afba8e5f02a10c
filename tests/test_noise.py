"""Noise streams: the block hash against numpy's own seeding, and the AWGN
channel against receptions drawn from a fresh SeedSequence each."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.random import PCG64, SeedSequence

from tcassim import airspace, phy
from tcassim import modes_codec as codec
from tcassim.noise import pcg64_states


def live_state(seed: int, index: int) -> tuple[int, int]:
    state = PCG64(SeedSequence([seed, index])).state["state"]
    return state["state"], state["inc"]


class TestBlockHash:
    # one-, two- and four-word seeds; 2**70 + 3 leaves more entropy words
    # than the pool holds, which takes SeedSequence's extra mixing rounds
    @pytest.mark.parametrize("seed", [0, 3, 11, 2**40 + 7, 2**70 + 3, 2**127 - 1])
    @pytest.mark.parametrize("start,count", [
        (0, 3), (airspace.NOISE_BLOCK - 5, 10), (2**32 - 3, 6), (2**64 - 1, 2)],
        ids=["first", "block-boundary", "index-gains-a-word", "index-gains-a-third-word"])
    def test_equals_live_seed_sequence(self, seed, start, count):
        got = pcg64_states(seed, start, count)
        assert got == [live_state(seed, i) for i in range(start, start + count)]

    def test_index_two_to_the_32_alone(self):
        assert pcg64_states(5, 2**32, 1) == [live_state(5, 2**32)]
        assert pcg64_states(5, 2**32 - 1, 1) == [live_state(5, 2**32 - 1)]

    def test_numpy_integers(self):
        assert pcg64_states(np.uint64(2**40 + 7), np.int64(9), 2) == [
            live_state(2**40 + 7, 9), live_state(2**40 + 7, 10)]

    def test_set_state_draws_what_a_fresh_generator_draws(self):
        rng = np.random.Generator(PCG64(0))
        for i, (state, inc) in enumerate(pcg64_states(9, 40, 30), start=40):
            rng.bit_generator.state = {"bit_generator": "PCG64",
                                       "state": {"state": state, "inc": inc},
                                       "has_uint32": 0, "uinteger": 0}
            fresh = np.random.default_rng(SeedSequence([9, i]))
            assert rng.normal(0.0, 1.0, 300).tobytes() == fresh.normal(0.0, 1.0, 300).tobytes()

    @pytest.mark.parametrize("seed,start", [(-1, 0), (0, -1)])
    def test_negative_input_is_an_error(self, seed, start):
        with pytest.raises(ValueError, match="non-negative"):
            pcg64_states(seed, start, 4)


FRAMES = [
    codec.build_reply("extended_squitter", 0xA1B2C3, altitude_ft=12_000.0),
    codec.build_interrogation("all_call"),
    codec.build_reply("all_call", 0x00BEEF),
    codec.build_interrogation("surveillance_short", 0xA1B2C3),
    codec.build_reply("surveillance_long", 0x123456, altitude_ft=3_000.0, rac=2, ra_active=True),
    codec.build_interrogation("surveillance_long", 0x123456, rac=1, ra_active=False,
                              sender=0x654321),
]


def reference_receive(monkeypatch, snr_db, seed, index, frame, time_ns):
    """The channel's chain on noise from a fresh ``SeedSequence([seed, index])``."""
    real = phy.awgn
    with monkeypatch.context() as m:
        m.setattr(phy, "awgn", lambda samples, snr, _rng: real(samples, snr,
                                                               SeedSequence([seed, index])))
        return airspace.AwgnChannel(snr_db, seed).receive(frame, time_ns)


class TestAwgnChannelNoise:
    SNR_DB = 7.0  # marginal: some receptions drop or come back altered

    def receptions(self, monkeypatch, channels, count, start=0):
        """Receptions ``start`` to ``start + count - 1`` of each channel,
        the channels taking turns at each: what each returned, and the
        generator state it drew from and the noisy samples it made, in call
        order.  A channel's reception k receives ``FRAMES[k % len(FRAMES)]``
        at ``1_000 * k`` ns."""
        real, drawn = phy.awgn, []

        def spy(samples, snr_db, rng):
            state = rng.bit_generator.state
            noisy = real(samples, snr_db, rng)
            drawn.append((state, samples, noisy))
            return noisy

        monkeypatch.setattr(phy, "awgn", spy)
        got = [channel.receive(FRAMES[k % len(FRAMES)], 1_000 * k)
               for k in range(start, start + count) for channel in channels]
        monkeypatch.setattr(phy, "awgn", real)
        return got, drawn

    def check(self, monkeypatch, seed, got, drawn, start=0):
        """One channel's receptions from ``start`` on equal the oracle's."""
        assert len(got) == len(drawn)
        altered = 0
        for k, (received, (state, samples, noisy)) in enumerate(zip(got, drawn), start=start):
            index = k + 1  # a channel's first noise index is 1
            assert state == PCG64(SeedSequence([seed, index])).state
            want = phy.awgn(samples, self.SNR_DB, SeedSequence([seed, index]))
            assert noisy.tobytes() == want.tobytes()
            frame = FRAMES[k % len(FRAMES)]
            assert received == reference_receive(monkeypatch, self.SNR_DB, seed, index,
                                                  frame, 1_000 * k)
            altered += received is None or received[0] != frame
        return altered

    def test_both_directions_across_blocks_and_seeds(self, monkeypatch):
        monkeypatch.setattr(airspace, "NOISE_BLOCK", 4)  # several blocks in a short run
        altered = 0
        for seed in (3, 2**40 + 7):  # a one-word and a two-word seed
            channel = airspace.AwgnChannel(self.SNR_DB, seed)
            got, drawn = self.receptions(monkeypatch, [channel], 14)
            altered += self.check(monkeypatch, seed, got, drawn)
        assert 0 < altered < 28  # the noise mattered, and not to every frame

    def test_drawn_generator_is_reset(self, monkeypatch):
        channel = airspace.AwgnChannel(self.SNR_DB, 11)
        self.receptions(monkeypatch, [channel], 2)
        rng = channel._rng
        rng.integers(0, 1000, dtype=np.uint32)  # leaves half a 64-bit word buffered
        assert rng.bit_generator.state["has_uint32"] == 1
        got, drawn = self.receptions(monkeypatch, [channel], 3, start=2)
        self.check(monkeypatch, 11, got, drawn, start=2)  # noise indices 3, 4 and 5

    def test_interleaved_channels_draw_what_each_draws_alone(self, monkeypatch):
        monkeypatch.setattr(airspace, "NOISE_BLOCK", 4)
        seeds = (3, 2**40 + 7)

        def outcomes(got, drawn):
            return got, [(state, noisy.tobytes()) for state, _, noisy in drawn]

        alone = [outcomes(*self.receptions(
                     monkeypatch, [airspace.AwgnChannel(self.SNR_DB, seed)], 10))
                 for seed in seeds]
        got, drawn = self.receptions(
            monkeypatch, [airspace.AwgnChannel(self.SNR_DB, seed) for seed in seeds], 10)
        assert [outcomes(got[i::2], drawn[i::2]) for i in (0, 1)] == alone
