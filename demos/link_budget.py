#!/usr/bin/env python3
"""Push frames through the two waveform modems and measure where they break.

First a sanity loopback at infinite SNR, then a packet-loss sweep through
the additive-noise channel using the full detect/demodulate/parity chain.
The sweep reuses identical noise draws at every SNR so the curve moves for
one reason only.
"""

import numpy as np

from tcassim import harness, load_scenario, phy

rng = np.random.default_rng(42)

print("=== noiseless loopback, 200 random frames per modem ===")
ppm = dbpsk = 0
for _ in range(200):
    bits = rng.integers(0, 2, rng.choice([56, 112]))
    blk = phy.ppm_modulate(bits)
    det = phy.ppm_frame_detect(blk)[0]
    ppm += int((phy.ppm_demodulate(blk, det.offset, bits.size) != bits).sum())
    blk = phy.dbpsk_modulate(bits)
    det = phy.dbpsk_frame_detect(blk)[0]
    out = phy.dbpsk_demodulate(blk, phy.sync_offset_of(det.offset))
    dbpsk += int((out[:bits.size] != bits).sum())
print(f"PPM reply modem bit errors:          {ppm}")
print(f"DBPSK interrogation modem bit errors: {dbpsk}")

# Loss sweep wants a scenario only for its channel config and seed.
scenario = load_scenario({
    "schema_version": 1, "name": "bench", "duration_s": 1.0, "seed": 42,
    "channel": {"kind": "awgn", "snr_db": 10.0},
    "aircraft": [{"name": "probe", "icao": "ABC123",
                  "position": {"x_nmi": 0.0, "y_nmi": 0.0, "altitude_ft": 30000.0}}],
})

print()
print("=== frame loss vs SNR, 600-frame corpus, paired noise ===")
points = harness.loss_sweep(scenario, [0, 2, 4, 6, 8, 10, 12, 15, 20, 25])
print(f"{'snr_db':>7} {'lost':>5} {'loss':>7}  ")
for p in points:
    bar = "#" * round(40 * p.loss_fraction)
    print(f"{p.snr_db:>7} {p.lost:>5} {p.loss_fraction:>7.3f}  {bar}")

usable = next(p.snr_db for p in points if p.loss_fraction < 0.01)
print()
print(f"link closes (under 1% loss) from {usable} dB up")
