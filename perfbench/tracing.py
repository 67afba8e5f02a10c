"""Per-layer spans installed from outside the package.

Each span wraps one or more public functions or methods of a tcassim
module and counts calls and self time (its duration minus the time of the
spans it encloses).  A wrapper is installed at the name the caller looks
up: functions imported by name into another module are wrapped there, and
methods are wrapped on their class.  Installing spans changes no behaviour,
so a traced pass must reproduce the untraced pass's digests.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# span name -> (owner, attribute) pairs; owner is "module" or "module.Class"
SPANS = {
    "modes_codec.parse_frame": [("modes_codec", "parse_frame")],
    "modes_codec.build": [("modes_codec", "build_reply"),
                          ("modes_codec", "build_interrogation")],
    "modes_codec.to_hex": [("modes_codec.ModeSFrame", "to_hex")],
    "modes_codec.frame_bits": [("modes_codec.ModeSFrame", "bits"),
                               ("modes_codec.ModeSFrame", "from_bits")],
    "phy.modulate": [("phy", "ppm_modulate"), ("phy", "dbpsk_modulate")],
    "phy.awgn": [("phy", "awgn")],
    "phy.detect": [("phy", "ppm_frame_detect"), ("phy", "dbpsk_frame_detect")],
    "phy.demodulate": [("phy", "ppm_demodulate"), ("phy", "dbpsk_demodulate")],
    "airspace.run_until": [("airspace.World", "run_until")],
    "airspace.channel_receive": [("airspace.AwgnChannel", "receive"),
                                 ("airspace.NoiselessChannel", "receive")],
    "airspace.record": [("airspace.World", "record")],
    "airspace.step_kinematics": [("tcas", "step_kinematics")],
    "airspace.log_write": [("airspace", "write_event_log")],
    "airspace.log_read": [("airspace", "read_event_log")],
    "tcas.on_frame": [("tcas.Aircraft", "on_frame")],
    "tcas.on_timer": [("tcas.Aircraft", "on_timer")],
    "tcas.nmac_intervals": [("harness", "nmac_intervals")],
    "attacker.on_frame": [("attacker.Attacker", "on_frame")],
    "attacker.on_timer": [("attacker.Attacker", "on_timer")],
    "harness.simulate": [("harness", "simulate")],
    "harness.metrics_from_log": [("harness", "metrics_from_log")],
    "harness.loss_sweep": [("harness", "loss_sweep")],
    "scenario.load_scenario": [("scenario", "load_scenario")],
    "scenario.build_world": [("harness", "build_world")],
    "fta.sensitivity_sweep": [("fta", "sensitivity_sweep")],
    "fta.sweep_to_csv": [("fta", "sweep_to_csv")],
}

_ALL = set(SPANS)
_BY_MODULE = {m: {s for s in SPANS if s.startswith(m + ".")}
              for m in ("phy", "attacker", "fta")}

# Coverage prediction per workload: spans that must be called and spans
# that must never be called.  Spans in neither set are not asserted.
_RING_UNUSED = _BY_MODULE["attacker"] | _BY_MODULE["fta"] | {"harness.loss_sweep"}
EXPECT_UNUSED = {
    "ring_surveillance": _RING_UNUSED | _BY_MODULE["phy"] | {"modes_codec.frame_bits"},
    "ring_awgn": _RING_UNUSED,
    "attack_campaign": set(),
}
EXPECT_USED = {w: _ALL - unused for w, unused in EXPECT_UNUSED.items()}


class Tracer:
    """Call counts and self time per span, with the time outside all spans."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []  # enclosed child time per open span
        self._top = [0.0]  # total duration of outermost spans

    def wrap(self, name: str, fn):
        calls, self_s, stack, top = self.calls, self.self_s, self._stack, self._top
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt
                else:
                    top[0] += dt

        span.__perfbench_span__ = name
        return span

    def take(self) -> dict:
        """Counters since the last take, then reset."""
        out = {"calls": {s: self.calls.get(s, 0) for s in SPANS},
               "self_s": {s: self.self_s.get(s, 0.0) for s in SPANS},
               "spanned_s": self._top[0]}
        self.calls.clear()
        self.self_s.clear()
        self._top[0] = 0.0
        return out


def install(tracer: Tracer) -> None:
    """Wrap every span's functions in the imported tcassim package."""
    for name, sites in SPANS.items():
        for owner_path, attr in sites:
            module_name, _, cls_name = owner_path.partition(".")
            owner = importlib.import_module(f"tcassim.{module_name}")
            if cls_name:
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
            else:
                raw = getattr(owner, attr)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if hasattr(fn, "__perfbench_span__"):
                raise RuntimeError(f"{owner_path}.{attr} is already traced")
            wrapped = tracer.wrap(name, fn)
            setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
