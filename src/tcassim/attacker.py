"""Ground-station adversary: phantom aircraft injection and link flooding.

The phantom mission walks a fixed phase machine:

  recon -> baiting -> tracking -> threat_declared -> done

Recon enumerates traffic with all-calls and measures the chosen target by
round-trip timing.  Baiting broadcasts squitters for a fabricated address
until the target starts interrogating it.  Tracking answers those
interrogations with replies timed so the apparent range follows a scripted
closing profile: delaying a reply moves the phantom outward, and replying
*earlier* than line-of-sight allows requires predicting the next
interrogation from the learned surveillance period.  Once the scripted
geometry looks like an imminent threat the attacker declares it, attaches a
vertical restriction to every reply, and probes the target until its
transponder admits an active resolution advisory.  Reaching ``done`` that
way does not stop the transmissions: the phantom keeps flying so the induced
descent is sustained.  A mission that gives up baiting, as the target never
interrogated the phantom, goes silent instead: it stops baiting and watching
the target, and hears every interrogation as ``observed``.

Flood missions are simpler: all-call flooding solicits a reply from every
aircraft in range per interrogation, and squitter flooding fabricates a
never-repeating stream of addresses to saturate surveillance track tables.
"""

from __future__ import annotations

import statistics
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import pairwise

from . import modes_codec as codec
from .airspace import (
    NS_PER_S,
    TURNAROUND_NS,
    Entity,
    Position,
    SimError,
    World,
    propagation_delay_ns,
    round_trip_ns,
    rtt_to_range_nmi,
    separation_nmi,
)
from .tcas import TAU_TA_S

PHASES = ("recon", "baiting", "tracking", "threat_declared", "done")

MISSION_PHANTOM = "phantom"
MISSION_ALL_CALL_FLOOD = "all_call_flood"
MISSION_SQUITTER_FLOOD = "squitter_flood"
MISSIONS = (MISSION_PHANTOM, MISSION_ALL_CALL_FLOOD, MISSION_SQUITTER_FLOOD)

PERIOD_WINDOW = 5
PERIOD_JITTER_NS = 1_000  # spread beyond this means the cadence is not stable
INTEL_INTERVAL_NS = NS_PER_S // 4
INTEL_WINDOW = 8

# Read by the scenario loader too.
DEFAULT_BAIT_TIMEOUT_S = 20.0  # give up baiting if the target never answers


class InfeasibleReply(SimError):
    """The requested apparent range would need a reply before reception."""


def phantom_address(target_icao: int) -> int:
    """The address a phantom mission fabricates: the one just below its
    target's.  Target 0 has none, a SimError."""
    if target_icao == 0:
        raise SimError("target address 0 leaves no room for a phantom")
    return target_icao - 1


def compute_reply_delay(true_range_nmi: float, desired_range_nmi: float) -> int:
    """Extra hold beyond the nominal turnaround, in ns (may be negative).

    The victim attributes ``rtt - turnaround`` entirely to propagation, so
    holding the reply an extra ``2*(desired - true)/c`` shifts the apparent
    range to ``desired``.  Raises :class:`InfeasibleReply` when the total
    hold would be negative, i.e. the reply would have to leave before the
    interrogation arrives.
    """
    extra_ns = round_trip_ns(desired_range_nmi - true_range_nmi)
    if TURNAROUND_NS + extra_ns < 0:
        raise InfeasibleReply(
            f"apparent range {desired_range_nmi:.3f} nmi needs a reply "
            f"{-(TURNAROUND_NS + extra_ns)} ns before reception")
    return extra_ns


def fit_linear_track(samples: Sequence[tuple[int, float, float, float]],
                     at_ns: int) -> Position:
    """Least-squares straight-line fit of (t, x, y, alt) samples, evaluated
    at ``at_ns``.  Two points make a line; one is treated as stationary."""
    if not samples:
        raise SimError("no position intel")
    if len(samples) == 1:
        return samples[0][1:]
    t0 = samples[0][0]
    ts = [(s[0] - t0) / NS_PER_S for s in samples]
    t_mean = sum(ts) / len(ts)
    denom = sum((t - t_mean) ** 2 for t in ts)
    at = (at_ns - t0) / NS_PER_S
    out = []
    for axis in (1, 2, 3):
        vs = [s[axis] for s in samples]
        v_mean = sum(vs) / len(vs)
        slope = sum((t - t_mean) * (v - v_mean) for t, v in zip(ts, vs)) / denom
        out.append(v_mean + slope * (at - t_mean))
    return tuple(out)


@dataclass(frozen=True)
class PhantomPlan:
    """Scripted apparent geometry: a head-on intruder closing at a fixed
    rate, holding at a floor so the threat never ends on its own."""

    initial_range_nmi: float = 10.0
    closure_kt: float = 480.0
    floor_nmi: float = 0.5
    altitude_ft: float = 41_400.0

    def desired_range_nmi(self, dt_s: float) -> float:
        return max(self.floor_nmi, self.initial_range_nmi - self.closure_kt * dt_s / 3600.0)


@dataclass(frozen=True)
class FloodPlan:
    """A flood's cadence and its count of ``frames``; a squitter flood's
    frames carry the fabricated addresses ``address_base``, ``address_base + 1``, ..."""

    rate_hz: float = 10.0
    duration_s: float = 10.0
    address_base: int = 0x500000

    @property
    def period_ns(self) -> int:
        return round(NS_PER_S / self.rate_hz)

    @property
    def frames(self) -> int:
        """Frames sent, at 0, ``period_ns``, 2 * ``period_ns``, ... before ``duration_s``."""
        return -(-round(self.duration_s * NS_PER_S) // self.period_ns)


class Attacker:
    """Software-defined ground transmitter; one instance, one mission.  A
    phantom mission attacks its ``target`` aircraft and watches its motion."""

    def __init__(self, name: str, position: Position, *,
                 mission: str = MISSION_PHANTOM,
                 target: Entity | None = None,
                 plan: PhantomPlan = PhantomPlan(),
                 bait_timeout_s: float = DEFAULT_BAIT_TIMEOUT_S,
                 flood: FloodPlan = FloodPlan()):
        if mission not in MISSIONS:
            raise SimError(f"unknown mission {mission!r}")
        self.phantom_icao: int | None = None
        if mission == MISSION_PHANTOM:
            if target is None:
                raise SimError("phantom mission needs a target aircraft")
            self.phantom_icao = phantom_address(codec.validate_icao(target.icao))
        self.name = name
        self.icao: int | None = None  # no transponder identity of its own
        self.mission = mission
        self.target = target
        self.plan = plan
        self.bait_timeout_s = bait_timeout_s
        self.flood = flood
        self.position = position
        self.phase = "recon"
        self._intel: deque[tuple[int, float, float, float]] = deque(maxlen=INTEL_WINDOW)
        self._recon_pending_ns: int | None = None
        self._est_tx: deque[int] = deque(maxlen=PERIOD_WINDOW + 1)
        self._plan_t0_ns: int | None = None
        self._last_uplink_code = codec.UF_SURVEILLANCE_SHORT
        self._predicted_for_ns: int | None = None
        self._period_unstable_logged = False
        self._flood_sent = 0

    # -- entity surface ------------------------------------------------------

    def position_at(self, time_ns: int) -> Position:
        return self.position

    def start(self, world: World, phase_ns: int = 0) -> None:
        now = world.time_ns + phase_ns
        if self.mission == MISSION_PHANTOM:
            self._note(world, "phase", "recon")
            world.schedule_timer(now, self, "recon")
            world.schedule_timer(now, self, "intel")
        else:
            world.note(self, "*", "phase", self.mission)
            world.schedule_timer(now, self, "flood")

    def on_timer(self, world: World, timer: str, data: dict) -> None:
        handler = getattr(self, f"_timer_{timer}", None)
        if handler is None:
            raise SimError(f"unknown timer {timer!r}")
        handler(world, data)

    def on_frame(self, world: World, frame: codec.ModeSFrame, rx_time_ns: int) -> str:
        if frame.direction == codec.UPLINK:
            return self._on_uplink(world, frame, rx_time_ns)
        return self._on_downlink(world, frame, rx_time_ns)

    # -- intel ----------------------------------------------------------------

    def _timer_intel(self, world: World, data: dict) -> None:
        if self._gave_up:
            return
        self._intel.append((world.time_ns, *self.target.position_at(world.time_ns)))
        world.schedule_timer(world.time_ns + INTEL_INTERVAL_NS, self, "intel")

    def _target_distance_nmi(self, at_ns: int) -> float:
        return separation_nmi(self.position, fit_linear_track(self._intel, at_ns))

    # -- phase machine ---------------------------------------------------------

    @property
    def _gave_up(self) -> bool:
        """Baiting timed out: the one way to ``done`` that never set ``_plan_t0_ns``."""
        return self.phase == "done" and self._plan_t0_ns is None

    def _note(self, world: World, name: str, /, *args, **params) -> None:
        """Log a phantom mission's note, about its target."""
        world.note(self, f"{self.target.icao:06x}", name, *args, **params)

    def _enter(self, world: World, phase: str, /, *detail, **params) -> None:
        """Move on to ``phase`` unless already there or past it; ``detail``,
        a note's name and args, is logged with ``params`` right after."""
        if PHASES.index(phase) <= PHASES.index(self.phase):
            return
        self.phase = phase
        self._note(world, "phase", phase)
        if detail:
            self._note(world, *detail, **params)
        if phase == "baiting":
            world.schedule_timer(world.time_ns, self, "bait")
            world.schedule_timer(
                world.time_ns + round(self.bait_timeout_s * NS_PER_S), self, "bait_check")
        elif phase == "threat_declared":
            world.schedule_timer(world.time_ns + NS_PER_S, self, "probe")

    # -- recon ------------------------------------------------------------------

    def _timer_recon(self, world: World, data: dict) -> None:
        if self.phase != "recon":
            return
        world.schedule_transmit(world.time_ns, self, codec.build_interrogation("all_call"))
        world.schedule_timer(world.time_ns + NS_PER_S, self, "recon")

    # -- baiting -----------------------------------------------------------------

    def _timer_bait(self, world: World, data: dict) -> None:
        if self._gave_up:
            return
        frame = codec.build_reply("extended_squitter", self.phantom_icao,
                                  altitude_ft=self.plan.altitude_ft)
        world.schedule_transmit(world.time_ns, self, frame)
        world.schedule_timer(world.time_ns + NS_PER_S, self, "bait")

    def _timer_bait_check(self, world: World, data: dict) -> None:
        if self.phase == "baiting":
            self._note(world, "bait_timeout")
            self._enter(world, "done")

    # -- evidence probing ----------------------------------------------------------

    def _timer_probe(self, world: World, data: dict) -> None:
        frame = codec.build_interrogation(
            "surveillance_long", self.target.icao,
            rac=codec.RAC_DO_NOT_PASS_ABOVE, ra_active=True, sender=self.phantom_icao)
        world.schedule_transmit(world.time_ns, self, frame)
        world.schedule_timer(world.time_ns + NS_PER_S, self, "probe")

    # -- floods ----------------------------------------------------------------------

    def _timer_flood(self, world: World, data: dict) -> None:
        if self._flood_sent == self.flood.frames:
            world.note(self, "*", "flood_complete")
            return
        if self.mission == MISSION_ALL_CALL_FLOOD:
            frame = codec.build_interrogation("all_call")
        else:
            frame = codec.build_reply("extended_squitter", self.flood.address_base
                                      + self._flood_sent, altitude_ft=15_000)
        self._flood_sent += 1
        world.schedule_transmit(world.time_ns, self, frame)
        world.schedule_timer(world.time_ns + self.flood.period_ns, self, "flood")

    # -- frame handling ------------------------------------------------------------------

    def _on_uplink(self, world: World, frame: codec.ModeSFrame, rx_time_ns: int) -> str:
        if self.mission != MISSION_PHANTOM or self.phase == "recon" or self._gave_up:
            return "observed"
        decoded = codec.parse_frame(frame, expected_address=self.phantom_icao)
        # only an attacker sends all-calls, and a world holds one attacker
        if decoded.kind in ("unknown", "all_call"):
            return "observed"
        if not decoded.parity.passed:
            return "not_phantom"
        self._last_uplink_code = decoded.format_code
        self._enter(world, "tracking")
        if decoded.fields.get("ra_active") and self.phase == "threat_declared":
            self._enter(world, "done", "evidence", "target_ra_active")
        return self._handle_phantom_interrogation(world, rx_time_ns)

    def _on_downlink(self, world: World, frame: codec.ModeSFrame, rx_time_ns: int) -> str:
        decoded = codec.parse_frame(frame)
        if decoded.kind == "unknown":
            return "observed"
        code = decoded.format_code
        if self.mission != MISSION_PHANTOM:
            return "flood_reply" if code == codec.DF_ALL_CALL_REPLY else "observed"
        if code == codec.DF_ALL_CALL_REPLY and self.phase == "recon":
            if decoded.fields["icao"] == self.target.icao:
                self._recon_pending_ns = world.time_ns
                probe = codec.build_interrogation("surveillance_short", self.target.icao)
                world.schedule_transmit(world.time_ns, self, probe)
                return "target_sighted"
            return "observed"
        if code in (codec.DF_SURVEILLANCE_SHORT, codec.DF_SURVEILLANCE_LONG):
            if decoded.parity.recovered_address != self.target.icao:
                return "observed"
            if self.phase == "recon" and self._recon_pending_ns is not None:
                rng = rtt_to_range_nmi(rx_time_ns - self._recon_pending_ns)
                self._recon_pending_ns = None
                self._enter(world, "baiting",
                            "recon", range=f"{rng:.3f}", alt=decoded.altitude_ft)
                return "target_measured"
            if code == codec.DF_SURVEILLANCE_LONG and decoded.fields["ra_active"]:
                if self.phase == "threat_declared":
                    self._enter(world, "done", "evidence", "target_ra_active")
                return "evidence"
            return "observed"
        return "observed"

    # -- phantom ranging ---------------------------------------------------------------

    def _spacings_ns(self) -> list[int]:
        """Gaps between the reconstructed interrogation instants."""
        return [b - a for a, b in pairwise(self._est_tx)]

    def surveillance_period_ns(self) -> int | None:
        """Median spacing of the reconstructed interrogation instants."""
        diffs = self._spacings_ns()
        return round(statistics.median(diffs)) if diffs else None

    def _desired_range_nmi(self, at_tx_ns: int) -> float:
        return self.plan.desired_range_nmi((at_tx_ns - self._plan_t0_ns) / NS_PER_S)

    def _spoof_frame(self) -> codec.ModeSFrame:
        if self._last_uplink_code == codec.UF_SURVEILLANCE_LONG:
            rac = (codec.RAC_DO_NOT_PASS_ABOVE
                   if self.phase in ("threat_declared", "done") else codec.RAC_NONE)
            return codec.build_reply("surveillance_long", self.phantom_icao,
                                     altitude_ft=self.plan.altitude_ft,
                                     rac=rac, ra_active=rac != codec.RAC_NONE)
        return codec.build_reply("surveillance_short", self.phantom_icao,
                                 altitude_ft=self.plan.altitude_ft)

    def _handle_phantom_interrogation(self, world: World, rx_time_ns: int) -> str:
        true_range = self._target_distance_nmi(rx_time_ns)
        est_tx = rx_time_ns - propagation_delay_ns(true_range)
        if self._plan_t0_ns is None:
            self._plan_t0_ns = est_tx
        self._est_tx.append(est_tx)
        period = self.surveillance_period_ns()
        if period is not None and not self._period_unstable_logged:
            diffs = self._spacings_ns()
            if max(diffs) - min(diffs) > PERIOD_JITTER_NS:
                self._period_unstable_logged = True
                self._note(world, "period_unstable")

        desired = self._desired_range_nmi(est_tx)
        # declare once the scripted geometry crosses the traffic-advisory gate
        if desired <= self.plan.closure_kt * TAU_TA_S / 3600.0:
            self._enter(world, "threat_declared")

        covered = (self._predicted_for_ns is not None and period is not None
                   and abs(est_tx - self._predicted_for_ns) < period // 2)
        disposition = "spoof_predicted" if covered else "spoof_replied"
        if covered:
            self._predicted_for_ns = None
        else:
            try:
                extra = compute_reply_delay(true_range, desired)
            except InfeasibleReply:
                self._note(world, "reactive_infeasible")
                disposition = "spoof_missed"
            else:
                world.schedule_transmit(rx_time_ns + TURNAROUND_NS + extra, self,
                                        self._spoof_frame())
        if period is not None:
            self._arm_prediction(world, est_tx + period)
        return disposition

    def _arm_prediction(self, world: World, next_tx_ns: int) -> None:
        """Pre-position a reply for the next interrogation when reacting to
        it would be too late to fake a close phantom."""
        desired = self._desired_range_nmi(next_tx_ns)
        arrival_guess = next_tx_ns + TURNAROUND_NS + 2 * propagation_delay_ns(desired)
        dist = self._target_distance_nmi(arrival_guess)
        try:
            compute_reply_delay(dist, desired)
            return  # reaction will still work next round
        except InfeasibleReply:
            pass
        # the victim's clock fixes the required arrival instant; transmit
        # early enough that the wave covers the real distance by then
        tx_time = arrival_guess - propagation_delay_ns(dist)
        if tx_time <= world.time_ns:
            return
        world.schedule_transmit(tx_time, self, self._spoof_frame())
        self._predicted_for_ns = next_tx_ns
        self._note(world, "predictive_armed", tx=tx_time)
