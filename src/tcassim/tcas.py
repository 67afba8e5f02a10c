"""Collision-avoidance unit, transponder behaviour, and encounter geometry.

One :class:`Aircraft` couples four things onto the event fabric: linear
kinematics, a transponder that answers interrogations after the fixed
turnaround, surveillance and threat logic, and a pilot model that flies the
issued advisories after a reaction delay.  The aircraft holds its own track
table and advisory, with no separate unit referring back to it.

Ranging is round-trip timing: each track remembers when its unanswered
round was sent, and the first plausible reply converts into slant range.
Range rate is the finite difference of consecutive ranges; tau is range over
closure.  :func:`resolve` is the one home of the advisory rule: the inclusive
tau and altitude gates, and an RA's sense and limit.  An RA stays latched
until its threat has been diverging for three consecutive updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import modes_codec as codec
from .airspace import (
    FEET_PER_NMI,
    NS_PER_S,
    RECEPTION_RANGE_NMI,
    TURNAROUND_NS,
    AircraftState,
    Position,
    SimError,
    World,
    position_after,
    propagation_delay_ns,
    rtt_to_range_nmi,
    step_kinematics,
)

DEFAULT_SURVEILLANCE_PERIOD_S = 1.0  # one ranging round per track per second

TAU_TA_S = 48.0
TAU_RA_S = 35.0
ALT_GATE_TA_FT = 1200.0
ALT_GATE_RA_FT = 600.0  # also the vertical clearance an advisory aims for

MISS_LIMIT = 6
TRACK_CAPACITY = 30
DIVERGENCE_RATE_KT = 50.0
DIVERGENCE_STREAK = 3

CLIMB = "climb"
DESCEND = "descend"

# replies arriving outside this round-trip window cannot be line-of-sight
_MAX_RTT_NS = TURNAROUND_NS + 2 * propagation_delay_ns(RECEPTION_RANGE_NMI) + 1000

MODE_STANDBY = "standby"    # radio silent
MODE_XPDR = "xpdr"          # transponder only: replies and squitters
MODE_TA_ONLY = "ta_only"    # surveillance and traffic advisories
MODE_TA_RA = "ta_ra"        # full unit, resolution advisories included
MODES = (MODE_STANDBY, MODE_XPDR, MODE_TA_ONLY, MODE_TA_RA)


def surveillance_interval_ns(period_s: float) -> int:
    """Tick spacing of a surveillance period; it must be finite and round
    to at least 1 ns, or the tick would re-arm at the same instant forever."""
    scaled = period_s * NS_PER_S
    interval = round(scaled) if -math.inf < scaled < math.inf else 0  # not inf or NaN
    if interval <= 0:
        raise SimError(f"surveillance period must be finite and at least 1 ns, got {period_s} s")
    return interval


def range_rate_kt(r0_nmi: float, t0_ns: int, r1_nmi: float, t1_ns: int) -> float:
    if t1_ns <= t0_ns:
        raise SimError("range samples out of order")
    return (r1_nmi - r0_nmi) / ((t1_ns - t0_ns) / (3600 * NS_PER_S))


def tau_s(range_nmi: float, rate_kt: float) -> float:
    """Time to closest approach under constant closure; inf when diverging."""
    if rate_kt >= 0:
        return math.inf
    return range_nmi / (-rate_kt) * 3600.0


def resolve(may_ra: bool, own_alt_ft: float, intruder_alt_ft: float, tau: float,
            received_rac: int, latched: bool = False) -> tuple:
    """The advisory an intruder warrants: ``("ra", sense, limit)``,
    ``("ta", None, None)`` or ``(None, None, None)``.  The gates are
    inclusive: a new RA needs ``may_ra``, TAU_RA_S and ALT_GATE_RA_FT, a TA
    TAU_TA_S and ALT_GATE_TA_FT; an RA ``latched`` against this intruder
    skips them.  The sense is the one the intruder's complement asks for,
    else away from its altitude, climbing on a tie; the limit is
    ALT_GATE_RA_FT past its altitude."""
    gap_ft = abs(own_alt_ft - intruder_alt_ft)
    if latched or (may_ra and tau <= TAU_RA_S and gap_ft <= ALT_GATE_RA_FT):
        if received_rac == codec.RAC_DO_NOT_PASS_ABOVE:
            return "ra", DESCEND, intruder_alt_ft - ALT_GATE_RA_FT
        if received_rac == codec.RAC_DO_NOT_PASS_BELOW or own_alt_ft >= intruder_alt_ft:
            return "ra", CLIMB, intruder_alt_ft + ALT_GATE_RA_FT
        return "ra", DESCEND, intruder_alt_ft - ALT_GATE_RA_FT
    if tau <= TAU_TA_S and gap_ft <= ALT_GATE_TA_FT:
        return "ta", None, None
    return None, None, None


@dataclass
class Advisory:
    sense: str
    limit_alt_ft: float
    threat_icao: int
    diverging: int = 0  # consecutive range updates with the threat diverging


@dataclass
class Track:
    icao: int
    status: str = "acquiring"  # acquiring | tracked | ta: long rounds, never evicted
    altitude_ft: float | None = None
    range_nmi: float | None = None
    range_time_ns: int | None = None
    rate_kt: float | None = None
    miss_count: int = 0
    received_rac: int = codec.RAC_NONE
    interrogated_ns: int | None = None  # when the unanswered round was sent


@dataclass(frozen=True)
class PilotModel:
    """Reaction delay before an advisory is flown, and the rate it is flown at."""

    delay_s: float = 5.0
    rate_fpm: float = 1500.0


class Aircraft:
    """Transponder-equipped aircraft with optional collision avoidance.

    Its surveillance state is its own: ``tracks`` (address -> track, each
    holding its unanswered round) and ``advisory``, the one resolution
    advisory, which names its threat.  An unequipped aircraft keeps them
    empty, so it broadcasts RAC_NONE and never has an RA active.
    """

    def __init__(self, name: str, icao: int, state: AircraftState, *,
                 mode: str = MODE_TA_RA, pilot: PilotModel | None = None,
                 squitter: bool = True,
                 surveillance_period_s: float = DEFAULT_SURVEILLANCE_PERIOD_S):
        codec.validate_icao(icao)
        if mode not in MODES:
            raise SimError(f"unknown equipment mode {mode!r}")
        self.name = name
        self.icao = icao
        self.mode = mode
        self.pilot = pilot or PilotModel()
        self.squitter = squitter
        self.surveillance_interval_ns = surveillance_interval_ns(surveillance_period_s)
        # the trajectory as (start_ns, state) knots, each extrapolated
        # linearly until the next; a manoeuvre appends one
        self.segments: list[tuple[int, AircraftState]] = [(0, state)]
        self.equipped = mode in (MODE_TA_ONLY, MODE_TA_RA)  # surveils and advises
        self.tracks: dict[int, Track] = {}
        self.advisory: Advisory | None = None
        self._pilot_generation = 0

    # -- kinematics ----------------------------------------------------------

    def state_at(self, time_ns: int) -> AircraftState:
        t0_ns, state = self.segments[-1]
        return step_kinematics(state, (time_ns - t0_ns) / NS_PER_S)

    def position_at(self, time_ns: int) -> Position:
        t0_ns, state = self.segments[-1]
        return position_after(state, (time_ns - t0_ns) / NS_PER_S)

    def _set_motion(self, world: World, *, vertical_rate_fpm: float,
                    altitude_ft: float | None = None) -> None:
        s = self.state_at(world.time_ns)
        self.segments.append((world.time_ns, AircraftState(
            s.x_nmi, s.y_nmi, s.altitude_ft if altitude_ft is None else altitude_ft,
            s.vx_kt, s.vy_kt, vertical_rate_fpm)))

    # -- transponder-facing state -----------------------------------------

    @property
    def ra_active(self) -> bool:
        return self.advisory is not None

    def broadcast_rac(self) -> int:
        """Complement our own manoeuvre: climbing restricts others from
        passing above us, descending from passing below us."""
        if self.advisory is None:
            return codec.RAC_NONE
        return (codec.RAC_DO_NOT_PASS_ABOVE if self.advisory.sense == CLIMB
                else codec.RAC_DO_NOT_PASS_BELOW)

    # -- surveillance cadence ----------------------------------------------

    def tick(self, world: World) -> None:
        """One surveillance round: interrogate every track, in address
        order, as one transmit event."""
        frames = []
        for icao in sorted(self.tracks):
            track = self.tracks[icao]
            if track.interrogated_ns is not None:  # last round went unanswered
                track.miss_count += 1
                if track.miss_count >= MISS_LIMIT:
                    self._drop(world, track, "miss_limit")
                    continue
            if track.status == "ta":
                frame = codec.build_interrogation(
                    "surveillance_long", icao, rac=self.broadcast_rac(),
                    ra_active=self.ra_active, sender=self.icao)
            else:
                frame = codec.build_interrogation("surveillance_short", icao)
            track.interrogated_ns = world.time_ns
            frames.append(frame)
        if frames:
            world.schedule_transmit(world.time_ns, self, *frames)

    def _drop(self, world: World, track: Track, why: str) -> None:
        del self.tracks[track.icao]
        world.note(self, f"{track.icao:06x}", "track_drop", why)
        if self.advisory is not None and self.advisory.threat_icao == track.icao:
            self._clear_advisory(world, "track_lost")

    # -- ingest ------------------------------------------------------------

    def on_downlink(self, world: World, frame: codec.ModeSFrame, rx_time_ns: int) -> str:
        kind, overlay, icao = codec.frame_seal(frame)
        if kind is None:
            return "unsupported"
        if overlay is not None:  # DF11/DF17: broadcast, the address in the clear
            decoded = codec.parse_frame(frame)
            if not decoded.parity.passed:
                return "parity_drop"
            icao = decoded.fields["icao"]
            if icao == self.icao:
                return "own_address"
            return self._acquire(world, icao, decoded.altitude_ft)
        # DF4/DF20: sealed with the address of the aircraft that replied
        track = self.tracks.get(icao)
        if track is None or track.interrogated_ns is None:
            return "unmatched_reply"
        decoded = codec.parse_frame(frame)
        rtt = rx_time_ns - track.interrogated_ns
        if not TURNAROUND_NS < rtt <= _MAX_RTT_NS:
            return "implausible_rtt"
        track.interrogated_ns = None
        self.receive_rac(world, icao, decoded.fields.get("rac", codec.RAC_NONE))
        self._range_update(world, track, rtt, decoded.altitude_ft)
        return "range_update"

    def receive_rac(self, world: World, sender: int, rac: int) -> None:
        """A resolution complement from ``sender``, carried by its long
        interrogation or reply; RAC_NONE carries nothing."""
        track = self.tracks.get(sender)
        if rac == codec.RAC_NONE or track is None:
            return
        if rac == track.received_rac:
            return
        track.received_rac = rac
        world.note(self, f"{sender:06x}", "rac_received", rac)
        adv = self.advisory
        if adv is None or adv.threat_icao != sender or rac == codec.RAC_CONTRADICTORY:
            return
        _, sense, limit = resolve(False, self.position_at(world.time_ns)[2],
                                  track.altitude_ft, math.inf, rac, latched=True)
        if sense != adv.sense and sender < self.icao:
            # the lower address is the coordination master; follow it
            self._issue_advisory(world, track, sense, limit, reversal=True)

    # -- track table -------------------------------------------------------

    def _acquire(self, world: World, icao: int, altitude_ft: float | None) -> str:
        track = self.tracks.get(icao)
        if track is not None:
            if altitude_ft is not None:
                track.altitude_ft = altitude_ft
            return "known"
        if len(self.tracks) >= TRACK_CAPACITY and not self._evict(world):
            return "table_full"
        self.tracks[icao] = Track(icao, altitude_ft=altitude_ft)
        world.note(self, f"{icao:06x}", "track_new")
        return "acquired"

    def _evict(self, world: World) -> bool:
        """Shed the least pressing track: the one farthest out, treating
        never-ranged tracks as closest.  Advisory tracks are untouchable."""
        candidates = [t for t in self.tracks.values() if t.status != "ta"]
        if not candidates:
            return False
        victim = max(candidates, key=lambda t: (0.0 if t.range_nmi is None else t.range_nmi,
                                                t.status == "acquiring", t.icao))
        self._drop(world, victim, "evicted")
        return True

    # -- threat logic --------------------------------------------------------

    def _range_update(self, world: World, track: Track, rtt_ns: int, altitude_ft: int) -> None:
        now = world.time_ns
        rng = rtt_to_range_nmi(rtt_ns)
        if track.range_time_ns is not None:
            track.rate_kt = range_rate_kt(track.range_nmi, track.range_time_ns, rng, now)
        track.range_nmi = rng
        track.range_time_ns = now
        track.miss_count = 0
        track.altitude_ft = altitude_ft  # DF4 and DF20 both carry one
        if track.status == "acquiring":
            track.status = "tracked"
        rate_repr = "none" if track.rate_kt is None else f"{track.rate_kt:.3f}"
        world.note(self, f"{track.icao:06x}", "range", range=f"{rng:.6f}", rate=rate_repr)
        self._evaluate(world, track)

    def _evaluate(self, world: World, track: Track) -> None:
        adv = self.advisory
        if adv is not None and adv.threat_icao == track.icao:
            # latched: only a sustained divergence clears it
            if track.rate_kt is not None and track.rate_kt >= DIVERGENCE_RATE_KT:
                adv.diverging += 1
                if adv.diverging >= DIVERGENCE_STREAK:
                    track.status = "tracked"
                    self._clear_advisory(world, "clear_of_conflict")
            else:
                adv.diverging = 0
            return
        tau = math.inf if track.rate_kt is None else tau_s(track.range_nmi, track.rate_kt)
        level, sense, limit = resolve(self.mode == MODE_TA_RA and adv is None,
                                      self.position_at(world.time_ns)[2], track.altitude_ft,
                                      tau, track.received_rac)
        if level == "ra":
            track.status = "ta"
            self._issue_advisory(world, track, sense, limit, reversal=False)
        elif level == "ta":
            if track.status != "ta":
                track.status = "ta"
                world.note(self, f"{track.icao:06x}", "ta_issued")
        elif track.status == "ta":
            track.status = "tracked"
            world.note(self, f"{track.icao:06x}", "ta_cleared")

    def _issue_advisory(self, world: World, track: Track, sense: str, limit: float, *,
                        reversal: bool) -> None:
        self.advisory = Advisory(sense, limit, track.icao)
        what = "ra_reversal" if reversal else "ra_issued"
        world.note(self, f"{track.icao:06x}", what, sense, limit=f"{limit:.0f}")
        self.fly_advisory(world)

    def _clear_advisory(self, world: World, why: str) -> None:
        adv = self.advisory
        self.advisory = None
        world.note(self, f"{adv.threat_icao:06x}", "ra_cleared", why)
        self.level_off_now(world)

    # -- lifecycle -----------------------------------------------------------

    def start(self, world: World, phase_ns: int = 0) -> None:
        """Arm the periodic broadcasts; call once after registration."""
        if self.squitter and self.mode != MODE_STANDBY:
            world.schedule_timer(world.time_ns + phase_ns, self, "squitter")
        if self.equipped:
            world.schedule_timer(
                world.time_ns + phase_ns + self.surveillance_interval_ns // 2,
                self, "tick")

    def on_timer(self, world: World, timer: str, generation: int) -> None:
        if timer == "squitter":
            alt = self.position_at(world.time_ns)[2]
            frame = codec.build_reply("extended_squitter", self.icao, altitude_ft=alt)
            world.schedule_transmit(world.time_ns, self, frame)
            world.schedule_timer(world.time_ns + NS_PER_S, self, "squitter")
        elif timer == "tick":
            self.tick(world)
            world.schedule_timer(
                world.time_ns + self.surveillance_interval_ns, self, "tick")
        elif timer == "pilot_engage":
            self._pilot_engage(world, generation)
        elif timer == "pilot_level":
            if generation == self._pilot_generation:
                limit = self.advisory.limit_alt_ft
                self._set_motion(world, vertical_rate_fpm=0.0, altitude_ft=limit)
                world.note(self, "-", "level_off", alt=f"{limit:.0f}")
        else:
            raise SimError(f"unknown timer {timer!r}")

    # -- pilot ----------------------------------------------------------------

    def fly_advisory(self, world: World) -> None:
        """Fly the held ``advisory`` after the reaction delay.  Its timers
        carry only the pilot generation, which a new or cleared advisory
        moves on, so a timer still current flies the advisory it was set for."""
        self._pilot_generation += 1
        delay = round(self.pilot.delay_s * NS_PER_S)
        world.schedule_timer(world.time_ns + delay, self, "pilot_engage", self._pilot_generation)

    def _pilot_engage(self, world: World, generation: int) -> None:
        if generation != self._pilot_generation:
            return
        rate = self.pilot.rate_fpm if self.advisory.sense == CLIMB else -self.pilot.rate_fpm
        limit = self.advisory.limit_alt_ft
        alt = self.position_at(world.time_ns)[2]
        if (rate < 0 and alt <= limit) or (rate > 0 and alt >= limit):
            world.note(self, "-", "already_compliant")
            return
        self._set_motion(world, vertical_rate_fpm=rate)
        world.note(self, "-", "engage", rate=f"{rate:.0f}")
        to_go_ft = abs(limit - alt)
        cross_ns = world.time_ns + round(to_go_ft / abs(rate) * 60 * NS_PER_S)
        world.schedule_timer(cross_ns, self, "pilot_level", generation)

    def level_off_now(self, world: World) -> None:
        self._pilot_generation += 1
        if self.segments[-1][1].vertical_rate_fpm != 0.0:
            self._set_motion(world, vertical_rate_fpm=0.0)
            world.note(self, "-", "level_off", "cleared")

    # -- radio ------------------------------------------------------------------

    def on_frame(self, world: World, frame: codec.ModeSFrame, rx_time_ns: int) -> str:
        if frame.direction == codec.UPLINK:
            return self._on_interrogation(world, frame, rx_time_ns)
        if not self.equipped:
            return "ignored"
        return self.on_downlink(world, frame, rx_time_ns)

    def _on_interrogation(self, world: World, frame: codec.ModeSFrame,
                          rx_time_ns: int) -> str:
        if self.mode == MODE_STANDBY:
            return "standby"
        kind, overlay, recovered = codec.frame_seal(frame, self.icao)
        if kind is None:
            return "unsupported"
        if recovered != overlay:
            return "not_addressed"
        decoded = codec.parse_frame(frame, expected_address=self.icao)
        alt = self.position_at(rx_time_ns)[2]
        reply_time = rx_time_ns + TURNAROUND_NS
        if decoded.format_code == codec.UF_ALL_CALL:
            reply = codec.build_reply("all_call", self.icao)
        elif decoded.format_code == codec.UF_SURVEILLANCE_SHORT:
            reply = codec.build_reply("surveillance_short", self.icao, altitude_ft=alt)
        else:  # long surveillance: reply carries our advisory state back
            reply = codec.build_reply("surveillance_long", self.icao, altitude_ft=alt,
                                      rac=self.broadcast_rac(), ra_active=self.ra_active)
            self.receive_rac(world, decoded.fields["sender"], decoded.fields["rac"])
        world.schedule_transmit(reply_time, self, reply)
        return "replied"


# -- encounter geometry --------------------------------------------------------

NMAC_DZ_FT = 100.0
NMAC_DXY_FT = 500.0


def _quadratic_interval(a: float, b: float, c: float,
                        lo: float, hi: float) -> tuple[float, float] | None:
    """Solve a*t^2 + b*t + c <= 0 on [lo, hi] (a >= 0)."""
    if a == 0.0:
        if b == 0.0:
            return (lo, hi) if c <= 0 else None
        root = -c / b
        seg = (lo, min(hi, root)) if b > 0 else (max(lo, root), hi)
        return seg if seg[0] <= seg[1] else None
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    sq = math.sqrt(disc)
    t0, t1 = (-b - sq) / (2 * a), (-b + sq) / (2 * a)
    seg = (max(lo, t0), min(hi, t1))
    return seg if seg[0] <= seg[1] else None


def _abs_linear_interval(v0: float, dv: float, bound: float,
                         lo: float, hi: float) -> tuple[float, float] | None:
    """Solve |v0 + dv*t| <= bound on [lo, hi]."""
    if dv == 0.0:
        return (lo, hi) if abs(v0) <= bound else None
    t0, t1 = sorted(((-bound - v0) / dv, (bound - v0) / dv))
    seg = (max(lo, t0), min(hi, t1))
    return seg if seg[0] <= seg[1] else None


def nmac_intervals(segs_a: list[tuple[int, AircraftState]],
                   segs_b: list[tuple[int, AircraftState]],
                   t_end_ns: int) -> list[tuple[int, int]]:
    """Exact near-mid-air windows for two piecewise-linear trajectories.

    Segments are (start_ns, state) knots, as ``Aircraft.segments`` keeps
    them; each knot's state extrapolates linearly until the next knot.
    Solving the per-segment quadratics analytically means no sampling grid
    can step over a sub-second crossing.
    """
    bounds = sorted({t for t, _ in segs_a} | {t for t, _ in segs_b} | {t_end_ns})
    bounds = [t for t in bounds if t <= t_end_ns]

    def state_on(segs, t_ns):
        ref_t, ref_s = segs[0]
        for t, s in segs:
            if t <= t_ns:
                ref_t, ref_s = t, s
        return step_kinematics(ref_s, (t_ns - ref_t) / NS_PER_S)

    out: list[tuple[int, int]] = []
    r_nmi = NMAC_DXY_FT / FEET_PER_NMI
    for lo_ns, hi_ns in zip(bounds, bounds[1:]):
        sa, sb = state_on(segs_a, lo_ns), state_on(segs_b, lo_ns)
        span = (hi_ns - lo_ns) / NS_PER_S
        dx = sa.x_nmi - sb.x_nmi
        dy = sa.y_nmi - sb.y_nmi
        dvx = (sa.vx_kt - sb.vx_kt) / 3600.0
        dvy = (sa.vy_kt - sb.vy_kt) / 3600.0
        dz = sa.altitude_ft - sb.altitude_ft
        dvz = (sa.vertical_rate_fpm - sb.vertical_rate_fpm) / 60.0
        horiz = _quadratic_interval(
            dvx * dvx + dvy * dvy, 2 * (dx * dvx + dy * dvy),
            dx * dx + dy * dy - r_nmi * r_nmi, 0.0, span)
        if horiz is None:
            continue
        vert = _abs_linear_interval(dz, dvz, NMAC_DZ_FT, horiz[0], horiz[1])
        if vert is None:
            continue
        on = lo_ns + round(vert[0] * NS_PER_S)
        off = lo_ns + round(vert[1] * NS_PER_S)
        if out and on <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], off))
        else:
            out.append((on, off))
    return out
