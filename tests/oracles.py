"""Independent oracles used to freeze expected values in the test suite.

Everything here is deliberately written the slow, textbook way (bit lists,
exact rational arithmetic, whole-stream numpy) so it shares no code or
shortcuts with the package under test.  ``ReferenceWorld`` is one exception: it is an
``airspace.World`` whose event queue, fan-out and records are redone
here, so that a run can be replayed through it and compared.
``reference_loss_sweep`` is another: the loss sweep redone the plain way,
one ``AwgnChannel`` per SNR point, so the one-pass sweep can be compared.
``reference_metrics_from_log`` is the last: the report distilled by one loop
over the records themselves, so the column walk of ``metrics_from_log`` can
be compared.  ``reference_advisory`` spells the advisory rule out as tables
of literals and shares no threshold with ``tcas``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import numpy as np

from tcassim import modes_codec as codec
from tcassim.airspace import (LOSS_OUTCOMES, NOTE_READS, NOTES, NS_PER_S, RECEPTION_RANGE_NMI,
                              AwgnChannel, LogRecord, SimError, World, frame_airtime_ns, note,
                              parse_note)
from tcassim.harness import (LossPoint, MetricsReport, _corpus, _fill_plan_errors,
                             frame_label)
from tcassim.scenario import SUCCESS_PREDICATES

# 25-bit generator polynomial, MSB (x^24) explicit.
GENERATOR_BITS = [int(b) for b in format(0x1FFF409, "025b")]

SPEED_OF_LIGHT_M_S = 299_792_458
METERS_PER_NMI = 1852
FEET_PER_NMI = Fraction(1852 * 10000, 3048)  # 1852 m / 0.3048 m-per-ft


def crc24_long_division(body_bits: list[int]) -> int:
    """Bit-serial long division: remainder of body(x) * x^24 mod G(x).

    Works on a mutable copy of the message extended by 24 zero bits,
    exactly as one would do it by hand.
    """
    work = list(body_bits) + [0] * 24
    for i in range(len(body_bits)):
        if work[i]:
            for j, g in enumerate(GENERATOR_BITS):
                work[i + j] ^= g
    remainder = work[-24:]
    return int("".join(str(b) for b in remainder), 2)


def propagation_delay_ns(distance_nmi: Fraction | int | float) -> int:
    """Exact-rational propagation delay, rounded to the nearest nanosecond."""
    d = Fraction(distance_nmi) * METERS_PER_NMI
    ns = d * 1_000_000_000 / SPEED_OF_LIGHT_M_S
    return _round_nearest(ns)


def rtt_to_range_nmi(rtt_ns: int, turnaround_ns: int = 128_000) -> Fraction:
    """Range implied by a measured round trip, as an exact fraction of nmi."""
    one_way_s = Fraction(rtt_ns - turnaround_ns, 2 * 1_000_000_000)
    return one_way_s * SPEED_OF_LIGHT_M_S / METERS_PER_NMI


def spoof_extra_delay_ns(true_nmi, desired_nmi) -> int:
    """Extra reply delay that moves an apparent range out to desired_nmi."""
    gap = (Fraction(desired_nmi) - Fraction(true_nmi)) * METERS_PER_NMI
    ns = 2 * gap * 1_000_000_000 / SPEED_OF_LIGHT_M_S
    return _round_nearest(ns)


def finite_difference_rate_kt(r0_nmi, r1_nmi, dt_s) -> Fraction:
    return (Fraction(r1_nmi) - Fraction(r0_nmi)) / Fraction(dt_s) * 3600


def tau_s(range_nmi, closing_kt) -> Fraction:
    """Range over closing speed, in seconds; caller guards closing_kt > 0."""
    return Fraction(range_nmi) / Fraction(closing_kt) * 3600


def nmac_at(a, b) -> bool:
    """Instantaneous near-mid-air test on two states, both gates inclusive:
    within 100 ft vertically and 500 ft horizontally."""
    dz = abs(a.altitude_ft - b.altitude_ft)
    dxy_ft = math.hypot(a.x_nmi - b.x_nmi, a.y_nmi - b.y_nmi) * float(FEET_PER_NMI)
    return dz <= 100 and dxy_ft <= 500


# The advisory rule as a table of literals, so that a threshold moved in
# tcas fails the comparison rather than moving with it.  Each level, first
# match wins, with the tau and altitude gap it needs (both inclusive) and
# whether only a unit free to issue a new RA may reach it.
ADVISORY_GATES = [("ra", 35.0, 600.0, True), ("ta", 48.0, 1200.0, False)]
# the sense each RAC code asks for: 1 forbids passing above, 2 passing
# below; 0 (none) and 3 (contradictory) leave it to the altitudes
SENSE_OF_RAC = {0: None, 1: "descend", 2: "climb", 3: None}
RA_CLEARANCE_FT = 600.0


def reference_advisory(may_ra, own_alt_ft, intruder_alt_ft, tau, received_rac,
                       latched) -> tuple:
    """(level, sense, limit) by the tables above; a latched RA skips the
    gates.  The gap is the float difference, as the unit measures it."""
    gap_ft = abs(own_alt_ft - intruder_alt_ft)
    level = "ra" if latched else next(
        (name for name, tau_max, gap_max, needs_ra in ADVISORY_GATES
         if tau <= tau_max and gap_ft <= gap_max and (may_ra or not needs_ra)), None)
    if level != "ra":
        return level, None, None
    sense = SENSE_OF_RAC[received_rac] or ("climb" if own_alt_ft >= intruder_alt_ft
                                           else "descend")
    return level, sense, intruder_alt_ft + (RA_CLEARANCE_FT if sense == "climb"
                                            else -RA_CLEARANCE_FT)


def fault_tree_components(vna, vmir, rnf, tna, ti) -> tuple[Fraction, Fraction]:
    """Both component failure rates, evaluated in exact decimal arithmetic."""
    f = lambda s: Fraction(s)
    unresolved = (f("0.413") + f("0.259") * (f(vna) + f(tna))
                  + f("0.327") * f(rnf) + f("0.0008") * f(vmir))
    induced = f("0.11") + f("0.014") * f(vmir) + f("0.59") * f(ti)
    return unresolved, induced


def noisy_or(p, q) -> Fraction:
    return 1 - (1 - Fraction(p)) * (1 - Fraction(q))


def normalized_correlation(x: np.ndarray, template: np.ndarray,
                           template_norm: float) -> np.ndarray:
    """The preamble detector's correlation, every window of the whole
    stream: |x . template| over the window's norm times the template's,
    with the window energy a difference of prefix sums of the power, and 0
    where a window holds no energy."""
    n = template.size
    if x.size < n:
        return np.zeros(0)
    dot = np.correlate(x, np.conj(template), mode="valid")
    energy = np.concatenate([[0.0], np.cumsum(np.abs(x) ** 2)])
    norm = np.sqrt(energy[n:] - energy[:-n]) * template_norm
    return np.divide(np.abs(dot), norm, out=np.zeros(dot.size), where=norm > 0)


def detect_offsets(samples: np.ndarray, template: np.ndarray, template_norm: float,
                   min_tail: int, max_tail: int, threshold: float) -> list[int]:
    """Preamble starts: windows at or above the threshold that leave room
    for ``min_tail`` samples behind the template, sorted strongest first and
    earliest on ties, each kept only if no kept one lies within one maximum
    frame (template plus ``max_tail``) of it."""
    corr = normalized_correlation(samples, template, template_norm)
    room = samples.size - template.size - min_tail
    hits = np.flatnonzero(corr[:max(room + 1, 0)] >= threshold)
    candidates = hits[np.lexsort((hits, -corr[hits]))].tolist()
    shadow = template.size + max_tail
    kept: list[int] = []
    for k in candidates:
        if all(abs(k - j) >= shadow for j in kept):
            kept.append(k)
    return sorted(kept)


def strongest_window(samples: np.ndarray, template: np.ndarray, template_norm: float,
                     min_tail: int, threshold: float) -> list[int]:
    """The one preamble start a reception gives: of the windows that leave
    room for ``min_tail`` samples behind the template, the first with the
    greatest correlation, if that reaches the threshold; else none."""
    corr = normalized_correlation(samples, template, template_norm)
    room = samples.size - template.size - min_tail
    windows = corr[:max(room + 1, 0)].tolist()
    best = max(windows, default=0.0)
    return [windows.index(best)] if best >= threshold else []


def _round_nearest(x: Fraction) -> int:
    floor = x.numerator // x.denominator
    rem = x - floor
    if rem > Fraction(1, 2):
        return floor + 1
    if rem < Fraction(1, 2):
        return floor
    return floor + (floor % 2)  # ties to even; unreachable for physical inputs


class ReferenceWorld(World):
    """A World that keeps its events in a flat list and takes the least
    ``(time, registration order, sequence)`` by a linear scan, formats a
    frame's hex from its word, builds each record through ``LogRecord``
    and does its own fan-out: the jam check, the destination from the CRC
    seal, and each receiver's range and delay from ``position_at``, one
    event and one fan-out per frame where the World makes one per round.
    A failing handler stops the run with the World's error text and the log
    so far.  Of the World it reuses only ``_do_deliver``, and with it the
    channels and the entities."""

    def __init__(self, channel=None):
        super().__init__(channel)
        self.events: list[tuple] = []
        self.pushed = 0

    def _push(self, time_ns, source, handler, *args):
        assert time_ns >= self.time_ns, "causality violation"
        order = [e.name for e in self.entities].index(source)
        self.pushed += 1
        self.events.append((time_ns, order, self.pushed, handler, args))

    def schedule_timer(self, time_ns, entity, timer, data=None):
        self._push(time_ns, entity.name, ReferenceWorld._timer, entity, timer, data or {})

    def schedule_transmit(self, time_ns, entity, *frames):
        for frame in frames:  # one event per frame, where the World queues a round as one
            self._push(time_ns, entity.name, ReferenceWorld._transmit, entity, frame)

    def record(self, kind, source, destination, frame, outcome):
        frame_hex = "-" if frame is None else f"{frame.word:0{frame.nbits // 4}x}"
        self.log.append(LogRecord(self.time_ns, kind, source, destination, frame_hex, outcome))

    def note(self, entity, about, name, /, *args, **params):
        kind = next(kind for kind, names in NOTES.items() if name in names)
        self.record(kind, entity.name, about, None, note(name, *args, **params))

    def run_until(self, t_end_ns):
        while self.events:
            first = min(range(len(self.events)), key=lambda i: self.events[i][:3])
            if self.events[first][0] > t_end_ns:
                break
            self.time_ns, _, _, handler, args = self.events.pop(first)
            try:
                handler(self, *args)
            except Exception as exc:
                if handler is ReferenceWorld._timer:
                    event = f"timer {args[1]!r} of {args[0].name}"
                elif handler is ReferenceWorld._transmit:
                    event = f"transmit by {args[0].name}"
                else:
                    event = f"deliver from {args[0].name} to {args[1].name}"
                error = SimError(f"{event} at time_ns={self.time_ns}: {exc}")
                error.records = self.log
                raise error from exc
        self.time_ns = max(self.time_ns, t_end_ns)

    def _timer(self, entity, timer, data):
        self.record("timer", entity.name, "-", None, timer)
        entity.on_timer(self, timer, data)

    def _transmit(self, source, frame):
        t0 = self.time_ns
        t1 = t0 + frame_airtime_ns(frame)
        destination = "*"
        if frame.direction == codec.UPLINK and frame.format_code in (
                codec.UF_SURVEILLANCE_SHORT, codec.UF_SURVEILLANCE_LONG):
            body = [int(b) for b in format(frame.word >> 24, f"0{frame.nbits - 24}b")]
            destination = f"{(frame.word & 0xFFFFFF) ^ crc24_long_division(body):06x}"
        for jam in self.jam_directives:
            end = math.inf if jam.end_ns is None else jam.end_ns
            if source.icao == jam.target_icao and t0 < end and t1 >= jam.start_ns:
                self.record("transmit", source.name, destination, frame, "jammed")
                return
        self.record("transmit", source.name, destination, frame, "sent")
        sx, sy, salt = source.position_at(t0)
        for receiver in self.entities:
            if receiver is source:
                continue
            rx, ry, ralt = receiver.position_at(t0)
            dist = math.hypot(sx - rx, sy - ry, (salt - ralt) / float(FEET_PER_NMI))
            if dist <= RECEPTION_RANGE_NMI:
                self._push(t0 + propagation_delay_ns(dist), source.name,
                           World._do_deliver, source, receiver, frame)
                continue
            # out of range, unless one of the two is nowhere
            for entity, where in ((source, (sx, sy, salt)), (receiver, (rx, ry, ralt))):
                if not all(math.isfinite(v) for v in where):
                    raise SimError(f"{entity.name} is at a non-finite position {where}")


def reference_loss_sweep(scenario, snr_list: list[float], corpus_size: int) -> list[LossPoint]:
    """Frame loss at each SNR, smallest first, one point at a time: a fresh
    ``AwgnChannel`` with the sweep's noise seed receives the whole corpus in
    order, frame k 1 ms after frame k - 1."""
    frames = _corpus(scenario.seed, corpus_size)
    noise_seed = int(np.random.SeedSequence([scenario.seed, 0x51EE]).generate_state(1)[0])
    points = []
    for snr_db in sorted(snr_list):
        channel = AwgnChannel(snr_db, noise_seed)
        lost = 0
        for k, sent in enumerate(frames):
            got = channel.receive(sent, k * (NS_PER_S // 1000))
            lost += got is None or got[0] != sent
        points.append(LossPoint(snr_db, corpus_size, lost))
    return points


def reference_metrics_from_log(records, scenario) -> MetricsReport:
    """The report, distilled one record at a time in a single loop over
    ``records``: deliveries counted per (source, destination, hex), the hex
    None for a loss, then labelled per key in order of first appearance."""
    report = MetricsReport(scenario.name, scenario.duration_s, scenario.seed)
    sent_as: dict[tuple[str, str], str] = {}
    delivered: dict[tuple[str, str, str | None], int] = {}
    cached_label = cache(frame_label)

    for time_ns, kind, source, destination, frame_hex, outcome in records:
        if kind == "deliver":
            key = source, destination, None if outcome in LOSS_OUTCOMES else frame_hex
            delivered[key] = delivered.get(key, 0) + 1
        elif kind == "transmit":
            report.transmit_outcomes[outcome] = report.transmit_outcomes.get(outcome, 0) + 1
            label = sent_as[source, frame_hex] = cached_label(frame_hex, destination)
            if outcome == "sent":
                report.frames_sent[label] = report.frames_sent.get(label, 0) + 1
        elif kind == "tcas":
            parsed = parse_note(outcome)
            if parsed.name == "range":
                key, rng = f"{source}>{destination}", NOTE_READS["range"](parsed)
                report.range_series.setdefault(key, []).append([time_ns, rng])
            elif parsed.name in ("track_new", "track_drop"):
                report.track_events.append([time_ns, source, destination, outcome])
            elif parsed.name in ("ta_issued", "ta_cleared", "ra_issued", "ra_reversal",
                                 "ra_cleared"):
                report.advisories.append([time_ns, source, destination, outcome])
        elif kind == "attack":
            parsed = parse_note(outcome)
            if parsed.name == "phase":
                report.attack_phases.append([time_ns, NOTE_READS["phase"](parsed)])
            else:
                report.attack_notes.append([time_ns, outcome])
        elif kind == "nmac":
            until = NOTE_READS["window"](parse_note(outcome))
            report.nmac_windows.append([source, destination, time_ns, until])

    for (source, destination, frame_hex), n in delivered.items():
        stats = report.links.setdefault(f"{source}>{destination}",
                                        {"attempts": 0, "decoded": 0, "lost": 0})
        stats["attempts"] += n
        if frame_hex is None:
            stats["lost"] += n
        else:
            stats["decoded"] += n
            label = sent_as.get((source, frame_hex)) or cached_label(frame_hex, "*")
            key = f"{label}>{destination}"
            report.deliveries[key] = report.deliveries.get(key, 0) + n
    report.rounds_per_track = {key: len(series) for key, series in report.range_series.items()}
    report.nmac_occurred = bool(report.nmac_windows)
    _fill_plan_errors(report, scenario)
    for name in scenario.success:
        report.success[name] = SUCCESS_PREDICATES[name](report)
    return report
