"""Discrete-event airspace: entities, radio fan-out, jamming, and the log.

Time is a 64-bit count of nanoseconds.  Every protocol timestamp refers to
the first preamble sample of a frame; propagation applies start-to-start,
so a receiver's reception instant is the transmit instant plus the
straight-line flight time of light over the 3-D separation.

Event ordering is total and deterministic: events sort by time, then by the
registration order of their source entity, then by a global sequence
number.  Replaying a scenario with the same seed reproduces the event log
byte for byte.
"""

from __future__ import annotations

import gc
import heapq
import math
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import NamedTuple, Protocol

import numpy as np

from . import modes_codec as codec
from . import noise, phy

SPEED_OF_LIGHT_M_S = 299_792_458.0
METERS_PER_NMI = 1852.0
FEET_PER_NMI = METERS_PER_NMI / 0.3048
NS_PER_S = 1_000_000_000

RECEPTION_RANGE_NMI = 100.0
TURNAROUND_NS = 128_000  # fixed transponder decode-and-respond time


def gc_paused(fn: Callable) -> Callable:
    """``fn`` with the cyclic garbage collector paused while it runs.

    A run, a log read and a report each allocate containers per log record
    and free no reference cycle, so the collector's scans of them find
    nothing.  The collector is switched back on when ``fn`` returns or
    raises, and only if it was on when ``fn`` was called, so nested calls
    keep a caller's pause.  Reference counting still frees everything else.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


class SimError(ValueError):
    """Scenario or scheduling misuse (causality violation, bad state), or a
    failure inside an event handler, named with its event and instant.

    A handler's failure carries ``records``, the log its world had written
    by then; other errors carry None.
    """

    records: list[LogRecord] | None = None


@dataclass(frozen=True)
class AircraftState:
    """Kinematic truth for one airframe at some instant.

    Horizontal position in nautical miles on a flat grid, altitude in feet,
    ground velocity in knots, vertical rate in feet per minute.  Identity
    (address, equipment mode) lives on the entity, not the motion state.
    """

    x_nmi: float
    y_nmi: float
    altitude_ft: float
    vx_kt: float = 0.0
    vy_kt: float = 0.0
    vertical_rate_fpm: float = 0.0

    def __post_init__(self) -> None:
        for v in (self.x_nmi, self.y_nmi, self.altitude_ft,
                  self.vx_kt, self.vy_kt, self.vertical_rate_fpm):
            if not math.isfinite(v):
                raise SimError("aircraft state must be finite")


# (x_nmi, y_nmi, altitude_ft): where an entity is, without its velocity
Position = tuple[float, float, float]


def position_after(state: AircraftState, dt_s: float) -> Position:
    """Where a constant-velocity state is dt seconds on.  The only place
    motion is extrapolated, so a propagation delay computed from positions
    equals one computed from the full states bit for bit."""
    return (state.x_nmi + state.vx_kt * dt_s / 3600.0,
            state.y_nmi + state.vy_kt * dt_s / 3600.0,
            state.altitude_ft + state.vertical_rate_fpm * dt_s / 60.0)


def step_kinematics(state: AircraftState, dt_s: float) -> AircraftState:
    """Advance a constant-velocity state by dt seconds."""
    return AircraftState(*position_after(state, dt_s),
                         state.vx_kt, state.vy_kt, state.vertical_rate_fpm)


def separation_nmi(p: Position, q: Position) -> float:
    """3-D straight-line separation of two positions in nautical miles."""
    return math.hypot(p[0] - q[0], p[1] - q[1], (p[2] - q[2]) / FEET_PER_NMI)


def propagation_delay_ns(dist_nmi: float) -> int:
    """Light flight time over a separation, rounded to the nearest ns."""
    if dist_nmi < 0:
        raise SimError("negative distance")
    return round(dist_nmi * METERS_PER_NMI / SPEED_OF_LIGHT_M_S * NS_PER_S)


def round_trip_ns(range_nmi: float) -> int:
    """Light flight time out and back over a range, which may be negative,
    rounded to the nearest ns; a range that is not finite raises as
    ``round`` does."""
    return round(2.0 * range_nmi * METERS_PER_NMI / SPEED_OF_LIGHT_M_S * NS_PER_S)


def rtt_to_range_nmi(rtt_ns: int) -> float:
    """Slant range implied by a reply round trip after the fixed turnaround."""
    one_way_s = (rtt_ns - TURNAROUND_NS) / 2 / NS_PER_S
    return one_way_s * SPEED_OF_LIGHT_M_S / METERS_PER_NMI


def frame_airtime_ns(frame: codec.ModeSFrame) -> int:
    """Duration of the modulated frame on the air at nominal chip rates."""
    if frame.direction == codec.DOWNLINK:
        chips = phy.PPM_PREAMBLE.size + 2 * frame.nbits
        return chips * phy.PPM_CHIP_NS
    chips = phy.SUPPRESSION_PULSES.size + len(phy.SYNC_PREAMBLE_BITS) + frame.nbits + 2
    return chips * phy.DBPSK_CHIP_NS


@dataclass(frozen=True)
class JamDirective:
    """Erase every transmission from ``target_icao`` whose airtime overlaps
    the window.  ``end_ns`` of None leaves the window open-ended."""

    target_icao: int
    start_ns: int
    end_ns: int | None = None

    def covers(self, t0_ns: int, t1_ns: int) -> bool:
        end = math.inf if self.end_ns is None else self.end_ns
        return t0_ns < end and t1_ns >= self.start_ns


class LogRecord(NamedTuple):
    """One line of the event log.

    Fields never contain commas; ``frame_hex`` is "-" for non-frame events.
    An immutable named tuple, cheap to build and to hold, as a run keeps
    one record per delivery.
    """

    time_ns: int
    kind: str
    source: str
    destination: str
    frame_hex: str
    outcome: str

    def to_line(self) -> str:
        return _format_lines((self,))[:-1]


# -- log grammar -----------------------------------------------------------
# A timer logs its name, a delivery the receiver's own word and a transmit
# "sent" or "jammed"; the kinds in NOTES log ``name;arg;...;key=value`` notes.
NOTES = {"tcas": ("track_new", "track_drop", "rac_received", "range", "ta_issued", "ta_cleared",
                  "ra_issued", "ra_reversal", "ra_cleared"),
         "pilot": ("engage", "level_off", "already_compliant"),
         "attack": ("phase", "recon", "evidence", "bait_timeout", "period_unstable",
                    "reactive_infeasible", "predictive_armed", "flood_complete"),
         "nmac": ("window",)}
NOTE_KIND = {name: kind for kind, names in NOTES.items() for name in names}
KINDS = ("timer", "transmit", "deliver", *NOTES)
LOSS_OUTCOMES = ("phy_drop", "parity_drop")  # channel or parity killed a delivery
_FRAME_HEX = re.compile("[0-9a-f]{14}|[0-9a-f]{28}")  # a frame as ModeSFrame.to_hex writes it
# what the report reads from a note, checked as the log is read
NOTE_READS = {"range": lambda n: float(n.params["range"]),
              "window": lambda n: int(n.params["until"]), "phase": lambda n: n.args[0]}


class Note(NamedTuple):
    name: str
    args: tuple[str, ...]
    params: dict[str, str]


def note(name: str, *args, **params) -> str:
    """``name;arg;...;key=value``; a note with no args whose first parameter
    bears its name starts with that parameter: ``range=...;rate=...``."""
    fields = [*map(str, args), *(f"{key}={value}" for key, value in params.items())]
    if args or next(iter(params), None) != name:
        fields.insert(0, name)
    return ";".join(fields)


def parse_note(text: str) -> Note:
    """The name, args and parameters of a note that ``note`` wrote."""
    fields = text.split(";")
    name, eq, _ = fields[0].partition("=")
    rest = fields if eq else fields[1:]
    return Note(name, tuple(f for f in rest if "=" not in f),
                dict(f.split("=", 1) for f in rest if "=" in f))


def _loggable(kind: str, frame_hex: str, outcome: str) -> bool:
    """Whether the log grammar lets a record of ``kind`` carry ``frame_hex``,
    a frame for a transmit or a delivery and "-" for any other, and ``outcome``."""
    framed = kind in ("transmit", "deliver")
    if not (_FRAME_HEX.fullmatch(frame_hex) if framed else frame_hex == "-"):
        return False
    if kind not in NOTES:
        return kind in KINDS and (kind != "transmit" or outcome in ("sent", "jammed"))
    parsed = parse_note(outcome)
    try:
        if parsed.name in NOTE_READS:
            NOTE_READS[parsed.name](parsed)
    except (KeyError, IndexError, ValueError):
        return False
    return parsed.name in NOTES[kind]


def _format_lines(records: Sequence[LogRecord]) -> str:
    """The records' log lines, each ending in a newline, or a SimError
    naming the first line whose fields hold a comma."""
    lines = [f"{t},{kind},{src},{dst},{frame_hex},{outcome}\n"
             for t, kind, src, dst, frame_hex, outcome in records]
    text = "".join(lines)
    # fields only add commas to the five a line has, so the total tells
    if text.count(",") != 5 * len(lines):
        bad = next(line for line in lines if line.count(",") != 5)
        raise SimError(f"log fields must not contain commas: {bad[:-1]!r}")
    return text


def _malformed(line: str) -> SimError:
    """The error for a log line that breaks the grammar, quoting it."""
    text = line.rstrip("\n")
    return SimError(f"malformed log line: {text!r}")


def _split_line(line: str) -> tuple[str, ...]:
    """The five fields after a log line's time, or a SimError naming the
    line when it is not ASCII, has not six fields or breaks the log grammar."""
    parts = line.rstrip("\n").split(",")
    if not line.isascii() or len(parts) != 6 or not _loggable(parts[1], parts[4], parts[5]):
        raise _malformed(line)
    return tuple(parts[1:])


def write_event_log(path, records: list[LogRecord]) -> None:
    """Write the records one line each, formatted a few thousand at a time
    so that no string of the whole file is built."""
    with open(path, "w", encoding="ascii") as fh:
        for i in range(0, len(records), 4096):
            fh.write(_format_lines(records[i:i + 4096]))


@gc_paused
def read_event_log(path) -> list[LogRecord]:
    """The records of a written log; blank lines are skipped.

    Lines that repeat everything after the time (a periodic timer, the
    copies of one frame heard alike) share one tuple of field strings, so
    the records take about the memory the run's own did.  Each new tail is
    checked against the log grammar once: an unknown kind, a transmit neither
    sent nor jammed, a note its kind does not log, a note without what the
    report reads from it, or a frame field that is neither a transmit's or
    delivery's frame in lowercase hex nor another record's "-" makes a
    malformed line.  So does a byte that is not ASCII, and a time that is not
    as ``write_event_log`` writes it: digits alone, with no leading zero.
    """
    fields_by_tail: dict[str, tuple[str, ...]] = {}
    records = []
    append = records.append
    new = tuple.__new__
    # a byte that is not ASCII reads as a lone surrogate, which no field admits
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for line in fh:
            time_text, _, tail = line.partition(",")
            fields = fields_by_tail.get(tail)
            if fields is None:  # a blank line's tail is empty, which no cached line has
                if not line.strip():
                    continue
                fields = fields_by_tail[tail] = _split_line(line)
            # surrogates are not digits, so isdigit admits only 0-9
            if not time_text.isdigit() or time_text[0] == "0" and time_text != "0":
                raise _malformed(line)
            append(new(LogRecord, (int(time_text), *fields)))
    return records


class Entity(Protocol):
    """Anything that lives on the event fabric."""

    name: str
    icao: int | None

    def position_at(self, time_ns: int) -> Position: ...

    def on_frame(self, world: "World", frame: codec.ModeSFrame, rx_time_ns: int) -> str: ...

    def on_timer(self, world: "World", timer: str, data: dict) -> None: ...


class NoiselessChannel:
    """Ideal medium: frames arrive intact at the exact propagation instant.

    ``receive`` returns ``(frame, deliver_time_ns)`` unchanged and never drops.
    """

    def receive(self, frame: codec.ModeSFrame,
                deliver_time_ns: int) -> tuple[codec.ModeSFrame, int] | None:
        return frame, deliver_time_ns


# Distinct frames whose clean waveform one AwgnChannel keeps, about 2.5 kB
# each.  The copies of one transmit are received within microseconds of
# each other, and periodic frames (all-call interrogations, squitters at a
# steady altitude) recur, so a short recency list serves most receptions.
WAVEFORM_CACHE_FRAMES = 128
LEAD_PAD = 16  # silent samples around the frame so detection is honest
# Noise streams whose generator states one AwgnChannel hashes at a time,
# about 150 kB of states.  Sized for one long world such as ring_awgn, where
# a larger block costs a little less per state; loss_sweep builds a channel
# per SNR point and uses only its first 600 (the default corpus) of a block.
NOISE_BLOCK = 1024


def _transmission(frame: codec.ModeSFrame) -> tuple[np.ndarray, bytes | None]:
    """The frame's noiseless samples at one sample per chip, padded with
    LEAD_PAD silent samples on both sides, and its bits as bytes of 0 and 1.

    The samples are read-only, as every reception of the frame shares them.
    The bits are None when the frame's header implies another length, so
    that a receiver never takes such a frame for an intact copy.
    """
    # looked up per call so instrumentation that wraps the modulators on
    # the module sees every use
    modulate = phy.ppm_modulate if frame.direction == codec.DOWNLINK else phy.dbpsk_modulate
    bits = frame.bits()
    clean = modulate(bits)
    pad = np.zeros(LEAD_PAD, dtype=clean.dtype)
    samples = np.concatenate([pad, clean, pad])
    samples.flags.writeable = False
    intact = _header_length(bits, frame.direction) == frame.nbits
    return samples, bits.tobytes() if intact else None


class AwgnChannel:
    """Runs each reception through the full modem chain with fresh noise.

    The frame's clean waveform is modulated once and reused from a bounded
    per-channel cache.  The channel owns its noise: its reception ``i``,
    counted from 1, adds noise drawn from ``SeedSequence([seed, i])``, whose
    PCG64 state is hashed a block at a time and set into one reused
    generator, so no other channel's receptions move its stream.  It then
    correlates for the preamble, demodulates, and truncates to the
    header-decoded length.  ``receive`` returns ``(received frame, detected
    preamble time)``, or None when detection or header decoding fails; bit
    errors surface later as parity failures at the consumer.
    """

    def __init__(self, snr_db: float, seed: int):
        self.snr_db = snr_db
        self.seed = seed
        # per instance, so a fresh channel starts empty; it wraps a module
        # function, so the cache holds no reference back to the channel
        self._transmission = lru_cache(maxsize=WAVEFORM_CACHE_FRAMES)(_transmission)
        self._rng = np.random.Generator(np.random.PCG64(0))
        self._index = 0  # receptions so far
        self._block: int | None = None  # index // NOISE_BLOCK of the states held
        self._block_states: list[tuple[int, int]] = []

    def _noise_rng(self) -> np.random.Generator:
        """The generator, set to draw the next reception's noise stream."""
        self._index += 1
        block, offset = divmod(self._index, NOISE_BLOCK)
        if block != self._block:
            self._block_states = noise.pcg64_states(self.seed, block * NOISE_BLOCK, NOISE_BLOCK)
            self._block = block
        state, inc = self._block_states[offset]
        self._rng.bit_generator.state = {"bit_generator": "PCG64",
                                         "state": {"state": state, "inc": inc},
                                         "has_uint32": 0, "uinteger": 0}
        return self._rng

    def receive(self, frame: codec.ModeSFrame,
                deliver_time_ns: int) -> tuple[codec.ModeSFrame, int] | None:
        rng = self._noise_rng()
        samples, sent = self._transmission(frame)
        downlink = frame.direction == codec.DOWNLINK
        # phy functions are looked up per call so instrumentation that wraps
        # them on the module sees every use
        if downlink:
            detect, chip_ns = phy.ppm_frame_detect, phy.PPM_CHIP_NS
        else:
            detect, chip_ns = phy.dbpsk_frame_detect, phy.DBPSK_CHIP_NS
        noisy = phy.awgn(samples, self.snr_db, rng)
        # bits are decided one by one, so cutting to the header's length
        # equals demodulating exactly that many bits.  A detection leaves room
        # for a short frame behind its preamble, so neither demodulator raises.
        for det in detect(noisy):
            if downlink:  # every bit that fits behind the preamble
                fit = (noisy.size - det.offset - phy.PPM_PREAMBLE.size) // 2
                bits = phy.ppm_demodulate(noisy, det.offset, min(fit, phy.MAX_PAYLOAD_BITS))
            else:  # up to 112 bits after the sync reversal
                bits = phy.dbpsk_demodulate(noisy, phy.sync_offset_of(det.offset))
            if sent is not None and bits[:frame.nbits].tobytes() == sent:
                rx_frame = frame  # an intact copy shares the sent frame's decode and hex
            else:  # any other frame differs from the sent one
                need = _header_length(bits, frame.direction)
                if need is None or bits.size < need:
                    continue
                rx_frame = codec.ModeSFrame.from_bits(bits[:need], frame.direction)
            # the clean frame starts LEAD_PAD samples in, at deliver_time_ns
            return rx_frame, deliver_time_ns + (det.offset - LEAD_PAD) * chip_ns
        return None


def _header_length(bits: np.ndarray, direction: str) -> int | None:
    code = 0
    for b in bits[:5]:
        code = (code << 1) | int(b)
    return codec.frame_bit_length(direction, code)


class World:
    """Event queue, radio medium, jam bookkeeping, and the append-only log.
    Entities log only notes, by name through ``note``; the World reads a
    transmit's destination from the frame's seal."""

    def __init__(self, channel: NoiselessChannel | AwgnChannel | None = None):
        self.channel = channel or NoiselessChannel()
        self.time_ns = 0
        self.entities: list[Entity] = []
        self._order: dict[str, int] = {}
        self.jam_directives: list[JamDirective] = []
        self.log: list[LogRecord] = []
        # (time, registration order of source, seq, handler, handler args);
        # handlers are World functions stored unbound, so entries left in the
        # queue do not tie the World into a reference cycle
        self._heap: list[tuple[int, int, int, Callable[..., None], tuple]] = []
        self._seq = 0

    # -- registration ------------------------------------------------------

    def add_entity(self, entity: Entity) -> None:
        if entity.name in self._order:
            raise SimError(f"duplicate entity name {entity.name!r}")
        self._order[entity.name] = len(self.entities)
        self.entities.append(entity)

    def add_jam(self, directive: JamDirective) -> None:
        self.jam_directives.append(directive)

    # -- scheduling --------------------------------------------------------

    def _push(self, time_ns: int, source: str, handler: Callable[..., None], *args) -> None:
        if time_ns < self.time_ns:
            raise SimError(
                f"causality violation: event at {time_ns} scheduled at {self.time_ns}")
        order = self._order.get(source)
        if order is None:
            raise SimError(f"entity {source!r} is not registered")
        self._seq += 1
        heapq.heappush(self._heap, (time_ns, order, self._seq, handler, args))

    def schedule_timer(self, time_ns: int, entity: Entity, timer: str,
                       data: dict | None = None) -> None:
        self._push(time_ns, entity.name, World._do_timer, entity, timer, data or {})

    def schedule_transmit(self, time_ns: int, entity: Entity, frame: codec.ModeSFrame) -> None:
        self._push(time_ns, entity.name, World._do_transmit, entity, frame)

    # -- logging -----------------------------------------------------------

    def record(self, kind: str, source: str, destination: str,
               frame: codec.ModeSFrame | None, outcome: str) -> None:
        # tuple.__new__ skips the named tuple's Python-level __new__, as
        # read_event_log does; a run records once per delivery
        self.log.append(tuple.__new__(LogRecord, (
            self.time_ns, kind, source, destination,
            frame.to_hex() if frame is not None else "-", outcome)))

    def note(self, entity: Entity, about: str, name: str, /, *args, **params) -> None:
        """Log the note ``name`` by ``entity`` about ``about`` (an address,
        "*" or "-"), under the kind ``NOTES`` lists it for."""
        self.record(NOTE_KIND[name], entity.name, about, None, note(name, *args, **params))

    # -- event processing --------------------------------------------------

    @gc_paused
    def run_until(self, t_end_ns: int) -> None:
        """Process events up to ``t_end_ns``.  An exception escaping a
        handler is re-raised as a SimError naming the event kind, its
        entities and ``time_ns``."""
        handler = None
        try:
            while self._heap and self._heap[0][0] <= t_end_ns:
                self.time_ns, _, _, handler, args = heapq.heappop(self._heap)
                handler(self, *args)
        except Exception as exc:
            if handler is None:  # no event was popped: the bound itself is bad
                raise
            error = SimError(f"{_describe_event(handler, args)} at time_ns={self.time_ns}: {exc}")
            error.records = self.log
            raise error from exc
        self.time_ns = max(self.time_ns, t_end_ns)

    def _jammed(self, source: Entity, t0_ns: int, t1_ns: int) -> bool:
        if source.icao is None:
            return False
        return any(d.target_icao == source.icao and d.covers(t0_ns, t1_ns)
                   for d in self.jam_directives)

    def _do_timer(self, entity: Entity, timer: str, data: dict) -> None:
        self.record("timer", entity.name, "-", None, timer)
        entity.on_timer(self, timer, data)

    def _do_transmit(self, source: Entity, frame: codec.ModeSFrame) -> None:
        t_tx = self.time_ns
        destination = "*"
        if frame.direction == codec.UPLINK:  # UF4 and UF20 are sealed with their addressee
            kind, overlay, recovered = codec.frame_seal(frame)
            if kind is not None and overlay is None:
                destination = f"{recovered:06x}"
        if self._jammed(source, t_tx, t_tx + frame_airtime_ns(frame)):
            self.record("transmit", source.name, destination, frame, "jammed")
            return
        self.record("transmit", source.name, destination, frame, "sent")
        src_pos = source.position_at(t_tx)
        for receiver in self.entities:
            if receiver is source:
                continue
            pos = receiver.position_at(t_tx)
            dist = separation_nmi(src_pos, pos)
            if not dist <= RECEPTION_RANGE_NMI:  # out of range, or not a number
                _check_finite(source, src_pos)
                _check_finite(receiver, pos)
                continue
            self._push(t_tx + propagation_delay_ns(dist), source.name, World._do_deliver,
                       source, receiver, frame)

    def _do_deliver(self, source: Entity, receiver: Entity, frame: codec.ModeSFrame) -> None:
        received = self.channel.receive(frame, self.time_ns)
        if received is None:
            self.record("deliver", source.name, receiver.name, frame, "phy_drop")
            return
        rx_frame, rx_time = received
        disposition = receiver.on_frame(self, rx_frame, rx_time)
        self.record("deliver", source.name, receiver.name, rx_frame, disposition)


def _check_finite(entity: Entity, position: Position) -> None:
    """A non-finite position is an error, never a receiver out of range."""
    if not all(map(math.isfinite, position)):
        raise SimError(f"{entity.name} is at a non-finite position {position}")


def _describe_event(handler: Callable[..., None], args: tuple) -> str:
    if handler is World._do_timer:
        entity, timer, _ = args
        return f"timer {timer!r} of {entity.name}"
    if handler is World._do_transmit:
        return f"transmit by {args[0].name}"
    source, receiver = args[:2]
    return f"deliver from {source.name} to {receiver.name}"
