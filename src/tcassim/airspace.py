"""Discrete-event airspace: entities, radio fan-out, jamming, and the log.

Time is a 64-bit count of nanoseconds.  Every protocol timestamp refers to
the first preamble sample of a frame; propagation applies start-to-start,
so a receiver's reception instant is the transmit instant plus the
straight-line flight time of light over the 3-D separation.

Event ordering is total and deterministic: events sort by time, then by the
registration order of their source entity, then by a global sequence
number.  Replaying a scenario with the same seed reproduces the event log
byte for byte.

A transmit event sends one or more frames from one source at one instant:
a TCAS unit's surveillance round is one event.  Each frame is logged and,
when a jam directive names its source, jam-checked over its own airtime;
the receivers' ranges and delays are found once per event, and each
delivery is its own event.  Queued one per frame, the round's transmits
would follow each other in that order with nothing between them, and
their deliveries are queued in the same order, so the grouping moves no
log byte.
"""

from __future__ import annotations

import heapq
import math
import re
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count, islice
from operator import eq
from typing import NamedTuple, Protocol

import numpy as np

from . import modes_codec as codec
from . import noise, phy

SPEED_OF_LIGHT_M_S = 299_792_458.0
METERS_PER_NMI = 1852.0
FEET_PER_NMI = METERS_PER_NMI / 0.3048
NS_PER_S = 1_000_000_000
TIME_LIMIT_NS = 2 ** 63  # a logged time is an int64, so it stays below this

RECEPTION_RANGE_NMI = 100.0
TURNAROUND_NS = 128_000  # fixed transponder decode-and-respond time


class SimError(ValueError):
    """Scenario or scheduling misuse (causality violation, bad state), or a
    failure inside an event handler, named with its event and instant.

    A handler's failure carries ``records``, the log its world had written
    by then; other errors carry None.
    """

    records: EventLog | None = None


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


def _light_ns(dist_nmi: float) -> int:
    """Light flight time over a distance, rounded to the nearest ns; a
    distance whose count of ns is not finite is a SimError naming it."""
    ns = dist_nmi * METERS_PER_NMI / SPEED_OF_LIGHT_M_S * NS_PER_S
    if -math.inf < ns < math.inf:
        return round(ns)
    raise SimError(f"light flight over {dist_nmi} nmi does not count in nanoseconds")


def propagation_delay_ns(dist_nmi: float) -> int:
    """Light flight time over a separation, rounded to the nearest ns."""
    if dist_nmi < 0:
        raise SimError("negative distance")
    return _light_ns(dist_nmi)


def round_trip_ns(range_nmi: float) -> int:
    """Light flight time out and back over a range, which may be negative,
    rounded to the nearest ns."""
    return _light_ns(2.0 * range_nmi)


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
    An immutable named tuple: what an ``EventLog`` yields and takes, built
    only when a record is read, as a log holds its records as columns.
    """

    time_ns: int
    kind: str
    source: str
    destination: str
    frame_hex: str
    outcome: str

    def to_line(self) -> str:
        text = _tail_text(self[1:])
        if text is None:
            raise _comma_error(self)
        return f"{self.time_ns}{text[:-1]}"


# what follows a record's time: (kind, source, destination, frame_hex, outcome)
Tail = tuple[str, str, str, str, str]


class EventLog(Sequence[LogRecord]):
    """The event log: a sequence of ``LogRecord``s, grown by appending,
    held as two columns and a table.

    ``times`` holds each record's time in ns as an int64, and ``tails`` an
    index into ``table``, the distinct tails in the order they were added.
    A run repeats a few tails many times (a periodic timer, the copies of
    one frame heard alike), so a record costs its 12 bytes of columns and
    the table stays small.  Reading an item builds its ``LogRecord``, and
    records of one tail share its strings.  A slice is a list of records,
    and a log equals a list or log of equal records.  A time outside int64
    is a SimError, and the log is left as it was.
    """

    __slots__ = ("times", "tails", "table", "_index")

    def __init__(self, records: Iterable[LogRecord] = ()):
        self.times = array("q")
        self.tails = array("I")
        self.table: list[Tail] = []
        self._index: dict[Tail, int] = {}
        for record in records:
            self.append(record)

    def intern(self, tail: Tail) -> int:
        """The table index of ``tail``, added if it is new."""
        index = self._index.get(tail)
        if index is None:
            index = self._index[tail] = len(self.table)
            self.table.append(tail)
        return index

    def add(self, time_ns: int, tail: Tail) -> None:
        """Append the record of ``time_ns`` and ``tail``."""
        try:
            self.times.append(time_ns)
        except OverflowError:
            raise SimError(f"log time {time_ns} ns does not fit in 64 bits") from None
        self.tails.append(self.intern(tail))

    def append(self, record: LogRecord) -> None:
        self.add(record[0], record[1:])

    def insert(self, position: int, record: LogRecord) -> None:
        """Put ``record`` at ``position``, as ``list.insert`` does."""
        self.append(record)
        self.times.insert(position, self.times.pop())
        self.tails.insert(position, self.tails.pop())

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return list(self._records(self.times[item], self.tails[item]))
        return tuple.__new__(LogRecord, (self.times[item], *self.table[self.tails[item]]))

    def __iter__(self) -> Iterator[LogRecord]:
        return self._records(self.times, self.tails)

    def _records(self, times: Iterable[int], tails: Iterable[int]) -> Iterator[LogRecord]:
        # tuple.__new__ skips the named tuple's Python-level __new__
        new, table = tuple.__new__, self.table
        for time_ns, index in zip(times, tails):
            yield new(LogRecord, (time_ns, *table[index]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (EventLog, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None


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


def _tail_text(tail: Tail) -> str | None:
    """``,kind,source,destination,frame_hex,outcome`` and a newline, the text
    of a line after its time, or None when a field holds a comma."""
    text = ",{},{},{},{},{}\n".format(*tail)
    return text if text.count(",") == 5 else None


def _comma_error(record: LogRecord) -> SimError:
    """The error for a record whose fields hold a comma, quoting its line."""
    line = ",".join(map(str, record))
    return SimError(f"log fields must not contain commas: {line!r}")


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


def write_event_log(path, records: Sequence[LogRecord]) -> None:
    """Write the records one line each, formatted a few thousand at a time
    so that no string of the whole file is built.  Each distinct tail is
    formatted and checked once; a tail with a comma is a SimError naming
    its first line."""
    log = records if isinstance(records, EventLog) else EventLog(records)
    texts = list(map(_tail_text, log.table))
    if None in texts:
        raise _comma_error(next(rec for rec in log if _tail_text(rec[1:]) is None))
    with open(path, "w", encoding="ascii") as fh:
        for i in range(0, len(log), 4096):
            chunk = zip(log.times[i:i + 4096], log.tails[i:i + 4096])
            fh.write("".join([f"{time_ns}{texts[index]}" for time_ns, index in chunk]))


def read_event_log(path) -> EventLog:
    """The records of a written log; blank lines are skipped.

    The log is read into an ``EventLog``, so it holds each line as an int64
    time and one index into its table of distinct tails, and the tails share
    one string per distinct field value: the seed-0 ``ring_surveillance``
    log reads back into about 38 bytes a record, as its run held it.

    Each new tail is checked against the log grammar once: an unknown kind,
    a transmit neither sent nor jammed, a note its kind does not log, a note
    without what the report reads from it, or a frame field that is neither
    a transmit's or delivery's frame in lowercase hex nor another record's
    "-" makes a malformed line.  So does a byte that is not ASCII, and a
    time that is not as ``write_event_log`` writes it (digits alone, with
    no leading zero) or that does not fit in an int64.
    """
    log = EventLog()
    times, tails = log.times, log.tails
    index_by_text: dict[str, int] = {}  # the text after a line's time -> its tail's index
    strings: dict[str, str] = {}  # one string per distinct field value
    # a byte that is not ASCII reads as a lone surrogate, which no field admits
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for line in fh:
            time_text, _, tail = line.partition(",")
            index = index_by_text.get(tail)
            if index is None:  # a blank line's tail is empty, which no cached line has
                if not line.strip():
                    continue
                fields = _split_line(line)
                index = index_by_text[tail] = log.intern(tuple(map(strings.setdefault, fields,
                                                                   fields)))
            # surrogates are not digits, so isdigit admits only 0-9
            if not time_text.isdigit() or time_text[0] == "0" and time_text != "0":
                raise _malformed(line)
            try:  # too many digits for an int64, or for int() itself
                times.append(int(time_text))
            except (OverflowError, ValueError):
                raise _malformed(line) from None
            tails.append(index)
    return log


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
# Noise streams whose generator states are hashed at a time, about 150 kB
# of states.  Sized for one long world such as ring_awgn, where a larger
# block costs a little less per state; loss_sweep reads one stream per
# corpus frame through the same blocks, so it never holds a state per frame.
NOISE_BLOCK = 1024


def noise_streams(seed: int) -> Iterator[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` of noise streams 1, 2, 3, ... of ``seed``:
    stream ``i`` is ``SeedSequence([seed, i])``'s.  They are hashed
    NOISE_BLOCK at a time; the first block is hashed by this call, so a seed
    that ``noise.pcg64_states`` refuses fails here."""
    block = NOISE_BLOCK
    first = noise.pcg64_states(seed, 0, block)
    rest = (noise.pcg64_states(seed, start, block) for start in count(block, block))
    return islice(chain(first, chain.from_iterable(rest)), 1, None)


def transmission(frame: codec.ModeSFrame) -> tuple[np.ndarray, bytes | None]:
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
    intact = codec.frame_bit_length(frame.direction, frame.format_code) == frame.nbits
    return samples, bits.tobytes() if intact else None


# what a receiver makes of one reception: the frame and its detected
# preamble time, or None
Reception = tuple[codec.ModeSFrame, int] | None


def decode_reception(frame: codec.ModeSFrame, sent: bytes | None, noisy: np.ndarray,
                     deliver_time_ns: int) -> Reception | list[Reception]:
    """What a receiver makes of ``noisy``, the samples of ``transmission(frame)``
    with noise added, where the clean frame would arrive at ``deliver_time_ns``.

    It correlates for the preamble, demodulates at the one detection, and
    returns ``(received frame, detected preamble time)`` when the header
    decodes to a length that fits, else None.  A copy whose bits equal
    ``sent`` is the sent frame itself; any other is truncated to its
    header's length.  Bit errors surface later as parity failures at the
    consumer.

    ``noisy`` may also be a 2-D block whose rows are receptions of the
    frame, such as ``phy.awgn`` gives at several SNRs.  The block is
    correlated and detected in one call, and the result is a list with, per
    row, what that row alone would give.
    """
    downlink = frame.direction == codec.DOWNLINK
    # phy functions are looked up per call so instrumentation that wraps
    # them on the module sees every use
    if downlink:
        detect, chip_ns = phy.ppm_frame_detect, phy.PPM_CHIP_NS
    else:
        detect, chip_ns = phy.dbpsk_frame_detect, phy.DBPSK_CHIP_NS

    def received(samples: np.ndarray, detections: list[phy.FrameDetection]) -> Reception:
        # bits are decided one by one, so cutting to the header's length
        # equals demodulating exactly that many bits.  A detection leaves
        # room for a short frame behind its preamble, so neither
        # demodulator raises.
        if not detections:
            return None
        offset = detections[0].offset
        if downlink:  # every bit that fits behind the preamble
            fit = (samples.size - offset - phy.PPM_PREAMBLE.size) // 2
            bits = phy.ppm_demodulate(samples, offset, min(fit, phy.MAX_PAYLOAD_BITS))
        else:  # up to 112 bits after the sync reversal
            bits = phy.dbpsk_demodulate(samples, phy.sync_offset_of(offset))
        if sent is not None and bits[:frame.nbits].tobytes() == sent:
            rx_frame = frame  # an intact copy shares the sent frame's decode and hex
        else:  # any other frame differs from the sent one
            # the 5-bit format code packs into the top of one byte
            code = int(np.packbits(bits[:5])[0]) >> 3
            need = codec.frame_bit_length(frame.direction, code)
            if need is None or bits.size < need:
                return None
            rx_frame = codec.ModeSFrame.from_bits(bits[:need], frame.direction)
        # the clean frame starts LEAD_PAD samples in, at deliver_time_ns
        return rx_frame, deliver_time_ns + (offset - LEAD_PAD) * chip_ns

    if noisy.ndim == 1:
        return received(noisy, detect(noisy))
    return [received(*row) for row in zip(noisy, detect(noisy))]


class AwgnChannel:
    """Runs each reception through the full modem chain with fresh noise.

    The frame's clean waveform is modulated once and reused from a bounded
    per-channel cache.  The channel owns its noise: its reception ``i``,
    counted from 1, adds noise from ``noise_streams(seed)``'s stream ``i``,
    set into one reused generator, so no other channel's receptions move
    its stream.  ``decode_reception`` then turns the noisy samples into
    ``(received frame, detected preamble time)``, or None when detection
    or header decoding fails.

    Bad arguments fail when the channel is built, not at its first
    reception: an SNR with no finite noise power is a ``PhyError``, and a
    seed that is not a non-negative integer a ``ValueError`` or
    ``TypeError``.
    """

    def __init__(self, snr_db: float, seed: int):
        phy.noise_power(snr_db)
        self.snr_db = snr_db
        self.seed = seed
        # per instance, so a fresh channel starts empty; it wraps a module
        # function, so the cache holds no reference back to the channel
        self._transmission = lru_cache(maxsize=WAVEFORM_CACHE_FRAMES)(transmission)
        self._rng = np.random.Generator(np.random.PCG64(0))
        self._streams = noise_streams(seed)

    def receive(self, frame: codec.ModeSFrame,
                deliver_time_ns: int) -> tuple[codec.ModeSFrame, int] | None:
        rng = noise.set_state(self._rng, next(self._streams))
        samples, sent = self._transmission(frame)
        noisy = phy.awgn(samples, self.snr_db, rng)
        return decode_reception(frame, sent, noisy, deliver_time_ns)


class World:
    """Event queue, radio medium, jam bookkeeping, and the append-only log.
    Entities log only notes, by name through ``note``; the World reads a
    transmit's destination from the frame's seal.

    ``schedule_transmit`` queues a source's frames of one instant as one
    event, whose fan-out is found once."""

    def __init__(self, channel: NoiselessChannel | AwgnChannel | None = None):
        self.channel = channel or NoiselessChannel()
        self.time_ns = 0
        self.entities: list[Entity] = []
        self._order: dict[str, int] = {}
        self.jam_directives: list[JamDirective] = []
        self.log = EventLog()
        # (time, registration order of source, seq, handler, handler args);
        # handlers are World functions stored unbound, so entries left in the
        # queue do not tie the World into a reference cycle.  A transmit
        # entry carries all the frames of its instant, in order; every
        # delivery has its own entry, queued in frame-then-receiver order
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

    def schedule_transmit(self, time_ns: int, entity: Entity, frame: codec.ModeSFrame,
                          *more: codec.ModeSFrame) -> None:
        """Queue one event that transmits ``frame``, then each of ``more``,
        at ``time_ns``: a surveillance round is one call."""
        self._push(time_ns, entity.name, World._do_transmit, entity, (frame, *more))

    # -- logging -----------------------------------------------------------

    def record(self, kind: str, source: str, destination: str,
               frame: codec.ModeSFrame | None, outcome: str) -> None:
        self.log.add(self.time_ns, (kind, source, destination,
                                    frame.to_hex() if frame is not None else "-", outcome))

    def note(self, entity: Entity, about: str, name: str, /, *args, **params) -> None:
        """Log the note ``name`` by ``entity`` about ``about`` (an address,
        "*" or "-"), under the kind ``NOTES`` lists it for."""
        self.record(NOTE_KIND[name], entity.name, about, None, note(name, *args, **params))

    # -- event processing --------------------------------------------------

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

    def _jams_on(self, source: Entity) -> list[JamDirective]:
        """The jam directives naming ``source``: only they can jam its frames."""
        if source.icao is None:
            return []
        return [d for d in self.jam_directives if d.target_icao == source.icao]

    def _do_timer(self, entity: Entity, timer: str, data: dict) -> None:
        self.record("timer", entity.name, "-", None, timer)
        entity.on_timer(self, timer, data)

    def _do_transmit(self, source: Entity, frames: tuple[codec.ModeSFrame, ...]) -> None:
        t_tx = self.time_ns
        jams = self._jams_on(source)
        arrivals = None  # (arrival instant, receiver) of each receiver in range
        for frame in frames:
            destination = "*"
            if frame.direction == codec.UPLINK:  # UF4 and UF20 are sealed with their addressee
                kind, overlay, recovered = codec.frame_seal(frame)
                if kind is not None and overlay is None:
                    destination = f"{recovered:06x}"
            if jams and any(d.covers(t_tx, t_tx + frame_airtime_ns(frame)) for d in jams):
                self.record("transmit", source.name, destination, frame, "jammed")
                continue
            self.record("transmit", source.name, destination, frame, "sent")
            if arrivals is None:  # found at the first frame sent, as every frame leaves at t_tx
                arrivals = []
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
                    arrivals.append((t_tx + propagation_delay_ns(dist), receiver))
                order = self._order[source.name]
            # every arrival is at or after t_tx and the source is registered,
            # so the deliveries skip _push's checks
            heap, push, seq = self._heap, heapq.heappush, self._seq
            for t_rx, receiver in arrivals:
                seq += 1
                push(heap, (t_rx, order, seq, World._do_deliver, (source, receiver, frame)))
            self._seq = seq

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
