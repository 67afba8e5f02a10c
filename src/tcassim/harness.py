"""Scenario execution and measurement.

``simulate`` runs a validated scenario to completion, puts the
analytically computed near-midair windows in the event log, and distills a
metrics report.  The report is a pure function of the log plus the scenario
document, so anything the report claims can be re-derived from the two
artifacts alone; ``metrics_from_log`` is that function and ``simulate``
itself goes through it.

``loss_sweep`` characterizes the noisy channel separately: a fixed frame
corpus is pushed through the full modem chain at each SNR with the same
noise draws (paired sampling), so the loss column reflects the SNR change
rather than resampling luck.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import cache
from itertools import combinations

import numpy as np

from . import fta
from . import modes_codec as codec
from .airspace import (LOSS_OUTCOMES, NOTE_READS, NS_PER_S, AwgnChannel, EventLog, LogRecord,
                       note, parse_note)
from .attacker import MISSION_PHANTOM, phantom_address
from .scenario import SUCCESS_PREDICATES, Scenario, build_world
from .tcas import nmac_intervals


# -- frame classification ---------------------------------------------------------

def frame_label(frame_hex: str, destination: str = "*") -> str:
    """Human label (UF4, DF11, ...) for a logged frame, read as a downlink.

    Codes 4 and 20 are direction-ambiguous from the bits alone, whatever
    the length; the World logs an interrogation sealed with its addressee
    (UF4, UF20) with that address as its destination and any other frame
    with "*", which disambiguates transmit records.  Any other frame takes
    its kind and parity verdict from ``codec.frame_seal``: the all-call
    reply's kind is a DF11 when its recovered overlay is the sealing one and
    a UF11 otherwise, the extended squitter's kind is a DF17, and anything
    else reads ``fmt`` and its code.  Codes 4 and 20 come first as their label
    needs no parity, which is most of the cost of ``frame_seal``.
    """
    try:
        frame = codec.ModeSFrame.from_hex(frame_hex, codec.DOWNLINK)
    except codec.CodecError:
        return "invalid"
    code = frame.format_code
    if code in (codec.DF_SURVEILLANCE_SHORT, codec.DF_SURVEILLANCE_LONG):
        prefix = "UF" if destination != "*" else "DF"
        return f"{prefix}{code}"
    kind, overlay, recovered = codec.frame_seal(frame)
    if kind == "all_call":
        return "DF11" if recovered == overlay else "UF11"
    if kind == "extended_squitter":
        return "DF17"
    return f"fmt{code}"


# -- metrics -----------------------------------------------------------------------

@dataclass
class MetricsReport:
    scenario: str
    duration_s: float
    seed: int
    transmit_outcomes: dict[str, int] = field(default_factory=dict)
    frames_sent: dict[str, int] = field(default_factory=dict)
    links: dict[str, dict[str, int]] = field(default_factory=dict)
    deliveries: dict[str, int] = field(default_factory=dict)
    rounds_per_track: dict[str, int] = field(default_factory=dict)
    track_events: list = field(default_factory=list)
    advisories: list = field(default_factory=list)
    attack_phases: list = field(default_factory=list)
    attack_notes: list = field(default_factory=list)
    nmac_windows: list = field(default_factory=list)
    nmac_occurred: bool = False
    range_series: dict[str, list] = field(default_factory=dict)
    plan_error_series: list = field(default_factory=list)
    success: dict[str, bool] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return all(self.success.values())

    def to_json(self) -> str:
        # the fields themselves: they hold only JSON values, so a deep copy
        # as dataclasses.asdict makes would change no byte
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)},
                          sort_keys=True, indent=1)


# the kinds the report walks one record at a time, in log order: its notes
_WALKED_KINDS = ("tcas", "attack", "nmac")


def metrics_from_log(records: Sequence[LogRecord], scenario: Scenario) -> MetricsReport:
    """Distill the report; everything here re-derives from the log lines.
    Notes are read with ``airspace.parse_note``, the one reader of their
    ``name;arg;...;key=value`` syntax, and their values through
    ``airspace.NOTE_READS``, the table the log reader checks them with.

    A delivery takes the label its own source transmitted that frame under
    (the last, were there two), or the frame's own label when its source
    never transmitted that hex.  ``frame_label`` runs once per distinct
    ``(frame_hex, destination)`` in one call, through a memo that ends with
    the call.

    The records are read as an ``EventLog`` (a list is loaded into one),
    and no Python code runs once a record but for the notes the report
    lists.  The tails are counted in one ``np.bincount``; each distinct
    transmit tail adds its count at once, and tells what its source sent
    its frame under in order of its last record, so the last label still
    wins; each distinct delivery tail is folded from the same counts.
    Only the note records are walked, in log order.
    """
    log = records if isinstance(records, EventLog) else EventLog(records)
    table, times = log.table, log.times
    report = MetricsReport(scenario.name, scenario.duration_s, scenario.seed)
    sent_as: dict[tuple[str, str], str] = {}  # (source, hex) -> label it was sent under
    cached_label = cache(frame_label)

    # a copy, not a view of the column: a view would lock it against appends while it lived
    tails = np.array(log.tails, dtype=np.intp)
    counts = np.bincount(tails, minlength=len(table)).tolist()
    # per record, by its tail's kind: 1 for a transmit, 2 for a walked note, 0 for any other
    kind_code = np.array([(kind == "transmit") + 2 * (kind in _WALKED_KINDS)
                          for kind, *_ in table], dtype=np.int8)[tails]

    positions = np.flatnonzero(kind_code == 1)
    last = dict(zip(tails[positions].tolist(), positions.tolist()))  # tail -> its last position
    for index in sorted(last, key=last.__getitem__):
        _, source, destination, frame_hex, outcome = table[index]
        n = counts[index]
        report.transmit_outcomes[outcome] = report.transmit_outcomes.get(outcome, 0) + n
        label = sent_as[source, frame_hex] = cached_label(frame_hex, destination)
        if outcome == "sent":
            report.frames_sent[label] = report.frames_sent.get(label, 0) + n

    positions = np.flatnonzero(kind_code == 2)
    for position, index in zip(positions.tolist(), tails[positions].tolist()):
        time_ns = times[position]
        kind, source, destination, _, outcome = table[index]
        if kind == "tcas":
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
        else:  # nmac
            until = NOTE_READS["window"](parse_note(outcome))
            report.nmac_windows.append([source, destination, time_ns, until])

    for (kind, source, destination, frame_hex, outcome), n in zip(table, counts):
        if kind != "deliver" or not n:
            continue
        link = f"{source}>{destination}"
        stats = report.links.get(link)
        if stats is None:
            stats = report.links[link] = {"attempts": 0, "decoded": 0, "lost": 0}
        stats["attempts"] += n
        if outcome in LOSS_OUTCOMES:
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


def _fill_plan_errors(report: MetricsReport, scenario: Scenario) -> None:
    atk = scenario.attacker
    if atk is None or atk.mission != MISSION_PHANTOM:
        return
    epoch = next((t for t, phase in report.attack_phases if phase == "tracking"), None)
    if epoch is None:
        return
    victim = next(a.name for a in scenario.aircraft if a.icao == atk.target_icao)
    series = report.range_series.get(f"{victim}>{phantom_address(atk.target_icao):06x}", [])
    for t_ns, estimate in series:
        if t_ns < epoch:
            continue
        want = atk.plan.desired_range_nmi((t_ns - epoch) / NS_PER_S)
        report.plan_error_series.append([t_ns, estimate, want, estimate - want])


# -- simulation --------------------------------------------------------------------

@dataclass
class SimulationResult:
    records: EventLog
    report: MetricsReport


def simulate(scenario: Scenario) -> SimulationResult:
    """Run to the scenario horizon and measure.

    Near-midair windows are computed analytically from the piecewise-linear
    trajectories (no sampling grid) and put in the log as ``nmac`` records,
    keeping the report a pure function of the log.  Each goes after every
    record of its time already there, the place a stable sort by time of
    the run's records followed by the windows would give it.
    """
    world, entities = build_world(scenario)
    world.run_until(scenario.duration_ns)

    log = world.log
    for a, b in combinations(scenario.aircraft, 2):
        windows = nmac_intervals(entities[a.name].segments, entities[b.name].segments,
                                 scenario.duration_ns)
        for on_ns, off_ns in windows:
            log.insert(bisect_right(log.times, on_ns),
                       LogRecord(on_ns, "nmac", a.name, b.name, "-", note("window", until=off_ns)))
    return SimulationResult(log, metrics_from_log(log, scenario))


# -- channel characterization --------------------------------------------------------

@dataclass(frozen=True)
class LossPoint:
    snr_db: float  # inf for zero noise, still run through the modem
    samples: int
    lost: int

    @property
    def loss_fraction(self) -> float:
        return self.lost / self.samples


def _corpus(seed: int, size: int) -> list[codec.ModeSFrame]:
    """Deterministic mixed-format frame corpus; every builder exercised."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0DEC]))
    addr = lambda: int(rng.integers(1, 0xFFFFFF))
    alt = lambda: float(rng.integers(0, 8192) * 25)
    builders = [
        lambda: codec.build_interrogation("all_call"),
        lambda: codec.build_interrogation("surveillance_short", addr()),
        lambda: codec.build_interrogation("surveillance_long", addr(),
                                          rac=int(rng.integers(0, 4)),
                                          ra_active=bool(rng.integers(0, 2)),
                                          sender=addr()),
        lambda: codec.build_reply("all_call", addr()),
        lambda: codec.build_reply("surveillance_short", addr(), altitude_ft=alt()),
        lambda: codec.build_reply("surveillance_long", addr(), altitude_ft=alt(),
                                  rac=int(rng.integers(0, 4)),
                                  ra_active=bool(rng.integers(0, 2))),
        lambda: codec.build_reply("extended_squitter", addr(), altitude_ft=alt()),
    ]
    return [builders[i % len(builders)]() for i in range(size)]


def loss_sweep(scenario: Scenario, snr_list: list[float],
               corpus_size: int = 600) -> list[LossPoint]:
    """Frame loss through the modem chain at each SNR, smallest first.

    One ``AwgnChannel`` built with all the SNRs and the sweep's noise seed
    receives the corpus in order, frame k 1 ms after frame k - 1, once for
    all the SNRs, +inf (exact zero noise) included.  So each point is what
    a channel of that SNR alone gives, frame k takes the same draws at
    every SNR, and the loss column is monotone in substance.  An SNR with
    no finite noise power (a ``phy.PhyError``) or an empty corpus is a
    ValueError, raised before any frame is received.
    """
    if corpus_size < 1:
        raise ValueError(f"corpus size must be at least 1, got {corpus_size}")
    snrs = sorted(snr_list)
    if not snrs:
        return []
    noise_seed = int(np.random.SeedSequence([scenario.seed, 0x51EE]).generate_state(1)[0])
    channel = AwgnChannel(snrs, noise_seed)
    spacing_ns = NS_PER_S // 1000  # 1 ms apart; airtimes are two decades shorter

    lost = [0] * len(snrs)
    for k, sent in enumerate(_corpus(scenario.seed, corpus_size)):
        for j, got in enumerate(channel.receive(sent, k * spacing_ns)):  # one per SNR
            # a frame counts only if it arrived and decoded to exactly the bits sent
            if got is None or got[0] != sent:
                lost[j] += 1
    return [LossPoint(snr_db, corpus_size, n) for snr_db, n in zip(snrs, lost)]


def loss_table_csv(points: list[LossPoint]) -> str:
    lines = ["snr_db,samples,lost,loss_fraction"]
    for p in points:
        lines.append(f"{p.snr_db:.10g},{p.samples},{p.lost},{p.loss_fraction:.10g}")
    return "\n".join(lines) + "\n"


# -- risk tables ------------------------------------------------------------------------

def fta_report(document: dict) -> tuple[fta.Sweep, str]:
    """Evaluate a factor document into a sweep and its CSV rendering.

    The document may carry ``factors`` (single-point evaluation), ``grid``
    (cross-product sweep), and ``overrides`` (replacements for the basic
    events n and o that also switch on the attack mapping), each a JSON
    object.  The empty document yields the all-defaults row.
    """
    if not isinstance(document, dict):
        raise fta.FtaError("a risk document must be a JSON object")
    for key, value in document.items():
        if key not in ("factors", "grid", "overrides"):
            raise fta.FtaError(f"unknown risk document field {key!r}")
        if not isinstance(value, dict):
            raise fta.FtaError(f"risk document field {key!r} must be an object")
    grid = {name: [value] for name, value in document.get("factors", {}).items()}
    grid.update(document.get("grid", {}))
    sweep = fta.sensitivity_sweep(grid=grid, overrides=document.get("overrides"))
    return sweep, fta.sweep_to_csv(sweep)
