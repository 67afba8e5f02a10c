"""Quantified fault-tree arithmetic for the collision-avoidance risk model.

Two printed component formulas drive everything: the unresolved-encounter
failure rate and the induced-collision failure rate, each affine in five
human-factor variables.  The source material prints two top-event
constants that disagree (the components sum to 0.523 while the combined
expression is printed with 0.424); both variants are computed and reported
side by side, and their difference is the constant 0.099 for every input
because the variable terms are identical.  Values above 1 are flagged, not
clamped: these are failure rates, and hiding the overflow would hide the
arithmetic being reproduced.

The phantom-aircraft attack enters through the visual-acquisition events:
with no physical aircraft to see, both visual-acquisition failures become
certainties, which feeds the human factors through a noisy-OR mapping
(a reconstruction: the printed formulas do not contain those events
directly).
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import asdict, dataclass, fields, replace

TOP_PUBLISHED_CONSTANT = 0.424
CONSTANT_GAP = 0.099

FACTOR_ORDER = ("vna", "vmir", "rnf", "tna", "ti")

PHANTOM_ATTACK_OVERRIDES = {"n": 1.0, "o": 1.0}


class FtaError(ValueError):
    """Out-of-range probability or undefined ratio."""


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FtaError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class BasicEvents:
    """Base-event probabilities from the original safety study.

    Only the visual-acquisition pair (n, o) feeds the printed component
    formulas, via the attack mapping; the rest are carried as data so
    sweeps can report and extend them.
    """

    a: float = 0.16      # IMC
    b: float = 0.7       # bright daylight
    c: float = 0.79      # GA encounter
    d: float = 0.92      # transponder equipage
    e: float = 0.61      # Mode C equipage
    f: float = 0.317     # GA altimetry risk ratio
    g: float = 0.0143    # altimetry error, unresolved
    h: float = 0.0174    # altimetry error, induced
    i: float = 0.027     # maneuvering-intruder risk ratio
    j: float = 0.06      # no track at TA time
    k: float = 0.03      # no track at RA time
    l: float = 0.002     # stuck C-bit
    m: float = 0.0001    # equipment failure
    n: float = 0.17      # no visual acquisition by 15 s before CPA
    o: float = 0.35      # no visual acquisition by RA time

    def __post_init__(self) -> None:
        for fld in fields(self):
            _check_unit(fld.name, getattr(self, fld.name))


@dataclass(frozen=True)
class HumanFactors:
    """Variable error terms of the component formulas."""

    vna: float = 0.0   # visual acquisition not achieved
    vmir: float = 0.0  # visual misjudgment, intruder maneuvering
    rnf: float = 0.0   # required maneuver not flown
    tna: float = 0.0   # traffic advisory not assimilated
    ti: float = 0.0    # incorrect maneuver flown

    def __post_init__(self) -> None:
        for fld in fields(self):
            _check_unit(fld.name.upper(), getattr(self, fld.name))


@dataclass(frozen=True)
class RiskReport:
    p_unresolved: float
    p_induced: float
    p_top_sum: float
    p_top_published: float
    risk_ratio: float
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["flags"] = list(self.flags)
        return d


def unresolved_component(hf: HumanFactors) -> float:
    return 0.413 + 0.259 * (hf.vna + hf.tna) + 0.327 * hf.rnf + 0.0008 * hf.vmir


def induced_component(hf: HumanFactors) -> float:
    return 0.11 + 0.014 * hf.vmir + 0.59 * hf.ti


def _published_form(hf: HumanFactors) -> float:
    # same variable terms as the component sum, but the printed constant
    return (TOP_PUBLISHED_CONSTANT + 0.259 * (hf.vna + hf.tna) + 0.327 * hf.rnf
            + 0.0008 * hf.vmir + 0.014 * hf.vmir + 0.59 * hf.ti)


def risk_ratio(p_with_tcas: float, p_without_tcas: float) -> float:
    if p_without_tcas <= 0.0:
        raise FtaError("risk ratio undefined for a nonpositive baseline")
    return p_with_tcas / p_without_tcas


def top_event(hf: HumanFactors, *, baseline_top: float | None = None) -> RiskReport:
    """Evaluate both printed top-event forms.

    ``baseline_top`` is the reference top-event probability for the ratio
    column; by itself a report compares against its own sum (ratio 1).
    """
    p_u = unresolved_component(hf)
    p_i = induced_component(hf)
    p_sum = p_u + p_i
    p_pub = _published_form(hf)
    flags = tuple(
        f"{name}>1" for name, value in (
            ("p_unresolved", p_u), ("p_induced", p_i),
            ("p_top_sum", p_sum), ("p_top_published", p_pub)) if value > 1.0)
    ratio = risk_ratio(p_sum, p_sum if baseline_top is None else baseline_top)
    return RiskReport(p_u, p_i, p_sum, p_pub, ratio, flags)


def apply_attack_mapping(events: BasicEvents, hf: HumanFactors) -> HumanFactors:
    """Fold the visual-acquisition events into the human factors.

    With a phantom intruder there is nothing to see: events n and o go to
    1, and each visual pathway fails if either its human factor or its
    basic event fails (noisy-OR).  This mapping is a reconstruction; the
    printed formulas do not reference n and o themselves.
    """
    return replace(
        hf,
        vna=1.0 - (1.0 - hf.vna) * (1.0 - events.n),
        vmir=1.0 - (1.0 - hf.vmir) * (1.0 - events.o),
    )


@dataclass(frozen=True)
class SweepRow:
    factors: HumanFactors
    events: BasicEvents
    report: RiskReport


def sensitivity_sweep(base: BasicEvents | None = None,
                      grid: dict[str, list[float]] | None = None,
                      overrides: dict[str, float] | None = None) -> list[SweepRow]:
    """Cross-product evaluation of the top event over a factor grid.

    ``grid`` maps human-factor names to value lists; factors absent from
    the grid stay 0.  ``overrides`` replaces basic-event probabilities and
    switches on the attack mapping; each row's risk ratio then compares
    the attacked top event against the same grid point without the attack.
    """
    base = base or BasicEvents()
    grid = grid or {}
    for name in grid:
        if name not in FACTOR_ORDER:
            raise FtaError(f"unknown human factor {name!r}")
    events = replace(base, **overrides) if overrides else base
    axes = [(name, list(grid[name])) for name in FACTOR_ORDER if name in grid]
    rows: list[SweepRow] = []
    for point in itertools.product(*(values for _, values in axes)):
        hf = HumanFactors(**{name: v for (name, _), v in zip(axes, point)})
        if overrides:
            mapped = apply_attack_mapping(events, hf)
            baseline = top_event(hf).p_top_sum
            report = top_event(mapped, baseline_top=baseline)
            rows.append(SweepRow(mapped, events, report))
        else:
            rows.append(SweepRow(hf, events, top_event(hf)))
    return rows


SWEEP_COLUMNS = list(FACTOR_ORDER) + [
    "n", "o", "p_unresolved", "p_induced", "p_top_sum", "p_top_published",
    "risk_ratio", "flags"]


def sweep_to_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        rec = [f"{getattr(row.factors, name):.10g}" for name in FACTOR_ORDER]
        rec += [f"{row.events.n:.10g}", f"{row.events.o:.10g}"]
        rep = row.report
        rec += [f"{v:.10g}" for v in (rep.p_unresolved, rep.p_induced,
                                      rep.p_top_sum, rep.p_top_published,
                                      rep.risk_ratio)]
        rec.append(";".join(rep.flags))
        writer.writerow(rec)
    return buf.getvalue()
