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

Each formula is written once and reads its factors by attribute, so it
evaluates one point and a whole sweep of numpy columns with the same
floating-point operations in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

TOP_PUBLISHED_CONSTANT = 0.424

FACTOR_ORDER = ("vna", "vmir", "rnf", "tna", "ti")

PHANTOM_ATTACK_OVERRIDES = {"n": 1.0, "o": 1.0}


class FtaError(ValueError):
    """Out-of-range probability, malformed input or undefined ratio."""


def _check_unit(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 1:
        raise FtaError(f"{name} must be a probability in [0, 1], got {value!r}")


@dataclass(frozen=True)
class BasicEvents:
    """The base-event probabilities from the original safety study that a
    formula reads: the visual-acquisition pair (n, o), which feeds the
    printed component formulas via the attack mapping.  The study's other
    base events, a to m, feed no formula and are not carried.
    """

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
class FactorColumns(HumanFactors):
    """One numpy column per factor; its values were checked once per grid axis."""

    def __post_init__(self) -> None:
        pass


@dataclass(frozen=True)
class RiskReport:
    """Floats and a flags tuple for one point; numpy columns for a sweep."""

    p_unresolved: float
    p_induced: float
    p_top_sum: float
    p_top_published: float
    risk_ratio: float
    flags: tuple[str, ...] = ()


def _unresolved_terms(start, hf: HumanFactors):
    return start + 0.259 * (hf.vna + hf.tna) + 0.327 * hf.rnf + 0.0008 * hf.vmir


def _induced_terms(start, hf: HumanFactors):
    return start + 0.014 * hf.vmir + 0.59 * hf.ti


def unresolved_component(hf: HumanFactors) -> float:
    return _unresolved_terms(0.413, hf)


def induced_component(hf: HumanFactors) -> float:
    return _induced_terms(0.11, hf)


def risk_ratio(p_with_tcas: float, p_without_tcas: float) -> float:
    if np.any(p_without_tcas <= 0.0):
        raise FtaError("risk ratio undefined for a nonpositive baseline")
    return p_with_tcas / p_without_tcas


_FLAGGED = ("p_unresolved", "p_induced", "p_top_sum", "p_top_published")
# entry m is the flags tuple of the _FLAGGED values whose bit is set in m
_FLAG_SETS = np.fromiter(
    (tuple(f"{name}>1" for bit, name in enumerate(_FLAGGED) if m >> bit & 1) for m in range(16)),
    dtype=object, count=16)


def top_event(hf: HumanFactors, *, baseline_top: float | None = None) -> RiskReport:
    """Evaluate both printed top-event forms.

    ``baseline_top`` is the reference top-event probability for the ratio
    column; by itself a report compares against its own sum (ratio 1).
    The published form is the same two term chains seeded with the
    printed constant, so its terms add in the same order as the sum's.
    """
    p_u = unresolved_component(hf)
    p_i = induced_component(hf)
    p_sum = p_u + p_i
    p_pub = _induced_terms(_unresolved_terms(TOP_PUBLISHED_CONSTANT, hf), hf)
    mask = sum((value > 1.0) * 2**bit for bit, value in enumerate((p_u, p_i, p_sum, p_pub)))
    ratio = risk_ratio(p_sum, p_sum if baseline_top is None else baseline_top)
    return RiskReport(p_u, p_i, p_sum, p_pub, ratio, _FLAG_SETS[mask])


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
class Sweep:
    """A sensitivity sweep as columns: mapped factors, shared events, report."""

    factors: FactorColumns
    events: BasicEvents
    report: RiskReport

    def __len__(self) -> int:
        return len(self.report.p_top_sum)

    def to_dicts(self) -> list[dict]:
        """One dict of report fields per row, ready for ``json.dumps``."""
        columns = {fld.name: getattr(self.report, fld.name).tolist()
                   for fld in fields(RiskReport)}
        return [dict(zip(columns, row)) for row in zip(*columns.values())]


def sensitivity_sweep(grid: dict[str, list[float]] | None = None,
                      overrides: dict[str, float] | None = None) -> Sweep:
    """Cross-product evaluation of the top event over a factor grid.

    ``grid`` maps human-factor names to value lists; factors absent from
    the grid stay 0, and the first factor of ``FACTOR_ORDER`` varies
    slowest.  ``overrides`` replaces n and o, the basic events the attack
    mapping reads, and switches that mapping on; each row's risk ratio then
    compares the attacked top event against the same grid point without
    the attack.  Overriding any other basic event is an FtaError, because
    no formula reads it.
    """
    grid = grid or {}
    for name, values in grid.items():
        if name not in FACTOR_ORDER:
            raise FtaError(f"unknown human factor {name!r}")
        if not isinstance(values, (list, tuple)):
            raise FtaError(f"grid {name!r} must be a list of probabilities, got {values!r}")
        for value in values:
            _check_unit(name.upper(), value)
    for name in overrides or {}:
        if name not in ("n", "o"):  # the events apply_attack_mapping reads
            raise FtaError(f"basic event {name!r} feeds no formula; only n and o can be overridden")
    events = BasicEvents(**(overrides or {}))
    axes = [np.array(grid.get(name, [0.0]), dtype=float) for name in FACTOR_ORDER]
    hf = FactorColumns(*(column.ravel() for column in np.meshgrid(*axes, indexing="ij")))
    if not overrides:
        return Sweep(hf, events, top_event(hf))
    mapped = apply_attack_mapping(events, hf)
    return Sweep(mapped, events, top_event(mapped, baseline_top=top_event(hf).p_top_sum))


SWEEP_COLUMNS = [*FACTOR_ORDER, "n", "o", *(fld.name for fld in fields(RiskReport))]


def _format_column(column: np.ndarray) -> list[str]:
    """``.10g`` text of each value, formatting each distinct value once.

    Values are told apart by their bits, so 0.0 and -0.0 keep their own
    text."""
    bits, inverse = np.unique(np.asarray(column, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    texts = np.array([f"{v:.10g}" for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def sweep_to_csv(sweep: Sweep) -> str:
    rep = sweep.report
    cells = [_format_column(getattr(sweep.factors, name)) for name in FACTOR_ORDER]
    cells += [[f"{value:.10g}"] * len(sweep) for value in (sweep.events.n, sweep.events.o)]
    cells += [_format_column(column) for column in (
        rep.p_unresolved, rep.p_induced, rep.p_top_sum, rep.p_top_published, rep.risk_ratio)]
    cells.append([";".join(flags) for flags in rep.flags])
    # no cell holds a comma, quote or newline, so no cell needs CSV quoting
    return "".join([",".join(row) + "\n" for row in (SWEEP_COLUMNS, *zip(*cells))])
