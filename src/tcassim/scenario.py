"""Scenario documents: schema, validation, bundled fixtures, world assembly.

A scenario is a JSON object with an explicit ``schema_version`` so fixtures
stay diff-friendly and loudly reject drift.  Validation is strict: unknown
fields are errors, and every error message names the offending field.

Each schema fact has one reader.  A plan (``PilotModel``, ``PhantomPlan``,
``FloodPlan``) is read by ``_record``: its keys are the dataclass's fields
and an absent key takes the dataclass's default.  A transponder address is
read by ``_address``.  A rule that lives in another module (the codec's
altitude range, a surveillance tick, the noise power of an SNR) is checked
by calling it inside ``_field``, which names the field it rejects.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

from . import modes_codec as codec
from . import phy
from .airspace import (
    NS_PER_S,
    TIME_LIMIT_NS,
    AircraftState,
    AwgnChannel,
    JamDirective,
    NoiselessChannel,
    Position,
    SimError,
    World,
    note,
    step_kinematics,
)
from .attacker import (
    DEFAULT_BAIT_TIMEOUT_S,
    MISSION_ALL_CALL_FLOOD,
    MISSION_PHANTOM,
    MISSION_SQUITTER_FLOOD,
    MISSIONS,
    PHASES,
    Attacker,
    FloodPlan,
    PhantomPlan,
    compute_reply_delay,
    phantom_address,
)
from .tcas import (
    DEFAULT_SURVEILLANCE_PERIOD_S,
    MODE_TA_RA,
    MODES,
    Aircraft,
    PilotModel,
    surveillance_interval_ns,
)

SCHEMA_VERSION = 1

# Per-entity start offset so periodic timers interleave instead of stacking
# on the same instant; purely deterministic.
START_STAGGER_NS = 37_000_000

# Success predicate name -> its verdict on a metrics report.
SUCCESS_PREDICATES = {
    "nmac_occurred": lambda r: r.nmac_occurred,
    "no_nmac": lambda r: not r.nmac_occurred,
    "no_advisories": lambda r: not r.advisories,
    "phases_complete": lambda r: [p for _, p in r.attack_phases] == list(PHASES),
    "track_evicted": lambda r: any(e[3] == note("track_drop", "evicted") for e in r.track_events),
    "flood_complete": lambda r: any(n[1] == "flood_complete" for n in r.attack_notes),
}


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario document."""


# -- document plumbing ---------------------------------------------------------

def _check_keys(where: str, obj: dict, allowed: set[str]) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"{where}: unknown field {key!r}")


def _number(where: str, obj: dict, key: str, default=None, *, required: bool = False):
    if key not in obj:
        if required:
            raise ScenarioError(f"{where}: missing field {key!r}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: field {key!r} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond float range
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{where}: field {key!r} must be finite")
    return value


def _seconds(where: str, obj: dict, key: str, default=None, *, required: bool = False):
    """A number of seconds small enough to count in the int64 nanoseconds
    of a logged time, either side of 0."""
    value = _number(where, obj, key, default, required=required)
    if value is not None and not abs(value * NS_PER_S) < TIME_LIMIT_NS:
        raise ScenarioError(f"{where}: field {key!r} is too large to count in "
                            "int64 nanoseconds")
    return value


def _string(where: str, obj: dict, key: str, default=None, *, required: bool = False):
    if key not in obj:
        if required:
            raise ScenarioError(f"{where}: missing field {key!r}")
        return default
    value = obj[key]
    if not isinstance(value, str):
        raise ScenarioError(f"{where}: field {key!r} must be a string")
    return value


def _entity_name(where: str, obj: dict) -> str:
    """An entity's name.  Log lines carry it, so it must be printable
    ASCII without commas."""
    name = _string(where, obj, "name", required=True)
    if not (name.isascii() and name.isprintable()) or "," in name:
        raise ScenarioError(f"{where}: field 'name' must be printable ASCII "
                            f"without commas, got {name!r}")
    return name


def _address(where: str, obj: dict, key: str, *, required: bool = False) -> int | None:
    """The 24-bit transponder address in field ``key``, read by the codec's
    rule: exactly 6 hex digits."""
    text = _string(where, obj, key, required=required)
    if text is None:
        return None
    with _field(where, key):
        return codec.parse_address(text)


@contextmanager
def _field(where: str, key: str, why: str = ""):
    """A rule the body breaks, raised as a ScenarioError that names field
    ``key`` of ``where``; ``why`` says how the field breaks it where the
    rule's own words do not."""
    try:
        yield
    except (SimError, codec.CodecError, phy.PhyError) as exc:
        raise ScenarioError(f"{where}: field {key!r}{' ' + why if why else ''}: {exc}") from None


def _record(where: str, obj: dict, cls, **read):
    """A ``cls`` from the object ``obj``, whose keys are ``cls``'s fields.  An
    absent key takes ``cls``'s default; a present one is read by
    ``read[key]``, or as a number."""
    _check_keys(where, obj, {f.name for f in fields(cls)})
    return cls(**{key: read.get(key, _number)(where, obj, key) for key in obj})


def _position(where: str, obj: dict) -> Position:
    """The ``position`` field of the entity ``obj``."""
    if "position" not in obj:
        raise ScenarioError(f"{where}: missing field 'position'")
    where, position = f"{where}.position", obj["position"]
    _check_keys(where, position, {"x_nmi", "y_nmi", "altitude_ft"})
    return tuple(_number(where, position, key, required=True)
                 for key in ("x_nmi", "y_nmi", "altitude_ft"))


def _state(where: str, obj: dict) -> AircraftState:
    """The aircraft ``obj``'s state; no ``velocity`` field is at rest."""
    position = _position(where, obj)
    where, velocity = f"{where}.velocity", obj.get("velocity", {})
    _check_keys(where, velocity, {"vx_kt", "vy_kt", "vertical_rate_fpm"})
    return AircraftState(*position, *(_number(where, velocity, key, 0.0)
                                      for key in ("vx_kt", "vy_kt", "vertical_rate_fpm")))


# -- validated configuration ----------------------------------------------------

@dataclass(frozen=True)
class AircraftSpec:
    name: str
    icao: int
    state: AircraftState
    mode: str
    squitter: bool
    pilot: PilotModel


@dataclass(frozen=True)
class AttackerSpec:
    name: str
    mission: str
    position: Position
    target_icao: int | None
    plan: PhantomPlan
    bait_timeout_s: float
    flood: FloodPlan
    jams: tuple[JamDirective, ...]


@dataclass(frozen=True)
class Scenario:
    name: str
    duration_s: float
    aircraft: tuple[AircraftSpec, ...]
    attacker: AttackerSpec | None = None
    surveillance_period_s: float = DEFAULT_SURVEILLANCE_PERIOD_S
    snr_db: float = math.inf  # inf: the noiseless channel
    seed: int = 0
    success: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # here, so that a seed given by replace() is checked as well
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ScenarioError("scenario: field 'seed' must be a non-negative integer")

    @property
    def duration_ns(self) -> int:
        return round(self.duration_s * NS_PER_S)

    def without_attacker(self) -> "Scenario":
        """Control variant: same traffic, no transmitter on the ground."""
        return replace(self, attacker=None)


# -- loading ---------------------------------------------------------------------

def load_scenario(source) -> Scenario:
    """Load and validate a scenario from a dict, a JSON string, or a path."""
    if isinstance(source, dict):
        return _parse(source)
    if isinstance(source, Path):
        return _parse(json.loads(source.read_text()))
    if isinstance(source, str):
        text = source if source.lstrip().startswith("{") else Path(source).read_text()
        return _parse(json.loads(text))
    raise ScenarioError(f"cannot load a scenario from {type(source).__name__}")


def bundled_scenario_names() -> list[str]:
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_scenario(name: str) -> Scenario:
    path = resources.files(__package__) / "scenarios" / f"{name}.json"
    if not path.is_file():
        raise ScenarioError(
            f"no bundled scenario {name!r}; have {', '.join(bundled_scenario_names())}")
    return load_scenario(json.loads(path.read_text()))


def _parse(doc: dict) -> Scenario:
    _check_keys("scenario", doc, {
        "schema_version", "name", "duration_s", "surveillance_period_s",
        "seed", "channel", "aircraft", "attacker", "success"})
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"scenario: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    name = _string("scenario", doc, "name", required=True)

    duration_s = _seconds("scenario", doc, "duration_s", required=True)
    if duration_s <= 0:
        raise ScenarioError("scenario: duration_s must be positive")
    period_s = _seconds("scenario", doc, "surveillance_period_s", DEFAULT_SURVEILLANCE_PERIOD_S)
    with _field("scenario", "surveillance_period_s"):
        surveillance_interval_ns(period_s)

    snr_db = _parse_channel(doc.get("channel", {"kind": "noiseless"}))
    if snr_db != math.inf and "seed" not in doc:
        raise ScenarioError("scenario: field 'seed' is required with a noisy channel")
    seed = doc.get("seed", 0)

    aircraft_docs = doc.get("aircraft")
    if not isinstance(aircraft_docs, list) or not aircraft_docs:
        raise ScenarioError("scenario: field 'aircraft' must list at least one aircraft")
    aircraft = tuple(_parse_aircraft(f"aircraft[{i}]", item, duration_s)
                     for i, item in enumerate(aircraft_docs))
    names = [a.name for a in aircraft]
    icaos = [a.icao for a in aircraft]
    if len(set(names)) != len(names):
        raise ScenarioError("scenario: aircraft names must be unique")
    if len(set(icaos)) != len(icaos):
        raise ScenarioError("scenario: aircraft addresses must be unique")

    attacker = None
    if "attacker" in doc:
        attacker = _parse_attacker("attacker", doc["attacker"], aircraft, duration_s)
        if attacker.name in names:
            raise ScenarioError("attacker: field 'name' collides with an aircraft")

    success = doc.get("success", [])
    if not isinstance(success, list):
        raise ScenarioError("scenario: field 'success' must be a list")
    for pred in success:
        if not isinstance(pred, str) or pred not in SUCCESS_PREDICATES:
            raise ScenarioError(
                f"scenario: unknown success predicate {pred!r}; "
                f"have {', '.join(sorted(SUCCESS_PREDICATES))}")

    return Scenario(name=name, duration_s=duration_s, aircraft=aircraft,
                    attacker=attacker, surveillance_period_s=period_s,
                    snr_db=snr_db, seed=seed, success=tuple(success))


def _parse_channel(obj: dict) -> float:
    """The channel's SNR in dB, inf for the noiseless channel."""
    _check_keys("channel", obj, {"kind", "snr_db"})
    kind = _string("channel", obj, "kind", required=True)
    if kind == "noiseless":
        if "snr_db" in obj:
            raise ScenarioError("channel: field 'snr_db' only applies to kind 'awgn'")
        return math.inf
    if kind == "awgn":
        snr_db = _number("channel", obj, "snr_db", required=True)
        with _field("channel", "snr_db"):
            phy.noise_power(snr_db)
        return snr_db
    raise ScenarioError(f"channel: unknown kind {kind!r}")


def _parse_aircraft(where: str, obj: dict, duration_s: float) -> AircraftSpec:
    _check_keys(where, obj, {"name", "icao", "mode", "squitter",
                             "position", "velocity", "pilot"})
    name = _entity_name(where, obj)
    icao = _address(where, obj, "icao", required=True)
    mode = _string(where, obj, "mode", MODE_TA_RA)
    if mode not in MODES:
        raise ScenarioError(f"{where}: unknown mode {mode!r}")
    squitter = obj.get("squitter", True)
    if not isinstance(squitter, bool):
        raise ScenarioError(f"{where}: field 'squitter' must be a boolean")
    state = _state(where, obj)
    with _field(f"{where}.position", "altitude_ft"):
        codec.encode_altitude(state.altitude_ft)
    # scripted motion is linear, so its states at both ends bound the run
    with _field(where, "velocity", "takes the aircraft out of range by duration_s"):
        end = step_kinematics(state, duration_s)
    with _field(f"{where}.velocity", "vertical_rate_fpm",
                "takes the altitude out of the codec's range by duration_s"):
        codec.encode_altitude(end.altitude_ft)
    pilot = _record(f"{where}.pilot", obj.get("pilot", {}), PilotModel, delay_s=_seconds)
    if pilot.delay_s < 0:
        raise ScenarioError(f"{where}.pilot: field 'delay_s' must not be negative")
    if pilot.rate_fpm <= 0:
        raise ScenarioError(f"{where}.pilot: field 'rate_fpm' must be positive")
    # the level-off instant is counted in ns; twice the codec's altitude
    # range bounds how far an advisory's limit can be
    if not math.isfinite(2 * codec.ALTITUDE_MAX_FT / pilot.rate_fpm * 60 * NS_PER_S):
        raise ScenarioError(f"{where}.pilot: field 'rate_fpm' is too small to level off "
                            f"in a countable number of nanoseconds")
    return AircraftSpec(name, icao, state, mode, squitter, pilot)


# attacker fields that only some missions take -> those missions, as an error names them
MISSION_FIELDS = {"target": ({MISSION_PHANTOM}, "the phantom mission"),
                  "plan": ({MISSION_PHANTOM}, "the phantom mission"),
                  "flood": ({MISSION_ALL_CALL_FLOOD, MISSION_SQUITTER_FLOOD}, "flood missions")}


def _parse_attacker(where: str, obj: dict, aircraft: tuple[AircraftSpec, ...],
                    duration_s: float) -> AttackerSpec:
    _check_keys(where, obj, {"name", "mission", "position", "target", "plan",
                             "bait_timeout_s", "flood", "jam"})
    name = _entity_name(where, obj)
    mission = _string(where, obj, "mission", required=True)
    if mission not in MISSIONS:
        raise ScenarioError(f"{where}: unknown mission {mission!r}")
    for key, (missions, takers) in MISSION_FIELDS.items():
        if key in obj and mission not in missions:
            raise ScenarioError(f"{where}: field {key!r} only applies to {takers}")
    position = _position(where, obj)

    target = _address(where, obj, "target", required=mission == MISSION_PHANTOM)
    if mission == MISSION_PHANTOM:
        if target not in {a.icao for a in aircraft}:
            raise ScenarioError(f"{where}: field 'target' names no aircraft in the scenario")
        with _field(where, "target"):
            phantom_address(target)

    plan = _record(f"{where}.plan", obj.get("plan", {}), PhantomPlan)
    with _field(f"{where}.plan", "altitude_ft"):
        codec.encode_altitude(plan.altitude_ft)
    _check_plan_ranges(f"{where}.plan", plan, duration_s)

    flood_where = f"{where}.flood"
    flood = _record(flood_where, obj.get("flood", {}), FloodPlan,
                    duration_s=_seconds, address_base=_address)
    if flood.rate_hz <= 0 or flood.duration_s <= 0:
        raise ScenarioError(f"{flood_where}: rate_hz and duration_s must be positive")
    # the flood timer re-arms every period_ns, so a zero period never lets time advance
    if not math.isfinite(NS_PER_S / flood.rate_hz) or flood.period_ns < 1:
        raise ScenarioError(f"{flood_where}: field 'rate_hz' must give a finite period "
                            f"of at least 1 ns")
    if mission == MISSION_SQUITTER_FLOOD and flood.address_base + flood.frames - 1 > 0xFFFFFF:
        raise ScenarioError(f"{flood_where}: field 'address_base' leaves too few addresses "
                            f"for {flood.frames} squitters within 24 bits")

    jam_docs = obj.get("jam", [])
    if not isinstance(jam_docs, list):
        raise ScenarioError(f"{where}: field 'jam' must be a list")
    jams = []
    for i, j in enumerate(jam_docs):
        jam_where = f"{where}.jam[{i}]"
        _check_keys(jam_where, j, {"target", "start_s", "end_s"})
        target_icao = _address(jam_where, j, "target", required=True)
        start_s = _seconds(jam_where, j, "start_s", required=True)
        end_s = None if j.get("end_s") is None else _seconds(jam_where, j, "end_s")
        if start_s < 0 or (end_s is not None and end_s <= start_s):
            raise ScenarioError(f"{jam_where}: window must satisfy 0 <= start_s < end_s")
        jams.append(JamDirective(target_icao, round(start_s * NS_PER_S),
                                 None if end_s is None else round(end_s * NS_PER_S)))

    bait_timeout_s = _seconds(where, obj, "bait_timeout_s", DEFAULT_BAIT_TIMEOUT_S)
    if bait_timeout_s < 0:
        raise ScenarioError(f"{where}: field 'bait_timeout_s' must not be negative")
    return AttackerSpec(name, mission, position, target, plan, bait_timeout_s,
                        flood, tuple(jams))


def _check_plan_ranges(where: str, plan: PhantomPlan, duration_s: float) -> None:
    """Every range the plan asks for must need a reply hold that counts in
    nanoseconds.  The scripted range is linear in time and held at the
    floor, so it is largest at one end of the run."""
    if plan.floor_nmi < 0:
        raise ScenarioError(f"{where}: field 'floor_nmi' must not be negative")
    for key, range_nmi in (("floor_nmi", plan.floor_nmi),
                           ("initial_range_nmi", plan.desired_range_nmi(0.0)),
                           ("closure_kt", plan.desired_range_nmi(duration_s))):
        with _field(where, key, "asks for a reply hold too long to count in nanoseconds"):
            compute_reply_delay(0.0, range_nmi)


# -- world assembly --------------------------------------------------------------

def build_world(scenario: Scenario) -> tuple[World, dict]:
    """Instantiate and arm every entity; returns the world and a name index."""
    channel = (NoiselessChannel() if scenario.snr_db == math.inf
               else AwgnChannel(scenario.snr_db, scenario.seed))
    world = World(channel=channel)

    entities: dict[str, object] = {}
    by_icao: dict[int, Aircraft] = {}
    for idx, spec in enumerate(scenario.aircraft):
        craft = Aircraft(spec.name, spec.icao, spec.state, mode=spec.mode,
                         pilot=spec.pilot, squitter=spec.squitter,
                         surveillance_period_s=scenario.surveillance_period_s)
        world.add_entity(craft)
        craft.start(world, phase_ns=idx * START_STAGGER_NS)
        entities[spec.name] = craft
        by_icao[spec.icao] = craft

    spec = scenario.attacker
    if spec is not None:
        attacker = Attacker(spec.name, spec.position, mission=spec.mission,
                            target=by_icao.get(spec.target_icao), plan=spec.plan,
                            bait_timeout_s=spec.bait_timeout_s, flood=spec.flood)
        world.add_entity(attacker)
        for jam in spec.jams:
            world.add_jam(jam)
        attacker.start(world)
        entities[spec.name] = attacker

    return world, entities
