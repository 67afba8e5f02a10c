"""Scenario documents: schema, validation, bundled fixtures, world assembly.

A scenario is a JSON object with an explicit ``schema_version`` so fixtures
stay diff-friendly and loudly reject drift.  Validation is strict: unknown
fields are errors, and every error message names the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from . import modes_codec as codec
from .airspace import (
    NS_PER_S,
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
    """A number of seconds small enough to count in nanoseconds."""
    value = _number(where, obj, key, default, required=required)
    if value is not None and not math.isfinite(value * NS_PER_S):
        raise ScenarioError(f"{where}: field {key!r} is too large to count in nanoseconds")
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


def _icao(where: str, text: str) -> int:
    try:
        value = int(text, 16)
    except (TypeError, ValueError):
        raise ScenarioError(f"{where}: not a hex transponder address: {text!r}") from None
    try:
        return codec.validate_icao(value)
    except codec.CodecError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _check_altitude(where: str, altitude_ft: float) -> None:
    """Altitudes that frames will carry must fit the codec's altitude field."""
    try:
        codec.encode_altitude(altitude_ft)
    except codec.CodecError as exc:
        raise ScenarioError(f"{where}: field 'altitude_ft': {exc}") from None


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
    mode: str = MODE_TA_RA
    squitter: bool = True
    pilot: PilotModel = PilotModel()


@dataclass(frozen=True)
class AttackerSpec:
    name: str
    mission: str
    position: Position
    target_icao: int | None = None
    plan: PhantomPlan = PhantomPlan()
    bait_timeout_s: float = DEFAULT_BAIT_TIMEOUT_S
    flood: FloodPlan = FloodPlan()
    jams: tuple[JamDirective, ...] = ()


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
    try:
        surveillance_interval_ns(period_s)
    except SimError as exc:
        raise ScenarioError(f"scenario: field 'surveillance_period_s': {exc}") from None

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
        return _number("channel", obj, "snr_db", required=True)
    raise ScenarioError(f"channel: unknown kind {kind!r}")


def _parse_aircraft(where: str, obj: dict, duration_s: float) -> AircraftSpec:
    _check_keys(where, obj, {"name", "icao", "mode", "squitter",
                             "position", "velocity", "pilot"})
    name = _entity_name(where, obj)
    icao = _icao(where, _string(where, obj, "icao", required=True))
    mode = _string(where, obj, "mode", MODE_TA_RA)
    if mode not in MODES:
        raise ScenarioError(f"{where}: unknown mode {mode!r}")
    squitter = obj.get("squitter", True)
    if not isinstance(squitter, bool):
        raise ScenarioError(f"{where}: field 'squitter' must be a boolean")
    state = _state(where, obj)
    _check_altitude(f"{where}.position", state.altitude_ft)
    # scripted motion is linear, so its states at both ends bound the run
    try:
        end = step_kinematics(state, duration_s)
    except SimError as exc:  # a finite velocity can still overflow a coordinate
        raise ScenarioError(f"{where}.velocity: velocity takes the aircraft out of range "
                            f"by duration_s: {exc}") from None
    try:
        codec.encode_altitude(end.altitude_ft)
    except codec.CodecError as exc:
        raise ScenarioError(f"{where}.velocity: field 'vertical_rate_fpm' takes the altitude "
                            f"out of the codec's range by duration_s: {exc}") from None
    pilot = PilotModel()
    if "pilot" in obj:
        _check_keys(f"{where}.pilot", obj["pilot"], {"delay_s", "rate_fpm"})
        pilot = PilotModel(
            _seconds(f"{where}.pilot", obj["pilot"], "delay_s", PilotModel.delay_s),
            _number(f"{where}.pilot", obj["pilot"], "rate_fpm", PilotModel.rate_fpm))
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


def _parse_attacker(where: str, obj: dict, aircraft: tuple[AircraftSpec, ...],
                    duration_s: float) -> AttackerSpec:
    _check_keys(where, obj, {"name", "mission", "position", "target", "plan",
                             "bait_timeout_s", "flood", "jam"})
    name = _entity_name(where, obj)
    mission = _string(where, obj, "mission", required=True)
    if mission not in MISSIONS:
        raise ScenarioError(f"{where}: unknown mission {mission!r}")
    position = _position(where, obj)

    target = None
    if mission == MISSION_PHANTOM:
        target = _icao(where, _string(where, obj, "target", required=True))
        if target not in {a.icao for a in aircraft}:
            raise ScenarioError(f"{where}: field 'target' names no aircraft in the scenario")
        try:
            phantom_address(target)
        except SimError as exc:
            raise ScenarioError(f"{where}: field 'target': {exc}") from None
    elif "target" in obj:
        raise ScenarioError(f"{where}: field 'target' only applies to the phantom mission")

    plan = PhantomPlan()
    if "plan" in obj:
        if mission != MISSION_PHANTOM:
            raise ScenarioError(f"{where}: field 'plan' only applies to the phantom mission")
        p = obj["plan"]
        _check_keys(f"{where}.plan", p, {"initial_range_nmi", "closure_kt",
                                         "floor_nmi", "altitude_ft"})
        plan = PhantomPlan(
            _number(f"{where}.plan", p, "initial_range_nmi", PhantomPlan.initial_range_nmi),
            _number(f"{where}.plan", p, "closure_kt", PhantomPlan.closure_kt),
            _number(f"{where}.plan", p, "floor_nmi", PhantomPlan.floor_nmi),
            _number(f"{where}.plan", p, "altitude_ft", PhantomPlan.altitude_ft))
        _check_altitude(f"{where}.plan", plan.altitude_ft)
        _check_plan_ranges(f"{where}.plan", plan, duration_s)

    flood = FloodPlan()
    if "flood" in obj:
        if mission == MISSION_PHANTOM:
            raise ScenarioError(f"{where}: field 'flood' only applies to flood missions")
        f, flood_where = obj["flood"], f"{where}.flood"
        _check_keys(flood_where, f, {"rate_hz", "duration_s", "address_base"})
        rate = _number(flood_where, f, "rate_hz", FloodPlan.rate_hz)
        duration = _seconds(flood_where, f, "duration_s", FloodPlan.duration_s)
        if rate <= 0 or duration <= 0:
            raise ScenarioError(f"{flood_where}: rate_hz and duration_s must be positive")
        base = FloodPlan.address_base
        if "address_base" in f:
            base = _icao(flood_where, _string(flood_where, f, "address_base"))
        flood = FloodPlan(rate, duration, base)
        # the flood timer re-arms every period_ns, so a zero period never lets time advance
        if not math.isfinite(NS_PER_S / rate) or flood.period_ns < 1:
            raise ScenarioError(f"{flood_where}: field 'rate_hz' must give a finite period "
                                f"of at least 1 ns")
        if mission == MISSION_SQUITTER_FLOOD and base + flood.frames - 1 > 0xFFFFFF:
            raise ScenarioError(f"{flood_where}: field 'address_base' leaves too few addresses "
                                f"for {flood.frames} squitters within 24 bits")

    jam_docs = obj.get("jam", [])
    if not isinstance(jam_docs, list):
        raise ScenarioError(f"{where}: field 'jam' must be a list")
    jams = []
    for i, j in enumerate(jam_docs):
        jam_where = f"{where}.jam[{i}]"
        _check_keys(jam_where, j, {"target", "start_s", "end_s"})
        target_icao = _icao(jam_where, _string(jam_where, j, "target", required=True))
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
        try:
            compute_reply_delay(0.0, range_nmi)
        except OverflowError:
            raise ScenarioError(f"{where}: field {key!r} asks for a reply hold too long "
                                f"to count in nanoseconds") from None


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
