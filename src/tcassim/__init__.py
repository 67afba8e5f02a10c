"""Bit-level TCAS / Mode S simulation and attack analysis toolkit.

The package layers, bottom up: ``modes_codec`` (frames and parity),
``phy`` (waveform modems), ``airspace`` (event-driven world and channel),
``tcas`` (surveillance, advisories, pilot response), ``attacker`` (phantom
aircraft and flood missions), ``fta`` (fault-tree risk arithmetic),
``scenario`` and ``harness`` (declarative runs and metrics).  The names
most workflows need are re-exported here.
"""

from .airspace import (
    AircraftState,
    AwgnChannel,
    JamDirective,
    LogRecord,
    NoiselessChannel,
    SimError,
    World,
    read_event_log,
    write_event_log,
)
from .attacker import Attacker, FloodPlan, InfeasibleReply, PhantomPlan, compute_reply_delay
from .fta import (
    BasicEvents,
    FtaError,
    HumanFactors,
    RiskReport,
    apply_attack_mapping,
    sensitivity_sweep,
    top_event,
)
from .harness import (
    MetricsReport,
    SimulationResult,
    frame_label,
    loss_sweep,
    metrics_from_log,
    simulate,
)
from .modes_codec import (
    CodecError,
    DecodedFrame,
    ModeSFrame,
    build_interrogation,
    build_reply,
    crc24,
    parse_frame,
    verify_frame,
)
from .scenario import (
    Scenario,
    ScenarioError,
    build_world,
    bundled_scenario,
    bundled_scenario_names,
    load_scenario,
)
from .tcas import Aircraft, nmac_intervals

__all__ = [
    "Aircraft",
    "AircraftState",
    "Attacker",
    "AwgnChannel",
    "BasicEvents",
    "CodecError",
    "DecodedFrame",
    "FloodPlan",
    "FtaError",
    "HumanFactors",
    "InfeasibleReply",
    "JamDirective",
    "LogRecord",
    "MetricsReport",
    "ModeSFrame",
    "NoiselessChannel",
    "PhantomPlan",
    "RiskReport",
    "Scenario",
    "ScenarioError",
    "SimError",
    "SimulationResult",
    "World",
    "apply_attack_mapping",
    "build_interrogation",
    "build_reply",
    "build_world",
    "bundled_scenario",
    "bundled_scenario_names",
    "compute_reply_delay",
    "crc24",
    "frame_label",
    "load_scenario",
    "loss_sweep",
    "metrics_from_log",
    "nmac_intervals",
    "parse_frame",
    "read_event_log",
    "sensitivity_sweep",
    "simulate",
    "top_event",
    "verify_frame",
    "write_event_log",
]
