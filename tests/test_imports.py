"""Every module-level import in the package is used or re-exported, and
rules keep their one home: only ``airspace`` names the speed of light and
the nautical mile or calls ``record``, only ``modes_codec`` states a frame
length, and no call passes a ``destination=``, as the World reads a
transmit's destination from the frame.  Only ``modes_codec`` constructs a
frame, so every builder goes through its shared-frame cache, and no
module imports ``gc``, as library code leaves the cyclic collector, a
switch of the whole interpreter, to its caller.  No ``or`` falls back to
a default plan, as plans default where they are declared.  The scenario
loader reads no plan class's defaults, and only its ``_field`` turns a
broken rule into a ScenarioError.  Outside ``phy``, only
``airspace.decode_reception`` reads a frame detector or demodulator, so
every reception takes one detect-and-decode path.  ``harness`` knows
nothing of the modem: the loss sweep receives through one ``AwgnChannel``,
built with all its SNRs before its frame loop, so it walks its corpus
once.  Within ``tcas`` only ``resolve`` reads the
advisory thresholds, so the advisory rule has one home; outside it only
``attacker`` imports and reads one, ``TAU_TA_S``, as its threat
declaration models the victim's TA gate.

The repository runs no linter, so this stands in for those rules.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import tcassim

MODULES = sorted(Path(tcassim.__file__).parent.glob("*.py"))
TIME_OF_FLIGHT_NAMES = {"SPEED_OF_LIGHT_M_S", "METERS_PER_NMI"}
FRAME_LENGTHS = {56, 112}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level import that no name in the module
    reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used | exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def time_of_flight_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name, attribute or import of the time-of-flight
    constants."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, a.name) for a in node.names]
    return [(line, name) for line, name in found if name in TIME_OF_FLIGHT_NAMES]


def frame_length_literals(source: str) -> list[tuple[int, int]]:
    """(line, value) of each int literal that is a frame length."""
    return [(n.lineno, n.value) for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Constant) and type(n.value) is int and n.value in FRAME_LENGTHS]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "airspace"],
                         ids=lambda p: p.name)
def test_only_airspace_names_the_time_of_flight_constants(path):
    assert time_of_flight_names(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "modes_codec"],
                         ids=lambda p: p.name)
def test_only_the_codec_states_a_frame_length(path):
    assert frame_length_literals(path.read_text()) == []


def record_calls(source: str) -> list[int]:
    """Line of each call of an attribute named ``record``."""
    return [n.lineno for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "record"]


def destination_keywords(source: str) -> list[int]:
    """Line of each ``destination=`` keyword passed to a call."""
    return [k.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)
            for k in n.keywords if k.arg == "destination"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "airspace"],
                         ids=lambda p: p.name)
def test_only_airspace_calls_record(path):
    assert record_calls(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_call_passes_a_destination(path):
    assert destination_keywords(path.read_text()) == []


def gc_imports(source: str) -> list[int]:
    """Line of each import of the ``gc`` module or of a name from it."""
    return [n.lineno for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Import) and any(a.name == "gc" for a in n.names)
            or isinstance(n, ast.ImportFrom) and n.module == "gc"]


def frame_constructions(source: str) -> list[int]:
    """Line of each direct call of ``ModeSFrame``, bare or as an attribute."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)
            and (getattr(n.func, "id", None) == "ModeSFrame"
                 or getattr(n.func, "attr", None) == "ModeSFrame")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_gc(path):
    assert gc_imports(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "modes_codec"],
                         ids=lambda p: p.name)
def test_only_the_codec_constructs_a_frame(path):
    assert frame_constructions(path.read_text()) == []


def test_gc_and_frame_breaches_are_found():
    source = ("import gc\nimport os, gc as collector\nfrom gc import disable\n"
              "import gcx\nx = codec.ModeSFrame(d, 56, w)\ny = ModeSFrame(d, 56, w)\n"
              "z = codec.ModeSFrame.from_bits(bits, d)\nq = ModeSFrame\n")
    assert gc_imports(source) == [1, 2, 3]
    assert frame_constructions(source) == [5, 6]


PLAN_TYPES = {"PhantomPlan", "FloodPlan"}


def plan_fallbacks(source: str) -> list[int]:
    """Line of each ``or`` with a ``PhantomPlan(...)`` or ``FloodPlan(...)``
    among its operands."""
    def is_plan(node):
        return isinstance(node, ast.Call) and (getattr(node.func, "id", None) in PLAN_TYPES
                                               or getattr(node.func, "attr", None) in PLAN_TYPES)
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.BoolOp)
            and isinstance(n.op, ast.Or) and any(map(is_plan, n.values))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_or_falls_back_to_a_plan(path):
    assert plan_fallbacks(path.read_text()) == []


def test_plan_fallbacks_are_found():
    source = ("plan = plan or PhantomPlan()\nflood = flood or atk.FloodPlan(rate_hz=1)\n"
              "x = a or b\nplan = PhantomPlan() if plan is None else plan\n")
    assert plan_fallbacks(source) == [1, 2]


SCENARIO = Path(tcassim.__file__).parent / "scenario.py"
PLAN_CLASSES = {"PilotModel", "PhantomPlan", "FloodPlan"}
FIELD_ERRORS = {"SimError", "CodecError"}


def plan_default_reads(source: str) -> list[int]:
    """Line of each attribute read off a plan class, such as
    ``PilotModel.delay_s``."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute)
                  and (getattr(n.value, "id", None) in PLAN_CLASSES
                       or getattr(n.value, "attr", None) in PLAN_CLASSES))


def field_error_handlers(source: str) -> list[int]:
    """Line of each ``except`` outside ``_field`` that names a SimError or a
    CodecError, or that names an OverflowError and raises."""
    def names(node):
        types = node.elts if isinstance(node, ast.Tuple) else [node]
        return {getattr(t, "id", None) or getattr(t, "attr", None) for t in types}

    inside = set()
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.FunctionDef) and n.name == "_field":
            inside |= {id(h) for h in ast.walk(n)}
        elif isinstance(n, ast.ExceptHandler) and n.type is not None and id(n) not in inside:
            caught = names(n.type)
            raises = any(isinstance(b, ast.Raise) for b in ast.walk(n))
            if caught & FIELD_ERRORS or ("OverflowError" in caught and raises):
                found.append(n.lineno)
    return sorted(found)


def test_the_loader_reads_no_plan_default():
    # a plan's defaults are its dataclass's own, which _record leaves to it
    assert plan_default_reads(SCENARIO.read_text()) == []


def test_only_field_turns_a_rule_into_a_scenario_error():
    assert field_error_handlers(SCENARIO.read_text()) == []


def test_loader_breaches_are_found():
    source = """\
x = PilotModel.delay_s
y = attacker.FloodPlan.rate_hz
z = PhantomPlan()
w = plan.floor_nmi
@contextmanager
def _field(where, key):
    try:
        yield
    except (SimError, codec.CodecError, OverflowError) as exc:
        raise ScenarioError(str(exc))
def f():
    try:
        g()
    except codec.CodecError as exc:
        raise ScenarioError(str(exc))
    except (TypeError, SimError):
        pass
    except OverflowError:
        value = math.inf
    except OverflowError:
        raise ScenarioError('too long')
    except ValueError:
        raise ScenarioError('not hex')
"""
    assert plan_default_reads(source) == [1, 2]
    assert field_error_handlers(source) == [14, 16, 20]


def test_note_and_destination_breaches_are_found():
    source = ("world.record('tcas', name, '-', None, 'ta_issued')\nrecord(1)\n"
              "world.note(self, '-', 'engage', destination=1)\nrecord = x.record\n"
              "w.schedule_transmit(0, self,\n    frame, destination='*')\n")
    assert record_calls(source) == [1]
    assert destination_keywords(source) == [3, 6]


MODEM_RECEIVERS = {"ppm_frame_detect", "dbpsk_frame_detect", "ppm_demodulate",
                   "dbpsk_demodulate"}


def name_reads(source: str, names: set[str]) -> list[tuple[int, str | None]]:
    """(line, top-level def or class holding it) of each name, attribute or
    import of one of ``names``."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for n in ast.walk(top):
            name = (n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                    else n.name if isinstance(n, ast.alias) else None)
            if name in names:
                found.append((n.lineno, owner))
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "phy"],
                         ids=lambda p: p.name)
def test_only_decode_reception_detects_and_demodulates(path):
    owners = {"decode_reception"} if path.stem == "airspace" else set()
    uses = name_reads(path.read_text(), MODEM_RECEIVERS)
    assert [(line, owner) for line, owner in uses if owner not in owners] == []


HARNESS = Path(tcassim.__file__).parent / "harness.py"
MODEM_NAMES = {"noise", "phy", "transmission", "decode_reception", "noise_streams"}
CHANNELS = {"AwgnChannel", "NoiselessChannel"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def channel_builds(source: str) -> list[tuple[int, str | None, bool]]:
    """(line, top-level def or class holding it, whether a loop holds it) of
    each call of a channel class."""
    found = []

    def visit(node, owner, looped):
        if isinstance(node, ast.Call) and (getattr(node.func, "id", None) in CHANNELS
                                           or getattr(node.func, "attr", None) in CHANNELS):
            found.append((node.lineno, owner, looped))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, looped or isinstance(node, LOOPS))

    for top in ast.parse(source).body:
        visit(top, getattr(top, "name", None), False)
    return found


def test_harness_receives_through_one_channel():
    source = HARNESS.read_text()
    assert name_reads(source, MODEM_NAMES) == []
    assert [(owner, looped) for _, owner, looped in channel_builds(source)] == [
        ("loss_sweep", False)]


def test_modem_breaches_are_found():
    source = ("from .phy import ppm_demodulate\n\ndef decode_reception(x):\n"
              "    return phy.ppm_frame_detect(x)\n\nclass C:\n"
              "    def f(self, x):\n        return dbpsk_frame_detect(x)\n"
              "ppm_frame_detector = 1\n")
    assert name_reads(source, MODEM_RECEIVERS) == [(1, None), (4, "decode_reception"),
                                                   (8, "C")]


def test_channel_breaches_are_found():
    source = ("c = AwgnChannel(1.0, 0)\ndef sweep(frames):\n"
              "    channel = airspace.AwgnChannel([1.0], 0)\n    for f in frames:\n"
              "        NoiselessChannel().receive(f, 0)\n"
              "    return [AwgnChannel(s, 0) for s in (1.0,)]\nx = AwgnChannel\n")
    assert channel_builds(source) == [(1, None, False), (3, "sweep", False),
                                      (5, "sweep", True), (6, "sweep", True)]


THRESHOLDS = {"TAU_TA_S", "TAU_RA_S", "ALT_GATE_TA_FT", "ALT_GATE_RA_FT"}
# the one reader outside the rule: an import and a read of the TA tau gate
THRESHOLD_READS_ALLOWED = {"attacker": [(None, "TAU_TA_S"), ("Attacker", "TAU_TA_S")]}


def threshold_reads(source: str) -> list[tuple[int, str | None, str]]:
    """(line, top-level def or class holding it, name) of each read,
    attribute or import of an advisory threshold; the assignment that
    defines one is not a read."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for n in ast.walk(top):
            name = (n.id if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
                    else n.attr if isinstance(n, ast.Attribute)
                    else n.name if isinstance(n, ast.alias) else None)
            if name in THRESHOLDS:
                found.append((n.lineno, owner, name))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_advisory_rule_reads_the_thresholds(path):
    reads = [(owner, name) for _, owner, name in threshold_reads(path.read_text())
             if not (path.stem == "tcas" and owner == "resolve")]
    assert reads == THRESHOLD_READS_ALLOWED.get(path.stem, [])


def test_threshold_breaches_are_found():
    source = ("TAU_RA_S = 35.0\nfrom .tcas import TAU_TA_S, ALT_GATE_TA_FT\n"
              "def resolve(tau):\n    return tau <= TAU_RA_S\n"
              "class Aircraft:\n    def gate(self, gap):\n"
              "        return gap <= tcas.ALT_GATE_RA_FT\nLIMIT = TAU_RA_S * 2\n")
    assert threshold_reads(source) == [(2, None, "TAU_TA_S"), (2, None, "ALT_GATE_TA_FT"),
                                       (4, "resolve", "TAU_RA_S"),
                                       (7, "Aircraft", "ALT_GATE_RA_FT"), (8, None, "TAU_RA_S")]


def test_rule_breaches_are_found():
    source = ("from .airspace import METERS_PER_NMI\nfrom . import airspace\n"
              "x = airspace.SPEED_OF_LIGHT_M_S * 112\n# 56 in a comment\n"
              "y = (56.0, '56', 'SPEED_OF_LIGHT_M_S', 56)\n")
    assert time_of_flight_names(source) == [(1, "METERS_PER_NMI"), (3, "SPEED_OF_LIGHT_M_S")]
    assert frame_length_literals(source) == [(3, 112), (5, 56)]


def test_an_unused_import_is_found():
    source = ("from dataclasses import dataclass, field\nimport numpy as np\n"
              "import os.path\n__all__ = ['np']\n\n@dataclass\nclass A:\n    x: int = 0\n")
    assert unused_imports(source) == [(1, "field"), (3, "os")]
