"""Fault-tree arithmetic: pinned component values, the constant gap between
the two printed top-event forms, overflow flagging, and sensitivity sweeps."""

from __future__ import annotations

import csv
import io
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tcassim import fta
from tcassim.fta import BasicEvents, FtaError, HumanFactors

EXACT = 1e-12


def random_factors(rng: random.Random) -> HumanFactors:
    return HumanFactors(*(round(rng.random(), 6) for _ in range(5)))


class TestComponents:
    def test_unresolved_all_factors_zero(self):
        assert fta.unresolved_component(HumanFactors()) == 0.413

    def test_unresolved_all_factors_one(self):
        hf = HumanFactors(vna=1, vmir=1, rnf=1, tna=1, ti=1)
        assert fta.unresolved_component(hf) == pytest.approx(1.2588, abs=EXACT)

    def test_unresolved_half_vna(self):
        hf = HumanFactors(vna=0.5)
        assert fta.unresolved_component(hf) == pytest.approx(0.5425, abs=EXACT)

    def test_induced_all_factors_zero(self):
        assert fta.induced_component(HumanFactors()) == 0.11

    def test_induced_all_factors_one(self):
        hf = HumanFactors(vmir=1, ti=1)
        assert fta.induced_component(hf) == pytest.approx(0.714, abs=EXACT)

    def test_induced_half_ti(self):
        assert fta.induced_component(HumanFactors(ti=0.5)) == pytest.approx(
            0.405, abs=EXACT)

    def test_components_match_exact_rational_arithmetic(self):
        rng = random.Random(0x46A1)
        for _ in range(200):
            hf = random_factors(rng)
            want_u, want_i = oracles.fault_tree_components(
                hf.vna, hf.vmir, hf.rnf, hf.tna, hf.ti)
            assert fta.unresolved_component(hf) == pytest.approx(
                float(want_u), abs=EXACT)
            assert fta.induced_component(hf) == pytest.approx(
                float(want_i), abs=EXACT)


class TestTopEvent:
    def test_baseline_report(self):
        report = fta.top_event(HumanFactors())
        assert report.p_unresolved == 0.413
        assert report.p_induced == 0.11
        assert report.p_top_sum == pytest.approx(0.523, abs=EXACT)
        assert report.p_top_published == 0.424
        assert report.risk_ratio == 1.0
        assert report.flags == ()

    def test_sum_form_is_exactly_additive(self):
        rng = random.Random(0x46A2)
        for _ in range(200):
            report = fta.top_event(random_factors(rng))
            assert report.p_top_sum == report.p_unresolved + report.p_induced

    def test_gap_between_forms_is_constant(self):
        # identical variable terms, so the disagreement never varies
        rng = random.Random(0x46A3)
        for _ in range(200):
            report = fta.top_event(random_factors(rng))
            gap = report.p_top_sum - report.p_top_published
            assert gap == pytest.approx(0.099, abs=EXACT)

    def test_values_above_one_are_flagged_not_clamped(self):
        hf = HumanFactors(vna=1, vmir=1, rnf=1, tna=1, ti=1)
        report = fta.top_event(hf)
        assert report.p_unresolved == pytest.approx(1.2588, abs=EXACT)
        assert report.p_top_sum == pytest.approx(1.9728, abs=EXACT)
        assert report.p_top_published == pytest.approx(1.8738, abs=EXACT)
        assert set(report.flags) == {
            "p_unresolved>1", "p_top_sum>1", "p_top_published>1"}

    def test_induced_alone_can_not_overflow(self):
        report = fta.top_event(HumanFactors(vmir=1, ti=1))
        assert "p_induced>1" not in report.flags
        assert report.p_induced < 1.0


class TestRiskRatio:
    def test_ratio_arithmetic(self):
        assert fta.risk_ratio(0.523, 0.523) == 1.0
        assert fta.risk_ratio(0.2, 0.1) == pytest.approx(2.0, abs=EXACT)
        assert fta.risk_ratio(0.0, 0.5) == 0.0

    @pytest.mark.parametrize("baseline", [0.0, -0.1])
    def test_nonpositive_baseline_is_undefined(self, baseline):
        with pytest.raises(FtaError):
            fta.risk_ratio(0.5, baseline)

    def test_report_ratio_against_explicit_baseline(self):
        report = fta.top_event(HumanFactors(ti=1.0), baseline_top=0.523)
        assert report.risk_ratio == pytest.approx(
            report.p_top_sum / 0.523, abs=EXACT)
        assert report.risk_ratio > 1.0


class TestValidation:
    @pytest.mark.parametrize("name", ["vna", "vmir", "rnf", "tna", "ti"])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_factor_out_of_range(self, name, value):
        with pytest.raises(FtaError):
            HumanFactors(**{name: value})

    @pytest.mark.parametrize("name,value", [("n", -0.01), ("o", 1.01)])
    def test_event_out_of_range(self, name, value):
        with pytest.raises(FtaError):
            BasicEvents(**{name: value})

    def test_event_defaults(self):
        ev = BasicEvents()
        assert (ev.n, ev.o) == (0.17, 0.35)

    def test_sweep_rejects_unknown_factor(self):
        with pytest.raises(FtaError):
            fta.sensitivity_sweep(grid={"mode": [0.0]})


class TestAttackMapping:
    def test_phantom_overrides_are_certainties(self):
        assert fta.PHANTOM_ATTACK_OVERRIDES == {"n": 1.0, "o": 1.0}

    def test_mapping_is_noisy_or(self):
        rng = random.Random(0x46A4)
        for _ in range(100):
            hf = random_factors(rng)
            ev = BasicEvents(n=round(rng.random(), 6), o=round(rng.random(), 6))
            mapped = fta.apply_attack_mapping(ev, hf)
            assert mapped.vna == pytest.approx(
                float(oracles.noisy_or(hf.vna, ev.n)), abs=EXACT)
            assert mapped.vmir == pytest.approx(
                float(oracles.noisy_or(hf.vmir, ev.o)), abs=EXACT)
            # untouched factors pass through
            assert (mapped.rnf, mapped.tna, mapped.ti) == (hf.rnf, hf.tna, hf.ti)

    def test_certain_events_saturate_the_factors(self):
        ev = BasicEvents(n=1.0, o=1.0)
        mapped = fta.apply_attack_mapping(ev, HumanFactors(vna=0.3, vmir=0.7))
        assert mapped.vna == 1.0
        assert mapped.vmir == 1.0

    def test_attacked_top_event_exceeds_baseline(self):
        ev = BasicEvents(n=1.0, o=1.0)
        mapped = fta.apply_attack_mapping(ev, HumanFactors())
        attacked = fta.top_event(mapped, baseline_top=0.523)
        assert attacked.p_top_sum == pytest.approx(0.7968, abs=EXACT)
        assert attacked.risk_ratio > 1.0


class TestSensitivitySweep:
    GRID = [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_empty_grid_gives_single_baseline_row(self):
        sweep = fta.sensitivity_sweep()
        assert len(sweep) == 1
        assert sweep.report.p_top_sum[0] == pytest.approx(0.523, abs=EXACT)
        assert sweep.report.risk_ratio[0] == 1.0

    def test_cross_product_order(self):
        sweep = fta.sensitivity_sweep(grid={"ti": [0.0, 1.0], "rnf": [0.0, 0.5]})
        # rnf is the slower axis regardless of dict insertion order
        points = list(zip(sweep.factors.rnf.tolist(), sweep.factors.ti.tolist()))
        assert points == [(0.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 1.0)]

    def test_monotone_in_each_factor(self):
        sweep = fta.sensitivity_sweep(grid={"rnf": self.GRID, "ti": self.GRID})
        n = len(self.GRID)
        top = sweep.report.p_top_sum
        for i in range(n):
            for j in range(n - 1):
                assert top[i * n + j] <= top[i * n + j + 1]      # along ti
                if i < n - 1:
                    assert top[i * n + j] <= top[(i + 1) * n + j]  # along rnf

    def test_attack_rows_strictly_exceed_unattacked(self):
        grid = {"rnf": self.GRID, "ti": self.GRID}
        plain = fta.sensitivity_sweep(grid=grid)
        attacked = fta.sensitivity_sweep(
            grid=grid, overrides=fta.PHANTOM_ATTACK_OVERRIDES)
        assert len(plain) == len(attacked) == 25
        assert (attacked.events.n, attacked.events.o) == (1.0, 1.0)
        for p_top, a_top, a_ratio in zip(plain.report.p_top_sum,
                                         attacked.report.p_top_sum,
                                         attacked.report.risk_ratio):
            assert a_top > p_top
            assert a_ratio == pytest.approx(a_top / p_top, abs=EXACT)
            assert a_ratio > 1.0

    def test_csv_layout(self):
        text = fta.sweep_to_csv(fta.sensitivity_sweep(grid={"rnf": [0.0, 1.0]}))
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == fta.SWEEP_COLUMNS
        assert len(parsed) == 3
        first = dict(zip(parsed[0], parsed[1]))
        assert first["p_unresolved"] == "0.413"
        assert first["p_induced"] == "0.11"
        assert first["p_top_sum"] == "0.523"
        assert first["p_top_published"] == "0.424"
        assert first["risk_ratio"] == "1"
        assert first["flags"] == ""
        # every numeric cell parses back as a float
        for row in parsed[1:]:
            for cell in row[:-1]:
                float(cell)

    def test_csv_is_deterministic(self):
        grid = {"vna": self.GRID, "ti": self.GRID}
        a = fta.sweep_to_csv(fta.sensitivity_sweep(grid=grid))
        b = fta.sweep_to_csv(fta.sensitivity_sweep(grid=grid))
        assert a == b

    def test_overflow_rows_carry_flags_in_csv(self):
        text = fta.sweep_to_csv(fta.sensitivity_sweep(grid={
            "vna": [1.0], "vmir": [1.0], "rnf": [1.0], "tna": [1.0]}))
        last = list(csv.reader(io.StringIO(text)))[-1]
        flags = dict(zip(fta.SWEEP_COLUMNS, last))["flags"]
        assert "p_unresolved>1" in flags.split(";")


PROBABILITY = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1]))


def bits(x) -> str:
    return float(x).hex()


class TestSweepMatchesScalarEvaluation:
    """Row r of a sweep is the scalar evaluation at that grid point, bit for bit,
    with the attack mapping and baseline ratio applied as a per-point loop would."""

    @settings(max_examples=80, deadline=None)
    @given(grid=st.dictionaries(st.sampled_from(fta.FACTOR_ORDER),
                                st.lists(PROBABILITY, max_size=3), max_size=5),
           overrides=st.one_of(st.none(), st.just(fta.PHANTOM_ATTACK_OVERRIDES),
                               st.fixed_dictionaries({"n": PROBABILITY, "o": PROBABILITY})))
    def test_row_equals_top_event_at_its_point(self, grid, overrides):
        sweep = fta.sensitivity_sweep(grid=grid, overrides=overrides)
        names = [name for name in fta.FACTOR_ORDER if name in grid]
        points = list(itertools.product(*(grid[name] for name in names)))
        assert len(sweep) == len(points)
        for r, point in enumerate(points):
            hf = HumanFactors(**dict(zip(names, point)))
            if overrides:
                factors = fta.apply_attack_mapping(BasicEvents(**overrides), hf)
                want = fta.top_event(factors, baseline_top=fta.top_event(hf).p_top_sum)
            else:
                factors, want = hf, fta.top_event(hf)
            for name in fta.FACTOR_ORDER:
                assert bits(getattr(sweep.factors, name)[r]) == bits(getattr(factors, name))
            for name in ("p_unresolved", "p_induced", "p_top_sum", "p_top_published",
                         "risk_ratio"):
                assert bits(getattr(sweep.report, name)[r]) == bits(getattr(want, name))
            assert sweep.report.flags[r] == want.flags


def cell_by_cell_csv(sweep: fta.Sweep) -> str:
    """The sweep's CSV formatted one cell at a time and written by ``csv``."""
    rep = sweep.report
    columns = [getattr(sweep.factors, name).tolist() for name in fta.FACTOR_ORDER]
    columns += [[sweep.events.n] * len(sweep), [sweep.events.o] * len(sweep)]
    columns += [getattr(rep, name).tolist() for name in
                ("p_unresolved", "p_induced", "p_top_sum", "p_top_published", "risk_ratio")]
    cells = [[f"{v:.10g}" for v in column] for column in columns]
    cells.append([";".join(flags) for flags in rep.flags])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fta.SWEEP_COLUMNS)
    writer.writerows(zip(*cells))
    return buf.getvalue()


class TestSweepCsvMatchesCellByCellFormatting:
    """``sweep_to_csv`` formats each distinct value once; its text equals
    formatting every cell on its own, -0.0 and overflow flags included."""

    @settings(max_examples=60, deadline=None)
    @given(grid=st.dictionaries(st.sampled_from(fta.FACTOR_ORDER),
                                st.lists(st.one_of(PROBABILITY, st.just(-0.0)), max_size=3),
                                max_size=5),
           overrides=st.one_of(st.none(), st.just(fta.PHANTOM_ATTACK_OVERRIDES),
                               st.fixed_dictionaries({"n": PROBABILITY, "o": PROBABILITY})))
    def test_text_equals_cell_by_cell(self, grid, overrides):
        sweep = fta.sensitivity_sweep(grid=grid, overrides=overrides)
        assert fta.sweep_to_csv(sweep) == cell_by_cell_csv(sweep)

    def test_negative_zero_keeps_its_text(self):
        text = fta.sweep_to_csv(fta.sensitivity_sweep(grid={"ti": [0.0, -0.0]}))
        assert [line.split(",")[4] for line in text.splitlines()[1:]] == ["0", "-0"]
