"""The A/B script ``benchpairs.py``: its summary of canned result lines and
its verdicts, its refusal of failed runs, and its alternation between two
checkouts."""

from __future__ import annotations

import json

import pytest

import benchpairs

DECLARED = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
            {"name": "records_per_s", "unit": "records/s", "better": "higher", "bound": 0.2}]


def _result(wall_s, records_per_s, failed=0):
    return {"correct": failed == 0, "attempted": 12, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "records_per_s": {"value": records_per_s, "unit": "records/s"}}}


def _line(*args, **kw):
    return json.dumps(_result(*args, **kw))


def test_the_summary_gives_medians_change_wins_and_quartiles():
    old = [_line(1.0, 100.0), _line(1.2, 90.0), _line(1.1, 95.0), _line(1.3, 80.0)]
    new = [_line(0.9, 110.0), _line(1.25, 85.0), _line(1.0, 96.0), _line(1.1, 90.0)]
    pairs = [(benchpairs.result_of(f"spread ...\n{o}\n", "old"),
              benchpairs.result_of(n, "new")) for o, n in zip(old, new)]
    wall, rate = benchpairs.summarize(pairs, DECLARED)
    # medians 1.15 -> 1.05; new wins where it is lower: 3 of 4
    assert wall == ("wall_s: 1.15 -> 1.05 s (-8.7%), wins 3/4; quartiles old [1.075, 1.225] "
                    "(IQR 0.15), new [0.975, 1.138] (IQR 0.163); unresolved, within its 20% bound")
    # medians 92.5 -> 93; new wins where it is higher: 3 of 4
    assert rate.startswith("records_per_s: 92.5 -> 93 records/s (+0.5%), wins 3/4;")


def test_one_pair_has_its_values_for_quartiles():
    (line,) = benchpairs.summarize([(_result(2.0, 1.0), _result(1.0, 2.0))], DECLARED[:1])
    assert line == ("wall_s: 2 -> 1 s (-50.0%), wins 1/1; quartiles old [2, 2] (IQR 0), "
                    "new [1, 1] (IQR 0); better, within its 20% bound")


STEADY = [1.00, 1.01, 1.02, 0.99, 1.00, 1.01, 1.02, 0.99, 1.00, 1.01]  # IQR 0.01


@pytest.mark.parametrize("old,new,wall,rate", [
    # 9 of 10 won, medians 0.1 apart: past the old IQR, so resolved
    (STEADY, [w - 0.1 for w in STEADY[:9]] + [1.02], "better, within", "better, within"),
    # the same gap, but 8 of 10 won
    (STEADY, [w - 0.1 for w in STEADY[:8]] + [1.02, 1.03], "unresolved, within",
     "unresolved, within"),
    # every pair lost, by 30% of the median (the rate by 23%)
    (STEADY, [w * 1.3 for w in STEADY], "worse, past", "worse, past"),
    # every pair lost, by 0.4 of a 1.5 s median: past the bound, but not
    # past the old IQR of 1, so unresolved
    ([1.0, 2.0] * 5, [1.4, 2.4] * 5, "unresolved, past", "unresolved, past"),
], ids=["resolved", "unresolved", "worse-past-bound", "unresolved-past-bound"])
def test_the_verdict_and_the_bound(old, new, wall, rate):
    # records_per_s is the reciprocal, better when higher
    pairs = [(_result(o, 1 / o), _result(n, 1 / n)) for o, n in zip(old, new)]
    lines = benchpairs.summarize(pairs, DECLARED)
    assert [line.rsplit("; ", 1)[1] for line in lines] == [f"{wall} its 20% bound",
                                                          f"{rate} its 20% bound"]


@pytest.mark.parametrize("stdout,why", [(_line(1.0, 1.0, failed=2), "2 of 12 checks failed"),
                                        ("", "printed no result"),
                                        ("Warning: cut sho", "last line is not a result"),
                                        ('{"metrics": {}}', "last line is not a result"),
                                        ("[1, 2]", "last line is not a result")])
def test_a_run_with_a_failed_check_or_no_result_is_refused(stdout, why):
    with pytest.raises(benchpairs.RunRefused, match=f"^old: {why}$"):
        benchpairs.result_of(stdout, "old")


FAKE_RUN = """
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
with open(here.parent / "order.txt", "a") as fh:
    fh.write(here.name + "\\n")
wall, failed = {wall}, {failed}
print(json.dumps({{"correct": not failed, "attempted": 3, "failed": failed, "metrics": {{
    "wall_s": {{"value": wall, "unit": "s"}},
    "records_per_s": {{"value": 1 / wall, "unit": "records/s"}}}}}}))
"""


def _checkout(tmp_path, name, wall, failed=0):
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.format(wall=wall, failed=failed))
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": DECLARED}))
    return root


def test_runs_alternate_which_side_goes_first_and_the_last_new_result_is_saved(
        tmp_path, capsys):
    old, new = _checkout(tmp_path, "old", 2.0), _checkout(tmp_path, "new", 1.0)
    bench = tmp_path / "BENCH.json"
    bench.write_text(json.dumps({"other": {"failed": 0}}))
    argv = [str(old), str(new), "--workload", "w", "--pairs", "3", "--seconds", "1",
            "--save", str(bench)]
    assert benchpairs.main(argv) == 0
    assert (tmp_path / "order.txt").read_text().split() == ["old", "new", "new", "old",
                                                            "old", "new"]
    assert "wall_s: 2 -> 1 s (-50.0%), wins 3/3" in capsys.readouterr().out
    saved = json.loads(bench.read_text())
    assert list(saved) == ["other", "w"] and saved["w"]["metrics"]["wall_s"]["value"] == 1.0


def test_a_failed_run_stops_the_comparison(tmp_path, capsys):
    old, new = _checkout(tmp_path, "old", 2.0), _checkout(tmp_path, "new", 1.0, failed=1)
    argv = [str(old), str(new), "--workload", "w", "--pairs", "2", "--seconds", "1"]
    assert benchpairs.main(argv) == 1
    assert "1 of 3 checks failed" in capsys.readouterr().err
    assert (tmp_path / "order.txt").read_text().split() == ["old", "new"]
