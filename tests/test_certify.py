"""The criteria table: filtering, skipped criteria and empty selections.

None of these tests runs a real check; the acceptance tests do that."""

import dataclasses
import logging

import pytest

import drinfeld.certify as certify
from drinfeld.cli import main


def _forbidden(*args, **kwargs):
    raise AssertionError("a check ran")


def _table(check):
    return tuple(dataclasses.replace(c, check=check) for c in certify.CRITERIA)


def test_table_declares_criteria_1_to_11_in_order():
    assert [c.number for c in certify.CRITERIA] == list(range(1, 12))
    assert certify.CRITERIA[9].grid == certify.TAU_CONFIGS


def test_criterion_without_a_kept_point_is_skipped_not_passed():
    tree_balls = certify.CRITERIA[2]
    points = tree_balls.select(ps={5}, ds={1})
    assert points == []
    record = dataclasses.replace(tree_balls, check=_forbidden).run(points, 0)
    assert record["pass"] is None
    assert record["checks"] == []
    assert "(2, 1), (3, 1)" in record["skipped"]
    assert list(record) == ["criterion", "name", "pass", "checks", "skipped"]


def test_all_pass_ignores_skipped_criteria(monkeypatch):
    def passing(seed, p, d, *args):
        return {"p": p, "pass": True}

    monkeypatch.setattr(certify, "CRITERIA", _table(passing))
    bundle = certify.run_all(ps={5}, ds={1}, include_reproducibility=False)
    assert bundle["all_pass"] is True
    assert {r["pass"] for r in bundle["criteria"]} == {True, None}

    monkeypatch.setattr(certify, "CRITERIA", _table(
        lambda seed, p, d, *args: {"p": p, "pass": False}))
    bundle = certify.run_all(ps={5}, ds={1}, include_reproducibility=False)
    assert bundle["all_pass"] is False


@pytest.mark.parametrize("ds", [None, {1}, {2}, {3}])
@pytest.mark.parametrize("ps", [None, {2}, {3}, {5}, {7}])
def test_every_filter_keeps_a_point_or_is_an_empty_selection(monkeypatch,
                                                             ps, ds):
    monkeypatch.setattr(certify, "CRITERIA", _table(_forbidden))
    monkeypatch.setattr(certify, "criterion_reproducibility", _forbidden)
    if any(c.select(ps, ds) for c in certify.CRITERIA):
        return
    with pytest.raises(certify.EmptySelection):
        certify.run_all(ps=ps, ds=ds)


def test_verbose_bundle_logs_a_skipped_criterion_as_skip(monkeypatch, capsys,
                                                         caplog):
    monkeypatch.setattr(certify, "CRITERIA", _table(
        lambda seed, p, d, *args: {"p": p, "pass": True}))
    caplog.set_level(logging.INFO, logger="drinfeld")
    code = main(["certify-all", "--p", "5", "--d", "1", "--verbose"])
    capsys.readouterr()
    assert code == 0
    lines = [r.getMessage() for r in caplog.records]
    assert any("tree-balls" in line and line.endswith("SKIP")
               for line in lines)
    assert not any(line.endswith("FAIL") for line in lines)
