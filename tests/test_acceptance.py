"""Acceptance gate: every certification criterion at its stated tolerance
and time budget, plus the command-line examples.

Each test prints one pass/fail line for its criterion; the lines bypass
output capture so the per-criterion report shows up in any pytest run."""

import json
import time

import pytest

import drinfeld.certify as certify
from drinfeld import residues
from drinfeld.building import PointedSimplex
from drinfeld.cli import main
from helpers import reference_from_chain

_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(line):
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)


def _run(number, budget_seconds):
    """Run one criterion over its whole grid: 1-11 through the table, 12
    through its own function."""
    started = time.monotonic()
    if number == 12:
        result = certify.criterion_reproducibility(seed=0)
    else:
        criterion = certify.CRITERIA[number - 1]
        result = criterion.run(criterion.grid, seed=0)
    elapsed = time.monotonic() - started
    status = "PASS" if result["pass"] else "FAIL"
    _report(
        f"criterion {result['criterion']:2d} ({result['name']}): "
        f"{status} [{elapsed:.1f}s / budget {budget_seconds}s]"
    )
    assert result["pass"], result
    assert elapsed < budget_seconds, (
        f"criterion {result['criterion']} took {elapsed:.1f}s, "
        f"budget {budget_seconds}s"
    )
    return result


def test_criterion_01_point_counts():
    result = _run(1, 10)
    assert len(result["checks"]) == 18  # d in {1,2} x p in {2,3,5} x n in {1,2,3}
    assert all(c["enumerated"] == c["expected"] for c in result["checks"])


def test_criterion_02_level_fibers():
    result = _run(2, 10)
    for check in result["checks"]:
        assert check["fiber_size"] == [check["p"] ** check["d"]]
        assert check["surjective"]


def test_criterion_03_tree_balls():
    result = _run(3, 10)
    assert len(result["checks"]) == 8  # p in {2,3} x radius in 1..4
    assert all(c["acyclic"] for c in result["checks"])
    assert all(c["vertices"] == c["expected"] for c in result["checks"])


def test_criterion_04_edge_residues_vs_oracle():
    result = _run(4, 300)
    assert {(c["p"], c["d"]) for c in result["checks"]} == {
        (2, 1), (3, 1), (2, 2), (3, 2)
    }
    assert all(c["oracle_disagreements"] == 0 for c in result["checks"])
    assert all(c["antisymmetric"] and c["additive"] for c in result["checks"])


@pytest.mark.parametrize("p, d", [(2, 1), (2, 2)])
def test_criterion_04_fails_when_reversing_keeps_the_edge(monkeypatch, p, d):
    """Antisymmetry compares the slopes on an edge with those on its
    reversal, so a reversal that returns the edge itself must fail it."""
    monkeypatch.setattr(PointedSimplex, "rotate", lambda self: self)
    record = certify.check_edge_residues(0, p, d)
    assert record["antisymmetric"] is False
    assert record["pass"] is False


@pytest.mark.parametrize("p, d", [(2, 1), (2, 2)])
def test_criterion_04_additivity_fails_for_slopes_off_the_chamber_cocycle(
        monkeypatch, p, d):
    """The slopes around a chamber's d+1 boundary edges must sum to d.  A
    constant 0 sums to 0; 1 - slope sums to 1, which is d only at d = 1,
    and it keeps the edge reversal antisymmetric.  The oracle sweep keeps
    the true slopes."""
    slope_matrix = certify.slope_matrix
    monkeypatch.setattr(certify, "slope_matrix", lambda edges, classes: [
        [1 - s for s in row] for row in slope_matrix(edges, classes)])
    record = certify.check_edge_residues(0, p, d)
    assert record["antisymmetric"] is True
    assert record["additive"] is (d == 1)
    monkeypatch.setattr(certify, "slope_matrix", lambda edges, classes: [
        [0] * len(classes) for _ in edges])
    record = certify.check_edge_residues(0, p, d)
    assert record["additive"] is False
    assert record["pass"] is False


def test_criterion_04_translate_does_not_depend_on_the_oracle_draws(monkeypatch):
    """The chamber translate of the additivity check draws from its own
    Random: an oracle that draws once more per unit leaves it unchanged."""
    translates = []
    random_unimodular = certify.random_unimodular

    def recorded(size, rng):
        translates.append(random_unimodular(size, rng))
        return translates[-1]

    monkeypatch.setattr(certify, "random_unimodular", recorded)
    assert certify.check_edge_residues(0, 2, 1)["pass"]
    random_unit = residues.random_unit

    def greedy_unit(desc, rng, j=0):
        rng.random()
        return random_unit(desc, rng, j)

    monkeypatch.setattr(residues, "random_unit", greedy_unit)
    assert certify.check_edge_residues(0, 2, 1)["pass"]
    assert len(translates) == 2 and translates[0] == translates[1]


def test_criterion_05_flow_conservation():
    result = _run(5, 60)
    assert {c["p"] for c in result["checks"]} == {2, 3, 5}
    assert all(c["violations"] == 0 for c in result["checks"])


def test_criterion_06_refinement_congruence():
    result = _run(6, 120)
    for check in result["checks"]:
        assert check["records"] >= 40  # 20 families x 2 certificates + lifts
        assert check["failed"] == 0


def test_criterion_07_restriction():
    result = _run(7, 120)
    for check in result["checks"]:
        assert check["records"] == 20
        assert check["all_exact_restrictions"]


def test_criterion_08_residue_round_trip():
    result = _run(8, 180)
    assert result["global_sign"] == 1
    configs = {(c["p"], c["d"]) for c in result["checks"]}
    assert configs == {(2, 1), (3, 1), (2, 2)}
    assert all(c["mismatches"] == 0 for c in result["checks"])


def test_criterion_09_pairing_rank():
    result = _run(9, 60)
    for check in result["checks"]:
        assert check["rank"] == check["expected"]


def test_criterion_10_reduction_cross_validation():
    result = _run(10, 120)
    assert len(result["checks"]) == len(certify.TAU_CONFIGS)
    for check in result["checks"]:
        assert check["points"] == 100
        assert check["failures"] == 0


def _smallest_reduction_records():
    """Criterion 10 on its d = 1 grid points and criterion 11 on its point
    with the fewest translates, as JSON."""
    reduction = [certify.check_reduction(0, *pt)
                 for pt in certify.TAU_CONFIGS if pt[1] == 1]
    smallest = min(certify.CRITERIA[10].grid, key=lambda pt: pt[2])
    equivariance = certify.check_equivariance(0, *smallest)
    return json.dumps([reduction, equivariance], sort_keys=True)


def test_live_simplex_table_keeps_the_reduction_records(monkeypatch):
    """from_chain's table of live simplices changes no record: the
    smallest criterion 10 and 11 points give the same bytes when every
    from_chain call validates and builds a new simplex."""
    shipped = _smallest_reduction_records()
    monkeypatch.setattr(PointedSimplex, "from_chain",
                        staticmethod(reference_from_chain))
    assert _smallest_reduction_records() == shipped


def test_criterion_10_builds_one_field_per_shape(monkeypatch):
    """The simplices of one shape share one field object."""
    seen = []
    sample = certify.point_in_tube

    def recording(desc, sigma, rng):
        seen.append(desc)
        return sample(desc, sigma, rng)

    monkeypatch.setattr(certify, "point_in_tube", recording)
    for pt in certify.TAU_CONFIGS[:3]:
        certify.check_reduction(0, *pt)
    shapes = {(d.p, d.e, d.f, d.N) for d in seen}
    assert len(seen) == 3 * certify.POINTS_PER_CONFIG
    assert len({id(d) for d in seen}) == len(shapes) < len(seen) // 10


def test_criterion_11_equivariance():
    result = _run(11, 120)
    by_dim = {(c["p"], c["d"]): c for c in result["checks"]}
    assert by_dim[(2, 1)]["translates"] == 50
    assert by_dim[(3, 1)]["translates"] == 50
    assert (2, 2) in by_dim
    for check in result["checks"]:
        assert check["certificate_failures"] == 0
        assert check["tau_failures"] == 0


def test_criterion_12_reproducibility():
    result = _run(12, 60)
    assert result["identical"]


def test_cli_certify_all_example(capsys):
    started = time.monotonic()
    code = main(["certify-all", "--d", "1", "--p", "2"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    bundle = json.loads(out)
    _report(f"cli certify-all --d 1 --p 2: "
            f"{'PASS' if bundle['all_pass'] else 'FAIL'} [{elapsed:.1f}s]")
    assert code == 0
    assert bundle["all_pass"]
    assert len(bundle["criteria"]) == 12
    assert elapsed < 60


def test_cli_points_example(capsys):
    code = main(["points", "--d", "1", "--p", "3", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 12


def test_cli_invalid_prime_example(capsys):
    code = main(["points", "--d", "1", "--p", "4", "--n", "2"])
    capsys.readouterr()
    assert code == 2
