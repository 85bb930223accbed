"""Faults that the certification criteria must catch.

Each row of FAULTS injects one fault by monkeypatching and runs criteria
1-11 at seed 0 on the first point of their grids, which is their smallest,
and the test asserts exactly which criteria fail and which raise.  A
change that strengthens a criterion grows a row's kill set and says so; a
change that weakens one turns its row red.  The faults are named by hand,
in the spirit of mutation analysis (DeMillo-Lipton-Sayward, IEEE Computer
11(4), 1978)."""

import importlib
import pkgutil
from dataclasses import dataclass
from typing import Callable

import pytest

import drinfeld
import drinfeld.certify as certify
from drinfeld import building, residues
from drinfeld.covers import SymmetricSpacePoint
from drinfeld.projpoints import enumerate_points

MODULES = [importlib.import_module(f"drinfeld.{m.name}")
           for m in pkgutil.iter_modules(drinfeld.__path__)]


def wrap(owner, name, make_fault):
    """Patch owner.name with make_fault(the original)."""
    def patch(monkeypatch):
        monkeypatch.setattr(owner, name, make_fault(getattr(owner, name)))
    return patch


def rebind(name, original, fault):
    """Patch name to fault in every drinfeld module that binds original
    under it, so `from`-imported copies see the fault too."""
    def patch(monkeypatch):
        for module in MODULES:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, fault)
    return patch


def _swap_first_two_columns(adjugate_columns):
    def swapped(rows):
        cols, det = adjugate_columns(rows)
        return (cols[1], cols[0]) + cols[2:], det
    return swapped


def _transposed(apply_matrix):
    return lambda z, g: apply_matrix(z, [list(col) for col in zip(*g)])


@dataclass(frozen=True)
class Fault:
    name: str
    models: str
    patch: Callable
    kills: dict  # criterion number -> "fail" or the class of what it raises


FAULTS = (
    Fault("slope-reversed",
          "the rule's slopes replaced by 1 - slope; the oracle keeps the "
          "true ones",
          wrap(residues, "slope",
               lambda slope: lambda a, sigma: 1 - slope(a, sigma)),
          {4: "fail"}),
    Fault("adjugate-columns-swapped",
          "a lattice's adjugate with its first two columns swapped, which "
          "moves every adapted frame but no valuation or membership test",
          wrap(building, "hnf_adjugate_columns", _swap_first_two_columns),
          {4: "fail", 10: "fail"}),
    Fault("global-sign-negated",
          "the frozen sign of the residue pairing flipped",
          rebind("GLOBAL_SIGN", residues.GLOBAL_SIGN, -residues.GLOBAL_SIGN),
          {8: "fail"}),
    Fault("neighbors-drops-last",
          "a vertex's link missing one lattice",
          wrap(building.Lattice, "neighbors",
               lambda neighbors: lambda lattice: neighbors(lattice)[:-1]),
          {3: "fail", 5: "fail"}),
    Fault("enumerate-points-drops-last",
          "the level-n points of P^d missing one class",
          rebind("enumerate_points", enumerate_points,
                 lambda p, n, d: enumerate_points(p, n, d)[:-1]),
          {1: "fail", 2: "KeyError", 9: "fail"}),
    Fault("apply-matrix-transposed",
          "points moved by the transpose of g, a wrong group action",
          wrap(SymmetricSpacePoint, "apply_matrix", _transposed),
          {11: "fail"}),
)


def kill_set():
    """{criterion: "fail" or the name of the exception class it raises}
    over criteria 1-11 at their first grid point; a criterion that passes
    is left out."""
    killed = {}
    for criterion in certify.CRITERIA:
        try:
            record = criterion.check(0, *criterion.grid[0])
        except Exception as exc:  # a fault may break any check any way
            killed[criterion.number] = type(exc).__name__
        else:
            if not record["pass"]:
                killed[criterion.number] = "fail"
    return killed


def test_without_a_fault_every_criterion_passes():
    assert kill_set() == {}


@pytest.mark.parametrize("fault", FAULTS, ids=[f.name for f in FAULTS])
def test_each_fault_kills_exactly_its_criteria(monkeypatch, fault):
    with monkeypatch.context() as patch:
        fault.patch(patch)
        assert kill_set() == fault.kills, fault.models


def test_criterion_11_catches_a_transposed_action_only_through_tau(monkeypatch):
    """The dual pair's two points lie so close together that the moved
    ratios still clear the threshold n - i = 1 under the wrong action (their
    least margin drops from 5/2 to 1), so no certificate fails; the exact
    transport of the reduction map does."""
    (fault,) = [f for f in FAULTS if 11 in f.kills]
    fault.patch(monkeypatch)
    record = certify.check_equivariance(0, 2, 1, certify.TRANSLATES)
    assert record["certificate_failures"] == 0
    assert record["tau_failures"] == 13


@pytest.mark.parametrize("p, d", [(2, 1), (2, 2)])
def test_criterion_04_oracle_catches_its_fault_table_faults(monkeypatch, p, d):
    """The oracle sweep itself must fail under the two faults of the fault
    table that criterion 4 answers: the rule's slopes replaced by 1 - slope
    (the oracle keeps the true ones), and the adjugate's first two columns
    swapped, which moves every adapted frame, and so the oracle's samples,
    but no valuation or membership test of the rule."""
    faults = [f for f in FAULTS if 4 in f.kills]
    assert [f.name for f in faults] == ["slope-reversed",
                                        "adjugate-columns-swapped"]
    for fault in faults:
        with monkeypatch.context() as patch:
            fault.patch(patch)
            record = certify.check_edge_residues(0, p, d)
        assert record["oracle_disagreements"] > 0, fault.name
        assert record["pass"] is False, fault.name
