"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings():
    """Every attribute of every drinfeld module and of the classes they
    define, by identity."""
    import drinfeld  # noqa: F401

    out = {}
    for mod in tracing._drinfeld_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, raw in vars(value).items():
                    out[(mod.__name__, attr, meth)] = raw
    return out


def test_spec_names_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    layer_map = json.loads((HERE / "layer_map.json").read_text())["metrics"]
    assert list(layer_map) == [m["name"] for m in SPEC["per_layer"]]
    digests = json.loads((HERE / "digests.json").read_text())
    assert sorted(digests) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_leaves_outputs_and_bindings_unchanged(name):
    untraced, _, _ = run.measure(name, 0, 0.05, smoke=True)  # imports afresh
    before = _bindings()
    traced, metrics, details = run.traced(name, 0, smoke=True)
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    assert run.digest_of(traced.records) == run.digest_of(untraced.records)
    assert run.digest_of(traced.records) == details["plain_digest"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert details["spans"] > 0
    if name == "tree-geometry":
        assert all(v == 0 for k, v in metrics.items()
                   if k.startswith("padic.") and k.endswith(".calls"))
    else:
        assert metrics["padic.mul.calls"] > 0


def test_wrappers_see_from_imported_names():
    from drinfeld import building, covers, intlinalg, residues

    with tracing.Tracer() as tracer:
        for mod in (intlinalg, building, covers, residues):  # each binds the name
            assert getattr(mod.inv_scaled, "__wrapped__", None) is not None
        intlinalg.inv_scaled(((1, 2), (3, 4)))
        intlinalg.inv_scaled(((1, 2), (3, 4)))
    assert tracer.count("intlinalg.inv_scaled") == 2
    assert tracer.distinct_frac("intlinalg.inv_scaled") == 0.5
    assert getattr(intlinalg.inv_scaled, "__wrapped__", None) is None


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_reports_no_failures(name):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--smoke",
         "--seconds", "0.3", "--seed", "7"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
    assert record["failed_frac"] == 0
    for key in ("python", "git_sha", "nproc", "seed", "timed_items", "tail_percentile"):
        assert key in record


def test_without_library_source_the_run_fails(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "certificates", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
