"""Tests of the benchmark itself, on smoke-sized items.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import WRAPS, Tracer  # noqa: E402
from workloads import DECKS, all_items, generate_items, item_key  # noqa: E402

from dwu import cli  # noqa: E402

SMOKE = {
    "sweep": [
        ["partition", "--group", "C2", "--grading", "0", "--class", "all", "--surfaces", "T2,RP2,K"],
        ["partition", "--group", "C4", "--grading", "0", "--class", "all", "--surfaces", "T2,RP2,K"],
    ],
    "big_surfaces": [
        ["partition", "--group", "D8", "--grading", "0", "--class", "1", "--surfaces", "Sigma_g=2"],
    ],
    "big_groups": [
        ["cohomology", "--group", "C6", "--grading", "0", "--degree", "2"],
    ],
}


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def make_refs(items):
    refs = {}
    for argv in items:
        code, text, diagnostic, _, _ = worker.run_item(cli.main, argv)
        assert code == 0, (argv, diagnostic)
        refs[item_key(argv)] = {"exit": code, "records": reference.comparable(worker.parse_records(text))}
    return refs


@pytest.fixture(scope="module")
def smoke_refs():
    return {name: make_refs(items) for name, items in SMOKE.items()}


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_run_prints_every_end_to_end_metric(workload, smoke_refs):
    items = SMOKE[workload]
    measured = worker.measure(cli, items, seconds=0)
    outcomes = worker.check(measured["results"], smoke_refs[workload])
    summary = worker.summarize(measured, outcomes, len(items))
    assert summary["failed"] == 0 and summary["attempted"] == len(items)
    metrics = run.select_metrics(dict(summary, setup_s=0.1), spec()["end_to_end"])
    for m in spec()["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_traced_run_reports_every_per_layer_metric(workload, smoke_refs):
    items = SMOKE[workload]
    tracer = Tracer()
    measured = worker.measure(cli, items, seconds=0, tracer=tracer)
    assert [p["traced"] for p in measured["passes"]] == [False, True, False, True]
    traced = [r for r in measured["results"] if r[0] % 2]
    values = tracer.metrics(2, worker.classes_consumed(traced))
    values["trace.overhead_ratio"] = 1.0
    metrics = run.select_metrics(values, spec()["per_layer"])
    assert set(metrics) == {m["name"] for m in spec()["per_layer"]}
    assert values["cohomology.calls"] >= 1
    if workload == "big_groups":
        assert values["tqft.direct.calls"] == 0
    else:
        assert values["tqft.direct.calls"] >= 1 and values["transgression.calls"] >= 1


def test_tampered_reference_is_a_failure(smoke_refs):
    argv = SMOKE["big_surfaces"][0]
    refs = json.loads(json.dumps(smoke_refs["big_surfaces"]))
    record = refs[item_key(argv)]["records"][0]
    record["direct"] = [record["direct"][0] * (1 + 1e-6) + 1e-6, record["direct"][1]]
    measured = worker.measure(cli, [argv], seconds=0)
    outcomes = worker.check(measured["results"], refs)
    assert outcomes[0]["failure"] and "direct" in outcomes[0]["failure"]
    assert worker.summarize(measured, outcomes, 1)["failed_frac"] == 1.0


def test_mismatch_rules():
    ref = {"exit": 0, "records": [{"surface": "T2", "direct": [4.0, 0.0], "tqft": [4.0, 0.0]}]}
    near = [{"surface": "T2", "direct": [4.0 + 1e-12, 0.0], "tqft": [4.0, 0.0], "verlinde": [9.0, 0.0],
             "max_delta": 5.0}]
    assert reference.mismatch(0, near, ref) is None
    assert reference.mismatch(1, near, ref).startswith("exit code")
    assert reference.mismatch(0, [dict(near[0], surface="K")], ref)
    assert reference.mismatch(0, [dict(near[0], extra=1)], ref)


def test_wrappers_restore_original_functions():
    originals = {(m, a): getattr(importlib.import_module(m), a) for _, m, a in WRAPS}
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(importlib.import_module(m), a) is not f for (m, a), f in originals.items())
    finally:
        tracer.uninstall()
    assert all(getattr(importlib.import_module(m), a) is f for (m, a), f in originals.items())


def test_seeded_items_are_reproducible_and_referenced():
    for name, deck in DECKS.items():
        assert generate_items(deck, 7) == generate_items(deck, 7)
        assert len(generate_items(deck, 7)) == len(deck)
        refs = reference.load(name)
        assert {item_key(a) for a in all_items(deck)} == set(refs)
    from dwu.moduli import DEFAULT_BUDGET

    for argv in all_items(DECKS["big_surfaces"]):
        assert reference.load("big_surfaces")[item_key(argv)]["candidates"] == reference.candidates(argv)
        assert reference.candidates(argv) <= DEFAULT_BUDGET


def test_tail_needs_ten_items_beyond_the_median():
    assert worker.tail([1.0] * 19) is None
    assert worker.tail([float(i) for i in range(40)]) == (75.0, 29.0)


def test_run_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
