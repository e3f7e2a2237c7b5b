import csv
import importlib
import json
import os

import pytest

from dwu.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def jsonl(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def test_gradings_c3_empty_with_note(capsys):
    code, out = run(capsys, "gradings", "--group", "C3")
    assert code == 0
    recs = jsonl(out)
    assert len(recs) == 1 and "note" in recs[0]


def test_gradings_c4(capsys):
    code, out = run(capsys, "gradings", "--group", "C4")
    assert code == 0
    recs = jsonl(out)
    assert len(recs) == 1 and recs[0]["even_part"] == [0, 2]


def test_gradings_c2c2(capsys):
    code, out = run(capsys, "gradings", "--group", "C2xC2")
    assert code == 0
    assert len(jsonl(out)) == 3


def test_cohomology_c2_identity_grading(capsys):
    code, out = run(capsys, "cohomology", "--group", "C2", "--grading", "0", "--degree", "2")
    assert code == 0
    rec = jsonl(out)[0]
    assert rec["invariant_factors"] == [2] and rec["classes"] == 2
    assert len(rec["representatives"]) == 2


def test_cohomology_bad_degree_is_usage_error(capsys):
    code, _ = run(capsys, "cohomology", "--group", "C2", "--degree", "3")
    assert code == 2


def test_unknown_group_is_usage_error(capsys):
    code, _ = run(capsys, "partition", "--group", "Nope")
    assert code == 2


def test_partition_c2_all_routes_agree(capsys):
    code, out = run(
        capsys, "partition", "--group", "C2", "--surfaces", "T2,RP2,K", "--grading", "0"
    )
    assert code == 0
    recs = jsonl(out)
    by_surface = {r["surface"]: r for r in recs}
    assert by_surface["T2"]["direct"] == [1.0, 0.0]
    assert all(r["max_delta"] == 0.0 for r in recs)
    assert "one-loop-identity" in by_surface and "crosscap-trace" in by_surface


def test_partition_debug_flip_fails(capsys):
    code, out = run(
        capsys,
        "partition",
        "--group",
        "C2xC2",
        "--grading",
        "0",
        "--class",
        "0",
        "--surfaces",
        "T2,K",
        "--debug-flip-tau",
    )
    assert code == 1
    recs = jsonl(out)
    loop = [r for r in recs if r["surface"] == "one-loop-identity"][0]
    assert loop["max_delta"] > 0.1


def test_partition_empty_surfaces_ok(capsys):
    code, out = run(capsys, "partition", "--group", "C2", "--surfaces", "")
    assert code == 0
    surfaces = {r["surface"] for r in jsonl(out)}
    assert surfaces == {"one-loop-identity", "crosscap-trace"}


def test_partition_deterministic_output(capsys):
    _, out1 = run(capsys, "partition", "--group", "C4", "--surfaces", "T2,K", "--seed", "5")
    _, out2 = run(capsys, "partition", "--group", "C4", "--surfaces", "T2,K", "--seed", "5")
    assert out1 == out2


def test_partition_budget_exit(capsys, monkeypatch):
    monkeypatch.setenv("DW_BUDGET", "2")
    code, _ = run(
        capsys, "partition", "--group", "S3xC2", "--grading", "0", "--class", "0",
        "--surfaces", "Sigma_g=2",
    )
    assert code == 3


def test_indicators_q8_split(capsys):
    code, out = run(
        capsys, "indicators", "--group", "Q8xC2", "--grading", "0", "--class", "0"
    )
    assert code == 0
    rec = jsonl(out)[0]
    pairs = sorted((b["dim"], b["indicator"]) for b in rec["blocks"])
    assert pairs == [(1, 1), (1, 1), (1, 1), (1, 1), (2, -1)]
    assert all(len(b["idempotent_fingerprint"]) == 12 for b in rec["blocks"])
    assert rec["identity_delta"] == 0.0


def test_indicators_c3_split(capsys):
    code, out = run(capsys, "indicators", "--group", "C3xC2", "--grading", "0", "--class", "0")
    assert code == 0
    rec = jsonl(out)[0]
    assert sorted(b["indicator"] for b in rec["blocks"]) == [0, 0, 1]


def test_verify_axioms(capsys):
    code, out = run(capsys, "verify-axioms", "--group", "C4", "--grading", "0")
    assert code == 0
    for rec in jsonl(out):
        assert rec["ok"]
        assert all(rec["turaev_conditions"].values())
        assert all(rec["frobenius_conditions"].values())


def test_csv_format(capsys):
    code, out = run(capsys, "partition", "--group", "C2", "--surfaces", "T2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("class,")
    assert len(lines) >= 3


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    code, out = run(capsys, "partition", "--group", "C2", "--surfaces", "T2", "--out", str(path))
    assert code == 0 and out == ""
    recs = [json.loads(l) for l in path.read_text().splitlines()]
    assert recs[0]["surface"] == "T2"


def test_cocycle_file_roundtrip(tmp_path, capsys):
    from dwu.cohomology import cochain_to_json, cohomology_classes
    from dwu.groups import GradedGroup, cyclic

    gg = GradedGroup(group=cyclic(2), sign=(1, -1))
    reps, _ = cohomology_classes(gg, 2)
    nontrivial = [r for r in reps if not r.is_zero()][0]
    path = tmp_path / "cocycle.json"
    path.write_text(cochain_to_json(nontrivial))
    code, out = run(
        capsys, "indicators", "--group", "C2", "--grading", "0",
        "--cocycle-file", str(path),
    )
    assert code == 0
    rec = jsonl(out)[0]
    assert [(b["dim"], b["indicator"]) for b in rec["blocks"]] == [(1, -1)]


def test_non_integer_env_budget_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("DW_BUDGET", "abc")
    code = main(["partition", "--group", "C2", "--surfaces", "T2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error:") and len(err.strip().splitlines()) == 1


def test_zero_budget_is_budget_error(capsys):
    code, _ = run(capsys, "partition", "--group", "C2", "--surfaces", "T2", "--budget", "0")
    assert code == 3


@pytest.mark.parametrize("command", ["cohomology", "partition", "indicators", "verify-axioms"])
def test_group_without_grading_is_usage_error(capsys, command):
    code = main([command, "--group", "C5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error:") and len(captured.err.strip().splitlines()) == 1


def test_csv_keeps_rows_emitted_before_budget_error(tmp_path, capsys):
    argv = ["partition", "--group", "all", "--grading", "0", "--class", "0",
            "--surfaces", "T2,N_k=3", "--budget", "40"]
    code, out = run(capsys, *argv)
    assert code == 3
    records = jsonl(out)
    assert len(records) == 16
    path = tmp_path / "report.csv"
    code, out = run(capsys, *argv, "--format", "csv", "--out", str(path))
    assert code == 3 and out == ""
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 16
    assert [(r["group"], r["surface"]) for r in rows] == [
        (r["group"], r["surface"]) for r in records
    ]


def _count_calls(monkeypatch, name, modules, key=lambda *args, **kwargs: None):
    """Calls of the function `name`, patched where each of `modules` looks it up."""
    calls = []
    original = getattr(importlib.import_module(modules[0]), name)

    def wrapper(*args, **kwargs):
        calls.append(key(*args, **kwargs))
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(f"{module}.{name}", wrapper)
    return calls


def test_partition_enumerates_each_surface_once_per_class(capsys, monkeypatch):
    calls = _count_calls(
        monkeypatch, "partition_direct", ["dwu.tqft"], lambda gg, lam, surface, **kw: surface.name
    )
    code, out = run(capsys, "partition", "--group", "C4", "--surfaces", "T2,RP2,K,N_k=3")
    assert code == 0
    classes = len({(r["grading"], r["class"]) for r in jsonl(out)})
    assert classes >= 2
    assert sorted(calls) == sorted(["T2", "RP2", "K", "N_k=3"] * classes)


def test_verify_axioms_checks_turaev_conditions_once_per_class(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "check_turaev_axioms", ["dwu.tqft", "dwu.cli"])
    code, out = run(capsys, "verify-axioms", "--group", "C4")
    assert code == 0
    records = jsonl(out)
    assert len(records) >= 2 and all(r["ok"] for r in records)
    assert len(calls) == len(records)


def test_indicators_honours_budget(capsys):
    code, _ = run(capsys, "indicators", "--group", "C2", "--budget", "0")
    assert code == 3


@pytest.mark.parametrize(
    "text",
    [
        '{"degree": 2, "values": {"1,1": 1}}',
        '{"degree": 2, "denominator": 0, "values": {"1,1": 1}}',
        '[2, 2, {"1,1": 1}]',
        '{"degree": 2, "denominator": 2, "values": {"1,9": 1}}',
        '{"degree": 2, "denominator": 2, "values": {"1": 1}}',
        # a valid cocycle's shape, so only the value type can fail
        '{"degree": 2, "denominator": 2, "values": {"1,1": 1.5, "1,3": 1.5, "3,1": 1.5, "3,3": 1.5}}',
        '{"degree": 2, "denominator": 2, "values": {"1,1": "1", "1,3": "1", "3,1": "1", "3,3": "1"}}',
        '{"degree": 2, "denominator": true, "values": {}}',
    ],
    ids=[
        "no-denominator", "zero-denominator", "list", "out-of-range-key", "wrong-arity-key",
        "non-integer-value", "string-value", "bool-denominator",
    ],
)
def test_malformed_cocycle_file_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "cocycle.json"
    path.write_text(text)
    code = main(["partition", "--group", "C4", "--grading", "0", "--cocycle-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error:") and len(captured.err.strip().splitlines()) == 1


def test_partition_builds_no_phase(capsys, monkeypatch):
    from dwu.phases import Phase

    argv = ["partition", "--group", "D8", "--grading", "0", "--class", "all"]
    code, expected = run(capsys, *argv)
    assert code == 0

    def no_phase(*args, **kwargs):
        raise AssertionError("a Phase was built")

    monkeypatch.setattr(Phase, "__init__", no_phase)
    monkeypatch.setattr(Phase, "from_fraction", classmethod(no_phase))
    assert run(capsys, *argv) == (0, expected)


def test_cohomology_honours_cap(capsys):
    code, out = run(capsys, "cohomology", "--group", "C34", "--cap", "64", "--degree", "1")
    assert code == 0
    assert jsonl(out)[0]["invariant_factors"] == [2]


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_is_usage_error(capsys, tol):
    code = main(["partition", "--group", "C2", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "usage error: --tol must be positive\n"
