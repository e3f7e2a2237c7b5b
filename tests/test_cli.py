import contextlib
import csv
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import flipped_kr_rank

from dwu.cli import Emitter, _fingerprint, load_manifest, main
from dwu.cohomology import TwistedCochain
from dwu.groups import build_group


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
    code = main(["cohomology", "--group", "C2", "--degree", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error:") and len(captured.err.strip().splitlines()) == 1


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


def test_partition_debug_flip_fails(capsys, monkeypatch):
    """With the flipped KR integral substituted, the report fails with exit 1;
    the removed --debug-flip-tau switch is a usage error."""
    argv = ["partition", "--group", "C2xC2", "--grading", "0", "--class", "0", "--surfaces", "T2,K"]
    with pytest.raises(SystemExit, match="2"):
        main([*argv, "--debug-flip-tau"])
    assert capsys.readouterr().err == "usage error: unrecognized arguments: --debug-flip-tau\n"
    monkeypatch.setattr("dwu.tqft.kr_rank", flipped_kr_rank)
    code, out = run(capsys, *argv)
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
    """Per class, the direct route is asked for each requested surface, then
    by one_loop for T2 and K and by the crosscap trace for RP2; the walk
    partition_direct keeps on the cochain answers the repeats without a
    step (one transfer table per piece: see the test below)."""
    calls = _count_calls(
        monkeypatch, "partition_direct", ["dwu.tqft"], lambda gg, lam, surface, **kw: surface.name
    )
    code, out = run(capsys, "partition", "--group", "C4", "--surfaces", "T2,RP2,K,N_k=3")
    assert code == 0
    classes = len({(r["grading"], r["class"]) for r in jsonl(out)})
    assert classes >= 2
    assert sorted(calls) == sorted(["T2", "RP2", "K", "N_k=3", "T2", "K", "RP2"] * classes)


def test_partition_shares_each_class_work_across_its_surfaces(capsys):
    """Per class, one transfer table per piece (handle and crosscap), one
    handle element, one transgression and one cocycle check serve all six
    surfaces."""
    from dwu.cohomology import is_twisted_cocycle
    from dwu.tqft import handle_element
    from dwu.transgression import relator_pairing, satisfies_loop_law

    per_class = {
        relator_pairing.__code__: 2,
        handle_element.__code__: 1,
        satisfies_loop_law.__code__: 1,
        is_twisted_cocycle.__code__: 1,
    }
    entered = dict.fromkeys(per_class, 0)

    def record(frame, event, arg):
        if event == "call" and frame.f_code in entered:
            entered[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        code, out = run(capsys, "partition", "--group", "C4", "--surfaces", "T2,Sigma_g=2,RP2,K,N_k=3,N_k=4")
    finally:
        sys.setprofile(previous)
    assert code == 0
    classes = len({(r["grading"], r["class"]) for r in jsonl(out)})
    assert classes >= 2
    assert {f.co_qualname: n for f, n in entered.items()} == {
        f.co_qualname: n * classes for f, n in per_class.items()
    }


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
        # a valid cocycle with one key spelled other than in canonical decimals
        '{"degree": 2, "denominator": 2, "values": {"0_1,1": 1, "1,3": 1, "3,1": 1, "3,3": 1}}',
        '{"degree": 2, "denominator": 2, "values": {"1,1": 1, "1, 3": 1, "3,1": 1, "3,3": 1}}',
        '{"degree": 2, "denominator": 2, "values": {"1,1": 1, "1,3": 1, "+3,1": 1, "3,3": 1}}',
        '{"degree": 2, "denominator": 2, "values": {"01,1": 0, "1,1": 1, "1,3": 1, "3,1": 1, "3,3": 1}}',
        # a valid cocycle once the repeated key's last value wins
        '{"degree": 2, "denominator": 2, "values": {"1,1": 0, "1,1": 1, "1,3": 1, "3,1": 1, "3,3": 1}}',
    ],
    ids=[
        "no-denominator", "zero-denominator", "list", "out-of-range-key", "wrong-arity-key",
        "non-integer-value", "string-value", "bool-denominator",
        "underscore-key", "space-key", "plus-key", "leading-zero-key", "repeated-key",
    ],
)
def test_malformed_cocycle_file_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "cocycle.json"
    path.write_text(text)
    code = main(["partition", "--group", "C4", "--grading", "0", "--cocycle-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error:") and len(captured.err.strip().splitlines()) == 1


GOLDEN = [
    ([], 0, "partition_D8_g0_all.jsonl"),
    (["--format", "csv"], 0, "partition_D8_g0_all.csv"),
    ([], 1, "partition_D8_g0_all_flip_tau.jsonl"),
]


@pytest.mark.parametrize("extra, expected_code, golden", GOLDEN)
def test_partition_output_is_golden(capsys, monkeypatch, extra, expected_code, golden):
    """stdout is byte-identical to a capture of an earlier release (tests/data);
    the flip golden is the failing report under the flipped KR integral."""
    if golden.endswith("_flip_tau.jsonl"):
        monkeypatch.setattr("dwu.tqft.kr_rank", flipped_kr_rank)
    code, out = run(capsys, "partition", "--group", "D8", "--grading", "0", "--class", "all", *extra)
    assert code == expected_code
    assert out.encode() == (Path(__file__).parent / "data" / golden).read_bytes()


@pytest.mark.parametrize("route", ["partition_tqft", "partition_verlinde"])
def test_a_shift_below_the_float_spacing_fails(capsys, monkeypatch, route):
    """|Z(Sigma_10)| is about 8.0e19 for untwisted S4, so a shift of 1/24^10
    vanishes in floats (max_delta stays 0.0); the exact verdict still fails."""
    import dwu.tqft

    shift, route_fn = Fraction(1, 24**10), getattr(dwu.tqft, route)

    def shifted(*args):
        z = route_fn(*args)
        return z + (shift if route == "partition_verlinde" else z.field.from_rational(shift))

    argv = ["partition", "--group", "S4", "--grading", "0", "--class", "0", "--surfaces", "Sigma_g=10"]
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(f"dwu.tqft.{route}", shifted)
    code, out = run(capsys, *argv)
    assert code == 1
    assert jsonl(out)[0]["max_delta"] == 0.0


@pytest.mark.parametrize("golden", ["partition_D8_g0_all.jsonl", "partition_D8_g0_all_flip_tau.jsonl"])
@pytest.mark.parametrize("tol", ["1e300", "1e-300"])
def test_tol_has_no_effect(capsys, monkeypatch, golden, tol):
    if golden.endswith("_flip_tau.jsonl"):
        monkeypatch.setattr("dwu.tqft.kr_rank", flipped_kr_rank)
    argv = ["partition", "--group", "D8", "--grading", "0", "--class", "all"]
    assert run(capsys, *argv, "--tol", tol) == run(capsys, *argv)


@pytest.mark.parametrize("group", ["Q8xC2", "D16", "C2xC2xC2", "C4xC4", "D12", "S3xC2", "C12"])
def test_indicators_output_is_golden(capsys, group):
    """Block order and idempotent fingerprints match a capture of an earlier release."""
    code, out = run(capsys, "indicators", "--group", group)
    assert code == 0
    golden = Path(__file__).parent / "data" / f"indicators_{group}_all.jsonl"
    assert out.encode() == golden.read_bytes()


ORDER_32 = ["D16xC2", "Q8xC4", "C2xC2xC2xC2xC2", "D8xC4", "C4xC4xC2"]


@pytest.mark.parametrize("group", [*load_manifest()["groups"], *ORDER_32])
def test_gradings_output_is_golden(capsys, group):
    """Sign vectors, their order and the split flags match a capture of an
    earlier release, on the manifest groups and five groups of order 32."""
    code, out = run(capsys, "gradings", "--group", group)
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "data" / f"gradings_{group}.jsonl").read_bytes()


@pytest.mark.parametrize(
    "group, grading",
    [
        ("D16", "all"), ("Q8xC2", "all"), ("C4xC4", "all"), ("S4", "0"), ("C10xC2", "1"),
        ("C3xS3", "0"), ("C6xC3", "0"), ("D18", "0"),
    ],
)
def test_cohomology_output_is_golden(capsys, group, grading):
    """Invariant factors and representative fingerprints of H^2 match a capture
    of an earlier release.  The order-18 groups are not prime powers, so their
    eliminations take non-unit pivot lifts; fixing those lifts (ROADMAP item 0)
    will re-capture C3xS3 and C6xC3."""
    code, out = run(capsys, "cohomology", "--group", group, "--grading", grading, "--degree", "2")
    assert code == 0
    tag = "all" if grading == "all" else f"g{grading}"
    golden = Path(__file__).parent / "data" / f"cohomology_{group}_{tag}.jsonl"
    assert out.encode() == golden.read_bytes()


@pytest.mark.parametrize(
    "args, golden",
    [
        (["--group", "D16xC2", "--grading", "0", "--degree", "2"], "cohomology_D16xC2_g0.jsonl"),
        (["--group", "D16", "--degree", "1"], "cohomology_D16_all_degree1.jsonl"),
    ],
    ids=["D16xC2-0-degree2", "D16-all-degree1"],
)
def test_cohomology_of_order_32_and_of_degree_1_is_golden(capsys, args, golden):
    """H^2 of an order-32 group and H^1 of every D16 grading match a capture
    of an earlier release; both orders are powers of 2."""
    code, out = run(capsys, "cohomology", *args)
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "data" / golden).read_bytes()


# SHA-1 of stdout followed by b"exit <code>", captured at b8d0254
MANIFEST_SHA1 = {
    "partition --group all": "2a735b4c0e6a3eef57fa4cc84b2d8c26621f2722",
    "partition --group all --format csv": "603c3f7a150de61034a9157bb3aa90d0b5c51a85",
    "verify-axioms --group C2": "705123d6cced3550f03932991d975991b4fc872a",
    "verify-axioms --group C4": "ac0fb849b0a58ef4d979a0f48012b6fc536ed135",
    "verify-axioms --group C2xC2": "91d3fb2f5d7953425a31a37037d79f7a961099f5",
    "verify-axioms --group C6": "e4feb49667099ae2e6bf1d78e9049fc449a9065a",
    "verify-axioms --group C8": "51548c9a0acfb75e5a17c91727a9898961ae98b2",
    "verify-axioms --group C4xC2": "a5e2c8f6ae947a57f439f1c51438d4b87a061eed",
    "verify-axioms --group C2xC2xC2": "5f818e444aec5c6e76560d409f419315a7981adf",
    "verify-axioms --group D8": "0d634c75e0392d6e766293e77a17a0fd114a9571",
    "verify-axioms --group Q8": "be3ecdfa5eee0535d91b3c4ca52e9f6e0e5ccda9",
    "verify-axioms --group D10": "6057e813ca21ad97ccf4be322bddbc8af86cb1d2",
    "verify-axioms --group D12": "8b6a04b7a826311e69f55c17cc2a36c9b7838b78",
    "verify-axioms --group C12": "60e86a0cc645a7ea7405bad8b79a86c376ddc361",
    "verify-axioms --group S3xC2": "dfb0d7f976d39863ffb6e702bfdd7b265ae0ca95",
    "verify-axioms --group Q8xC2": "346df91793dbbb6b6220dff5d161053df47ab151",
    "verify-axioms --group D16": "292c3644a01c7bfa4281006227792ea481241a67",
    "verify-axioms --group C4xC4": "d3379ec56586b376cd1a6829bf758eedd29100bc",
}


@pytest.mark.parametrize("argv", list(MANIFEST_SHA1))
def test_the_manifest_output_is_pinned(capsys, argv):
    """stdout and the exit code of the sweep (plain and CSV) and of verify-axioms
    on each manifest group are byte-identical to an earlier capture."""
    code, out = run(capsys, *argv.split())
    assert hashlib.sha1(out.encode() + b"exit %d" % code).hexdigest() == MANIFEST_SHA1[argv]


def test_the_pins_cover_the_manifest():
    assert [argv.split()[-1] for argv in MANIFEST_SHA1 if "verify" in argv] == load_manifest()["groups"]


@pytest.mark.parametrize("extra, expected_code, golden", GOLDEN)
def test_partition_enumerates_no_points_and_builds_no_groupoid(
    capsys, monkeypatch, extra, expected_code, golden
):
    """The golden output without holonomy enumeration, orbits or action groupoids.
    The flip golden's KR values come from the groupoid oracle, formed first."""
    from dwu.cohomology import cohomology_classes
    from dwu.groupoids import ActionGroupoid
    from dwu.groups import enumerate_gradings
    from dwu.tqft import orbifold, turaev_from_cocycle

    if golden.endswith("_flip_tau.jsonl"):
        gg = enumerate_gradings(build_group("D8"))[0]
        flipped = {
            lam.vector().tobytes(): flipped_kr_rank(gg, lam, orbifold(turaev_from_cocycle(gg, lam)).field)
            for lam in cohomology_classes(gg, 2)[0]
        }
        monkeypatch.setattr("dwu.tqft.kr_rank", lambda GG, lam, field=None: flipped[lam.vector().tobytes()])

    def refuse(*args, **kwargs):
        raise AssertionError("the CLI path enumerated points or built a groupoid")

    for target in ["dwu.moduli.holonomy_points", "dwu.tqft.holonomy_points", "dwu.groupoids.orbits"]:
        monkeypatch.setattr(target, refuse)
    monkeypatch.setattr(ActionGroupoid, "__post_init__", refuse)
    code, out = run(capsys, "partition", "--group", "D8", "--grading", "0", "--class", "all", *extra)
    assert code == expected_code
    assert out.encode() == (Path(__file__).parent / "data" / golden).read_bytes()


def test_partition_past_the_old_enumeration_budget(capsys, monkeypatch):
    """Q8xC2 at Sigma_4 and N_8 (8^8 holonomy candidates) under the default budget."""
    monkeypatch.delenv("DW_BUDGET", raising=False)
    code, out = run(
        capsys, "partition", "--group", "Q8xC2", "--grading", "0",
        "--surfaces", "Sigma_g=4,N_k=8",
    )
    assert code == 0
    records = jsonl(out)
    assert {r["surface"] for r in records} >= {"Sigma_g=4", "N_k=8"}
    assert all(r["max_delta"] < 1e-6 for r in records)


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


@pytest.mark.parametrize("group, order", [("C100000", 100000), ("D100000", 100000), ("C32xC32", 1024)])
def test_group_order_cap_is_checked_before_the_table_is_built(capsys, group, order):
    code = main(["gradings", "--group", group])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"resource error: group order {order} exceeds cap 32\n"


def test_cyclic_order_zero_is_named(capsys):
    code = main(["gradings", "--group", "C0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "usage error: cyclic group order must be at least 1, got 0\n"


def run_process(argv, stdout):
    """The CLI in a fresh interpreter writing to stdout: (exit code, stderr)."""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cmd = [sys.executable, "-m", "dwu.cli", *argv]
    proc = subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)
    return proc.returncode, proc.stderr


def test_a_closed_pipe_is_one_resource_error():
    """A reader gone before the first record (as in `dwu partition | head -1`
    after its line): one line and exit 3, with no traceback and no message
    from the interpreter's last flush."""
    r, w = os.pipe()
    os.close(r)
    try:
        code, err = run_process(["partition", "--group", "D8"], w)
    finally:
        os.close(w)
    assert (code, err) == (3, "resource error: cannot write the records: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("extra, to_stdout", [([], True), (["--format", "csv"], True), (["--out", "/dev/full"], False)])
def test_a_full_device_is_one_resource_error(extra, to_stdout):
    """A write, flush or close that fails with ENOSPC, on stdout or --out."""
    with open("/dev/full", "w") as full:
        code, err = run_process(["gradings", "--group", "C4", *extra], full if to_stdout else subprocess.DEVNULL)
    assert (code, err) == (3, "resource error: cannot write the records: [Errno 28] No space left on device\n")


def test_out_naming_a_directory_is_usage_error(tmp_path, capsys):
    code = main(["gradings", "--group", "C2", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error:") and len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["indicators", "--group", "C4", "--grading", "0", "--cocycle-file", "c.json"], 2),
        (["cohomology", "--group", "C99"], 3),
    ],
    ids=["not-a-cocycle", "past-the-cap"],
)
def test_a_run_failing_before_its_first_record_keeps_the_out_file(tmp_path, capsys, monkeypatch, argv, code):
    """--out is opened at the first record: a run refused on its input leaves
    earlier results byte for byte."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text('{"degree": 2, "denominator": 4, "values": {"1,1": 1}}')
    out = tmp_path / "d.json"
    out.write_bytes(b'{"earlier": "results"}\n')
    assert main([*argv, "--out", "d.json"]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.strip().splitlines()) == 1
    assert out.read_bytes() == b'{"earlier": "results"}\n'


def test_a_clean_run_without_records_still_writes_the_out_file(tmp_path):
    path = tmp_path / "d.json"
    with Emitter("json", str(path)):
        pass
    assert path.read_bytes() == b""


def test_cocycle_file_naming_a_directory_is_usage_error(tmp_path, capsys):
    code = main(["partition", "--group", "C2", "--cocycle-file", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error:") and len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["partition", "indicators", "verify-axioms"])
def test_out_naming_the_cocycle_file_is_refused_before_it_is_opened(tmp_path, capsys, command):
    path = tmp_path / "cocycle.json"
    path.write_text('{"degree": 2, "denominator": 2, "values": {"1,1": 1}}')
    before = path.read_bytes()
    same = str(tmp_path / "." / "cocycle.json")  # another spelling of the same file
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--group", "C2", "--grading", "0", "--cocycle-file", str(path), "--out", same])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage error:") and len(captured.err.strip().splitlines()) == 1
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "field, code", [(', "group": "C2"', 0), ("", 0), (', "group": "C4"', 2)], ids=["C2", "absent", "C4"]
)
def test_cocycle_file_for_another_group_is_usage_error(tmp_path, capsys, field, code):
    path = tmp_path / "cocycle.json"
    path.write_text('{"degree": 2, "denominator": 2, "values": {"1,1": 1}%s}' % field)
    assert main(["partition", "--group", "C2", "--cocycle-file", str(path), "--surfaces", "RP2"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == "usage error: the cochain file is for group 'C4', not C2\n"
    else:
        assert captured.err == "" and len(jsonl(captured.out)) == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["partition", "--group", "C2", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
        (["indicators", "--group", "C2", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["gradings", "--group", "C2", "--bogus"], "unrecognized arguments: --bogus"),
        (["cohomology"], "the following arguments are required: --group"),
        ([], "the following arguments are required: command"),
    ],
    ids=["tol", "format", "unknown-flag", "missing-group", "no-command"],
)
def test_argument_error_is_one_usage_error_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert captured.err.startswith(f"usage error: {message}") and len(captured.err.splitlines()) == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["partition", "--help"])
    assert exit_info.value.code == 0 and capsys.readouterr().out.startswith("usage: dwu partition")


@pytest.mark.parametrize("command", ["gradings", "cohomology", "partition", "indicators", "verify-axioms"])
def test_only_partition_offers_group_all(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    group_help = re.search(r"\n  --group GROUP\s+(.*?)\n  --", capsys.readouterr().out, re.S).group(1)
    assert ("'all'" in group_help) == (command == "partition")


def test_partition_sphere_record_carries_the_convention_note(capsys):
    code, out = run(
        capsys, "partition", "--group", "C2xC2", "--grading", "0", "--class", "0", "--surfaces", "S2"
    )
    assert code == 0
    sphere = [r for r in jsonl(out) if r["surface"] == "S2"]
    assert len(sphere) == 1
    assert sphere[0]["convention_sensitive"] and sphere[0]["paper_stated"] == [1.0, 0.0]
    assert sphere[0]["direct"] == [0.5, 0.0]  # groupoid-cardinality value 1/|G|


@pytest.mark.parametrize("surface", ["N_k=1100", "Sigma_g=600"])
def test_value_beyond_the_float_range_is_resource_error(capsys, surface):
    code = main(["partition", "--group", "C4", "--grading", "0", "--class", "0", "--surfaces", surface])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource error:") and len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100000 + "]" * 100000, "malformed cochain file: nested too deeply"),
        (
            '{"degree": 2, "denominator": 1180591620717411303424, "values": {"1,1": 1}}',
            "malformed cochain file: ValueError('cochain denominator 1180591620717411303424 is 2^31 or more')",
        ),
    ],
    ids=["nested-brackets", "denominator-2^70"],
)
def test_cocycle_file_past_a_parser_or_int64_limit_is_one_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "cocycle.json"
    path.write_text(text)
    code = main(["partition", "--group", "C4", "--grading", "0", "--cocycle-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def test_cocycle_file_of_a_degree_above_2_is_refused_before_its_table(tmp_path, capsys):
    """A degree-4 file on C32 would ask for two 32^4 int64 tables (16 MiB)
    before the degree check; it is refused while reading the file."""
    import tracemalloc

    path = tmp_path / "cocycle.json"
    path.write_text('{"degree": 4, "denominator": 2, "values": {}}')
    tracemalloc.start()
    try:
        code = main(["partition", "--group", "C32", "--grading", "0", "--cocycle-file", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error:") and len(captured.err.splitlines()) == 1
    assert peak < 2**20


@pytest.mark.parametrize("budget", [[], ["--budget", "1"]], ids=["default-budget", "budget-1"])
def test_float_range_is_refused_before_the_exact_routes(capsys, budget):
    """S3's Verlinde scale on Sigma_40000 is beyond the float range, and the
    refusal comes before the direct walk (40000 steps, 39 s when it ran
    first) and cut-and-paste.  With a budget too small for the direct
    route's transfer table too, the range error still wins."""
    code = main(["partition", "--group", "S3", "--grading", "0", "--class", "0",
                 "--surfaces", "T2,Sigma_g=40000", *budget])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "resource error: |G|^-chi = 3^79998 is beyond the float range\n"


def test_cocycle_file_field_is_checked_against_the_budget(tmp_path, capsys):
    from dwu.cohomology import TwistedCochain, cochain_to_json, twisted_differential
    from dwu.groups import build_group, enumerate_gradings

    gg = enumerate_gradings(build_group("C6"))[0]
    nu = TwistedCochain.from_dict(gg, 1, {(1,): Fraction(1, 211)})
    path = tmp_path / "cocycle.json"
    path.write_text(cochain_to_json(twisted_differential(nu), "C6"))
    for command in ["partition", "indicators", "verify-axioms"]:
        code = main([command, "--group", "C6", "--cocycle-file", str(path), "--budget", "10000"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", command
        assert captured.err == "resource error: cyclotomic field Q(zeta_211) size 44521 exceeds budget 10000\n"


def reference_fingerprint(cochain):
    """The fingerprint as first written: two gcds and one f-string per entry."""
    N = cochain.N
    payload = ",".join(f"{k // math.gcd(k, N)}/{N // math.gcd(k, N)}" for k in cochain.vector().tolist())
    return hashlib.sha1(payload.encode()).hexdigest()[:12]


@pytest.mark.parametrize("N", [1, 2, 6, 24, 32])
def test_fingerprint_matches_the_per_entry_formula(N):
    """Reduced fractions looked up per distinct value hash to the same digest."""
    rng = np.random.default_rng(N)
    for name, degree in [("C4", 1), ("C4", 2), ("S3", 2), ("C2xC2xC2", 2)]:
        group = build_group(name)
        for _ in range(10):
            vec = rng.integers(-N, 2 * N, size=(group.order - 1) ** degree)
            vec[0] = 1  # keeps the denominator at N
            c = TwistedCochain.from_vector(group, degree, vec, N)
            assert c.N == N and _fingerprint(c) == reference_fingerprint(c)


# The module-level functions of dwu that no subcommand enters, each kept for a
# reason outside the CLI.  A reference that only the tests call lives in
# tests/oracles.py instead.
UNREACHED_BY_THE_CLI = {
    # looked up by name in the WRAPS table of perfbench/tracing.py
    "moduli.holonomy_points",
    "groupoids.double_real_loop",
    "groupoids.orbits",  # the components of the groupoid double_real_loop builds
    # kept for the restriction map H^2(BG^; U(1)_pi) -> H^2(BG; U(1))
    "cohomology.is_twisted_coboundary",
    "cohomology.twisted_differential",  # is_twisted_coboundary checks its witness with it
    "intlinalg.solve_mod",
    "cohomology.cochain_to_json",  # writes the format --cocycle-file reads
    "groups.split_grading",  # the public constructor of the split grading G x C2
}


def test_the_cli_enters_every_module_function_but_the_listed_ones(tmp_path, capsys):
    """Every subcommand runs under a profile hook that records the code it
    enters; the module-level functions of dwu left unentered are exactly
    UNREACHED_BY_THE_CLI, and `from dwu import *` binds every name of __all__."""
    import dwu
    from dwu.cohomology import cochain_to_json, cohomology_classes
    from dwu.groups import enumerate_gradings

    reps, _ = cohomology_classes(enumerate_gradings(build_group("D8"))[0], 2)
    path = tmp_path / "cocycle.json"
    path.write_text(cochain_to_json(reps[1]))
    d8 = ["--group", "D8", "--grading", "0"]
    runs = [
        ["gradings", "--group", "D8"],
        ["cohomology", *d8, "--degree", "1"],
        ["cohomology", *d8, "--degree", "2"],
        ["partition", *d8],
        ["partition", *d8, "--format", "csv"],
        ["partition", *d8, "--cocycle-file", str(path)],
        # the manifest, and through it S3xC2, Q8 and the products
        ["partition", "--group", "all", "--grading", "0", "--class", "0", "--surfaces", ""],
        ["indicators", *d8],
        ["verify-axioms", *d8],
    ]
    modules = [importlib.import_module(f"dwu.{info.name}") for info in pkgutil.iter_modules(dwu.__path__)]
    for module in modules:  # a cached function is entered only on a miss
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    entered = set()

    def record(frame, event, arg):
        entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(runs)

    unentered = set()
    for module in modules:
        for name, obj in vars(module).items():
            fn = inspect.unwrap(obj)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and fn.__code__ not in entered:
                unentered.add(f"{module.__name__.removeprefix('dwu.')}.{name}")
    assert unentered == UNREACHED_BY_THE_CLI

    namespace = {}
    exec("from dwu import *", namespace)
    assert set(dwu.__all__) <= namespace.keys()


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
COCHAIN = st.fixed_dictionaries(
    {"degree": st.integers(-1, 3) | JSON, "denominator": st.sampled_from([1, 2, 4, 2**31, 2**40]) | JSON},
    optional={
        "group": st.sampled_from(["D8", "C4", 8]),
        "values": st.dictionaries(st.sampled_from(["", "0", "1", "1,2", "01", "1,,2", "3,5", "99,1"]), JSON, max_size=4),
    },
)
VALID_GROUPS = st.sampled_from(load_manifest()["groups"] + ["S3", "D6", "C3", "C1", "C2xC2xC3"])
GROUPS = VALID_GROUPS | VALID_GROUPS | st.sampled_from(
    ["C2x", "x", "D0", "S5", "C0", "C17", "D18", "C4xC8", "S4xC2", "Q8xQ8", "C100000", "", "D7"]
)
INDICES = st.sampled_from(["all", "x", "", "-1"]) | st.integers(0, 40).map(str)
SURFACE = st.sampled_from(["S2", "T2", "RP2", "K", "N_k=0", "Sigma_g=", "N_k=", " ", "", "P"]) | st.builds(
    "{}={}".format, st.sampled_from(["Sigma_g", "N_k"]), st.integers(0, 8)
)
NUMBERS = st.sampled_from(["1", "2", "1e-6", "1e300"]) | st.sampled_from(["0", "-1", "nan", "inf", "1e-300", "abc"])
FLAGS = {
    "--grading": INDICES,
    "--class": INDICES,
    "--surfaces": st.lists(SURFACE, max_size=4).map(",".join),
    "--degree": NUMBERS,
    "--tol": NUMBERS,
    "--cap": st.sampled_from(["16", "12"]) | st.integers(-1, 16).map(str),
    "--budget": st.integers(-1, 200_000).map(str),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--cocycle-file": st.just("cocycle"),
}
COMMAND_FLAGS = {
    "gradings": ["--tol", "--budget", "--format"],
    "cohomology": ["--grading", "--degree", "--tol", "--budget", "--format"],
    "partition": ["--grading", "--class", "--surfaces", "--tol", "--budget", "--format", "--cocycle-file"],
    "indicators": ["--grading", "--class", "--tol", "--budget", "--cocycle-file"],
    "verify-axioms": ["--grading", "--class", "--budget", "--cocycle-file"],
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command, "--group", draw(GROUPS), "--cap", draw(FLAGS["--cap"])]  # the default cap is 32
    for flag in draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), unique=True)):
        argv += [flag, draw(FLAGS[flag])]
    return argv, draw(COCHAIN | JSON)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cli_argv())
def test_every_cli_argv_exits_with_a_documented_code(tmp_path_factory, drawn):
    """Any argv of the grammar exits 0-3 without a traceback (an exception
    escaping main fails the test); exits 2 and 3 write exactly one stderr
    line with their prefix."""
    argv, cochain = drawn
    path = tmp_path_factory.getbasetemp() / "cocycle.json"
    path.write_text(json.dumps(cochain))
    argv = [str(path) if arg == "cocycle" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help, or a usage error
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    if code in (2, 3):
        prefix = {2: "usage error:", 3: "resource error:"}[code]
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), (argv, err.getvalue())
