"""Command-line front end: gradings, cohomology, partition sweeps, indicators.

Reports stream as JSON Lines (or CSV) so long sweeps survive interruption.
Exit codes: 0 all checks pass, 1 numerical/consistency failure, 2 usage error,
3 resource/budget exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from importlib import resources

from dwu.cohomology import cochain_from_json, cohomology_classes
from dwu.groups import ResourceBudgetError, build_group, enumerate_gradings
from dwu.reptheory import BlockComputationError
from dwu.moduli import parse_surface
from dwu.reptheory import algebra_from_graded, blocks, crosscap_element, fs_indicators
from dwu.tqft import _turaev_data, check_turaev_axioms, check_unoriented_frobenius, consistency_report, orbifold

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

DEFAULT_SURFACES = "S2,T2,Sigma_g=2,RP2,K,N_k=3,N_k=4"


def load_manifest() -> dict:
    text = resources.files("dwu").joinpath("sweep_manifest.json").read_text()
    return json.loads(text)


def _round(x: float) -> float:
    return round(x, 12) + 0.0


def _pair(z: complex) -> list:
    return [_round(z.real), _round(z.imag)]


def _fingerprint(cochain) -> str:
    """Hash of the reduced fractions on the tuples without the identity."""
    N = cochain.N
    payload = ",".join(
        f"{k // math.gcd(k, N)}/{N // math.gcd(k, N)}" for k in cochain.vector().tolist()
    ).encode()
    return hashlib.sha1(payload).hexdigest()[:12]


class Emitter:
    """Single collector: JSONL streams per record, CSV buffers for one header."""

    def __init__(self, fmt: str, out_path: str | None):
        self.fmt = fmt
        self.records = []
        self.out_path = out_path
        self._fh = open(out_path, "w") if out_path else sys.stdout

    @staticmethod
    def _flatten(record: dict) -> dict:
        flat = {}
        for k, v in sorted(record.items()):
            if isinstance(v, list):
                for i, x in enumerate(v):
                    flat[f"{k}_{i}"] = x
            else:
                flat[k] = v
        return flat

    def emit(self, record: dict):
        self.records.append(record)
        if self.fmt == "json":
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self.fmt == "csv" and self.records:
            rows = [self._flatten(r) for r in self.records]
            fields = sorted({k for row in rows for k in row})
            writer = csv.DictWriter(self._fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
            self._fh.flush()
        if self.out_path:
            self._fh.close()


def _resolve_gradings(group_name: str, which: str, cap: int):
    g = build_group(group_name, cap=cap)
    gradings = enumerate_gradings(g)
    if not gradings:
        raise ValueError(f"group {group_name} has no Z2-gradings (no index-2 subgroup)")
    if which == "all":
        return g, list(enumerate(gradings))
    idx = int(which)
    if not 0 <= idx < len(gradings):
        raise IndexError(f"grading index {idx} out of range (found {len(gradings)})")
    return g, [(idx, gradings[idx])]


def _resolve_classes(gg, source: str, cocycle_file: str | None, cap: int):
    if cocycle_file:
        with open(cocycle_file) as f:
            return [("file", cochain_from_json(f.read(), gg))]
    reps, _ = cohomology_classes(gg, 2, cap=cap)
    if source == "all":
        return list(enumerate(reps))
    idx = int(source)
    if not 0 <= idx < len(reps):
        raise IndexError(f"class index {idx} out of range (found {len(reps)})")
    return [(idx, reps[idx])]


def cmd_gradings(args, emitter: Emitter) -> int:
    g = build_group(args.group, cap=args.cap)
    gradings = enumerate_gradings(g)
    if not gradings:
        emitter.emit({"group": args.group, "note": "no Z2-gradings (no index-2 subgroup)"})
        return EXIT_OK
    for i, gg in enumerate(gradings):
        emitter.emit(
            {
                "group": args.group,
                "grading": i,
                "sign": list(gg.sign),
                "even_part": list(gg.even_part),
                "split": gg.is_split(),
            }
        )
    return EXIT_OK


def cmd_cohomology(args, emitter: Emitter) -> int:
    _, gradings = _resolve_gradings(args.group, args.grading, args.cap)
    for gi, gg in gradings:
        reps, factors = cohomology_classes(gg, args.degree, cap=args.cap)
        emitter.emit(
            {
                "group": args.group,
                "grading": gi,
                "degree": args.degree,
                "invariant_factors": factors,
                "classes": len(reps),
                "representatives": [_fingerprint(r) for r in reps],
            }
        )
    return EXIT_OK


def cmd_indicators(args, emitter: Emitter) -> int:
    _, gradings = _resolve_gradings(args.group, args.grading, args.cap)
    for gi, gg in gradings:
        for ci, lam in _resolve_classes(gg, args.cls, args.cocycle_file, args.cap):
            alg = algebra_from_graded(gg, lam)
            bl = fs_indicators(
                blocks(alg, seed=args.seed), crosscap_element(gg, lam), alg
            )
            from dwu.moduli import RP2
            from dwu.tqft import partition_direct

            z_rp2 = partition_direct(gg, lam, RP2, budget=args.budget).to_complex()
            n = gg.even_subgroup.order
            signed_sum = sum(b.indicator * b.dimension for b in bl)
            emitter.emit(
                {
                    "group": args.group,
                    "grading": gi,
                    "class": ci,
                    "blocks": [
                        {
                            "dim": b.dimension,
                            "indicator": b.indicator,
                            "idempotent_fingerprint": hashlib.sha1(
                                repr(b.fingerprint()).encode()
                            ).hexdigest()[:12],
                        }
                        for b in bl
                    ],
                    "z_rp2": _pair(z_rp2),
                    "signed_odd_square_roots_of_e": _pair(n * z_rp2),
                    "signed_dim_sum": signed_sum,
                    "identity_delta": _round(abs(n * z_rp2 - signed_sum)),
                }
            )
    return EXIT_OK


def cmd_verify_axioms(args, emitter: Emitter) -> int:
    failures = 0
    _, gradings = _resolve_gradings(args.group, args.grading, args.cap)
    for gi, gg in gradings:
        for ci, lam in _resolve_classes(gg, args.cls, args.cocycle_file, args.cap):
            T = _turaev_data(gg, lam)
            t_report = check_turaev_axioms(T)
            F = orbifold(T)
            f_report = check_unoriented_frobenius(F)
            record = {
                "group": args.group,
                "grading": gi,
                "class": ci,
                "turaev_conditions": {name: ok for name, ok, _ in t_report.entries},
                "frobenius_conditions": {name: ok for name, ok, _ in f_report.entries},
                "ok": t_report.ok and f_report.ok,
            }
            if not record["ok"]:
                failures += 1
            emitter.emit(record)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_partition(args, emitter: Emitter) -> int:
    surfaces = []
    if args.surfaces:
        for spec in args.surfaces.split(","):
            if spec.strip():
                surfaces.append(parse_surface(spec))
    if args.group == "all":
        names = load_manifest()["groups"]
    else:
        names = [args.group]
    failing = 0
    for name in names:
        _, gradings = _resolve_gradings(name, args.grading, args.cap)
        for gi, gg in gradings:
            for ci, lam in _resolve_classes(gg, args.cls, args.cocycle_file, args.cap):
                rep = consistency_report(
                    gg,
                    lam,
                    surfaces,
                    tol=args.tol,
                    budget=args.budget,
                    seed=args.seed,
                    flip_tau_debug=args.debug_flip_tau,
                )
                base = {"group": name, "grading": gi, "class": ci}
                for row in rep["surfaces"]:
                    record = dict(base)
                    record["surface"] = row["surface"]
                    record["direct"] = _pair(row["direct"])
                    record["tqft"] = _pair(row["tqft"])
                    record["verlinde"] = (
                        _pair(row["verlinde"]) if row["verlinde"] is not None else None
                    )
                    record["max_delta"] = _round(row["max_delta"])
                    if row.get("convention_sensitive"):
                        record["convention_sensitive"] = True
                        record["paper_stated"] = _pair(row["paper_stated"])
                    emitter.emit(record)
                kr_rec = dict(base)
                kr_rec["surface"] = "one-loop-identity"
                kr_rec["direct"] = _pair(rep["one_loop"])
                kr_rec["tqft"] = _pair(rep["kr_rank"])
                kr_rec["verlinde"] = None
                kr_rec["max_delta"] = _round(rep["kr_delta"])
                emitter.emit(kr_rec)
                cc_rec = dict(base)
                cc_rec["surface"] = "crosscap-trace"
                cc_rec["direct"] = _pair(rep["rp2_direct"])
                cc_rec["tqft"] = _pair(rep["crosscap_trace"])
                cc_rec["verlinde"] = None
                cc_rec["max_delta"] = _round(rep["crosscap_trace_delta"])
                emitter.emit(cc_rec)
                if not rep["ok"]:
                    failing += 1
    return EXIT_OK if failing == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwu",
        description="Unoriented Dijkgraaf-Witten computations for Z2-graded groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_class=True):
        p.add_argument("--group", required=True, help="catalog name, e.g. C4, D8, Q8xC2, or 'all'")
        p.add_argument("--grading", default="all", help="grading index or 'all'")
        if with_class:
            p.add_argument(
                "--class", "--cocycle-class", dest="cls", default="all",
                help="cocycle class index or 'all'",
            )
            p.add_argument("--cocycle-file", default=None, help="JSON cocycle file overriding --class")
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--seed", type=int, default=12345)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--budget", type=int, default=None, help="enumeration budget override")
        p.add_argument("--cap", type=int, default=32, help="group order cap")

    p = sub.add_parser("gradings", help="list Z2-gradings of a group")
    common(p, with_class=False)
    p.set_defaults(func=cmd_gradings)

    p = sub.add_parser("cohomology", help="twisted cohomology classes")
    common(p, with_class=False)
    p.add_argument("--degree", type=int, default=2)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("partition", help="partition functions by all routes")
    common(p)
    p.add_argument("--surfaces", default=DEFAULT_SURFACES)
    p.add_argument("--debug-flip-tau", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("indicators", help="block dimensions and FS indicators")
    common(p)
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("verify-axioms", help="Turaev and unoriented Frobenius checks")
    common(p)
    p.set_defaults(func=cmd_verify_axioms)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tol = getattr(args, "tol", 1.0)
    if not (math.isfinite(tol) and tol > 0):
        print("usage error: --tol must be positive", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "degree", 2) not in (1, 2):
        print("error: --degree must be 1 or 2", file=sys.stderr)
        return EXIT_USAGE
    try:
        env = os.environ.get("DW_BUDGET")
        if args.budget is None and env:
            try:
                args.budget = int(env)
            except ValueError:
                raise ValueError(f"DW_BUDGET must be an integer, got {env!r}") from None
        with Emitter(args.format, args.out) as emitter:
            return args.func(args, emitter)
    except ResourceBudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BlockComputationError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, IndexError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
