"""Command-line front end: gradings, cohomology, partition sweeps, indicators.

Reports stream as JSON Lines (or CSV) so long sweeps survive interruption.
Exit codes: 0 all checks pass, 1 numerical/consistency failure, 2 usage error,
3 resource/budget exhaustion or records that cannot be written (a closed pipe,
a full device; stdout then goes to os.devnull, so that no later flush fails).
"""

from __future__ import annotations

import _sha1
import argparse
import csv
import functools
import json
import math
import os
import sys
from importlib import resources

from dwu.cohomology import cochain_from_json, cohomology_classes
from dwu.groups import DEFAULT_ORDER_CAP, ResourceBudgetError, build_group, enumerate_gradings
from dwu.moduli import enumeration_budget, parse_surface, require_budget
from dwu.reptheory import BlockComputationError, algebra_from_graded, blocks, crosscap_element, fs_indicators
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


def _sha1_12(payload: bytes) -> str:
    """The first 12 hex digits of the SHA-1 of payload, from CPython's builtin
    _sha1, the module hashlib falls back to.  hashlib loads OpenSSL (about
    3.5 MB resident); the digest is the same."""
    return _sha1.sha1(payload).hexdigest()[:12]


def _fingerprint(cochain) -> str:
    """Hash of the reduced fractions on the tuples without the identity."""
    N, vec = cochain.N, cochain.vector().tolist()
    frac = {k: f"{k // math.gcd(k, N)}/{N // math.gcd(k, N)}" for k in set(vec)}
    return _sha1_12(",".join(map(frac.__getitem__, vec)).encode())


class Emitter:
    """Single collector: JSONL streams per record, CSV buffers for one header.
    --out is opened at the first record, or at a clean end without records,
    so a run that fails before its first record leaves the file as it was."""

    def __init__(self, fmt: str, out_path: str | None):
        self.fmt = fmt
        self.records = []
        self.out_path = out_path
        self._fh = None if out_path else sys.stdout

    def _out(self):
        if self._fh is None:
            try:
                self._fh = open(self.out_path, "w")
            except OSError as exc:  # a missing directory, a directory, no permission
                raise ValueError(str(exc)) from exc
        return self._fh

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
        if self.fmt == "csv":
            self.records.append(record)
        else:
            self._out().write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        self.close(clean=exc_type is None)

    def close(self, clean: bool = True):
        if self.fmt == "csv" and self.records:
            rows = [self._flatten(r) for r in self.records]
            fields = sorted({k for row in rows for k in row})
            writer = csv.DictWriter(self._out(), fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
            self._fh.flush()
        elif clean:
            self._out()
        if self.out_path and self._fh is not None:
            self._fh.close()


def _resolve_gradings(group_name: str, which: str, cap: int):
    gradings = enumerate_gradings(build_group(group_name, cap=cap))
    if not gradings:
        raise ValueError(f"group {group_name} has no Z2-gradings (no index-2 subgroup)")
    if which == "all":
        return list(enumerate(gradings))
    idx = int(which)
    if not 0 <= idx < len(gradings):
        raise IndexError(f"grading index {idx} out of range (found {len(gradings)})")
    return [(idx, gradings[idx])]


def _resolve_classes(gg, args):
    if args.cocycle_file:
        try:
            with open(args.cocycle_file) as f:
                text = f.read()
        except OSError as exc:  # a missing file, a directory, no permission
            raise ValueError(str(exc)) from exc
        lam = cochain_from_json(text, gg)
        # Q(zeta_L) is built as an L x phi(L) table: refuse a large L first
        require_budget(f"cyclotomic field Q(zeta_{lam.N})", lam.N**2, args.budget)
        return [("file", lam)]
    reps, _ = cohomology_classes(gg, 2, cap=args.cap)
    if args.cls == "all":
        return list(enumerate(reps))
    idx = int(args.cls)
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
                "sign": gg.sign.tolist(),
                "even_part": gg.even_part.tolist(),
                "split": gg.is_split(),
            }
        )
    return EXIT_OK


def cmd_cohomology(args, emitter: Emitter) -> int:
    for gi, gg in _resolve_gradings(args.group, args.grading, args.cap):
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
    for gi, gg in _resolve_gradings(args.group, args.grading, args.cap):
        for ci, lam in _resolve_classes(gg, args):
            alg = algebra_from_graded(gg, lam)
            bl = fs_indicators(blocks(alg), crosscap_element(gg, lam), alg)
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
                            "idempotent_fingerprint": _sha1_12(repr(b.fingerprint()).encode()),
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
    for gi, gg in _resolve_gradings(args.group, args.grading, args.cap):
        for ci, lam in _resolve_classes(gg, args):
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
        for gi, gg in _resolve_gradings(name, args.grading, args.cap):
            for ci, lam in _resolve_classes(gg, args):
                rep = consistency_report(gg, lam, surfaces, budget=args.budget)
                for row in rep["rows"]:
                    direct, tqft, verlinde = row.as_complex
                    record = {"group": name, "grading": gi, "class": ci, "surface": row.surface}
                    record["direct"], record["tqft"] = _pair(direct), _pair(tqft)
                    record["verlinde"] = _pair(verlinde) if verlinde is not None else None
                    record["max_delta"] = _round(row.max_delta)
                    if row.surface == "S2":  # groupoid cardinality 1/|G|, not the stated 1
                        record["convention_sensitive"] = True
                        record["paper_stated"] = [1.0, 0.0]
                    emitter.emit(record)
                if not rep["ok"]:
                    failing += 1
    return EXIT_OK if failing == 0 else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one `usage error:` line, exit 2."""

    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dwu",
        description="Unoriented Dijkgraaf-Witten computations for Z2-graded groups",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, with_class=True, group_help="catalog name, e.g. C4, D8, Q8xC2"):
        p.add_argument("--group", required=True, help=group_help)
        p.add_argument("--grading", default="all", help="grading index or 'all'")
        if with_class:
            p.add_argument(
                "--class", "--cocycle-class", dest="cls", default="all",
                help="cocycle class index or 'all'",
            )
            p.add_argument("--cocycle-file", default=None, help="JSON cocycle file overriding --class")
        p.add_argument("--tol", type=float, default=1e-6, help="accepted; has no effect")
        p.add_argument("--seed", type=int, default=12345, help="accepted; has no effect")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--budget", type=int, default=None, help="enumeration budget override")
        p.add_argument("--cap", type=int, default=DEFAULT_ORDER_CAP, help="group order cap")

    p = sub.add_parser("gradings", help="list Z2-gradings of a group")
    common(p, with_class=False)
    p.set_defaults(func=cmd_gradings)

    p = sub.add_parser("cohomology", help="twisted cohomology classes")
    common(p, with_class=False)
    p.add_argument("--degree", type=int, default=2)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("partition", help="partition functions by all routes")
    common(p, group_help="catalog name, e.g. C4, D8, Q8xC2, or 'all' for the sweep manifest")
    p.add_argument("--surfaces", default=DEFAULT_SURFACES)
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
        print("usage error: --degree must be 1 or 2", file=sys.stderr)
        return EXIT_USAGE
    paths = [args.out, getattr(args, "cocycle_file", None)]
    if all(paths) and all(map(os.path.exists, paths)) and os.path.samefile(*paths):
        parser.error("--out names the --cocycle-file, which it would overwrite")
    try:
        if args.budget is None:
            args.budget = enumeration_budget()
        with Emitter(args.format, args.out) as emitter:
            return args.func(args, emitter)
    except (ResourceBudgetError, OverflowError) as exc:  # OverflowError: past the float range
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BlockComputationError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, IndexError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # inputs raise theirs as ValueError, so only the records' writes reach here
        if args.out is None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"resource error: cannot write the records: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
