"""Reference outputs of every benchmark item, and the check against them.

Exact fields (exit code, invariant factors, class counts, representative
fingerprints, surface names, indices) must match exactly. `direct` and `tqft`
are float renderings of exact cyclotomic values and match to a relative 1e-9.
`verlinde` and `max_delta` are left out: a change of the floating-point route
may move them legitimately, and the program's own exit code still covers them.

Regenerate the shipped files from the repository root with

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
INEXACT = ("direct", "tqft")
IGNORED = ("verlinde", "max_delta")
RELATIVE_TOL = 1e-9


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load(workload: str) -> dict:
    with open(reference_path(workload)) as f:
        return json.load(f)["items"]


def comparable(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k not in IGNORED} for r in records]


def _close(got, want) -> bool:
    if not (isinstance(got, list) and len(got) == len(want)):
        return False
    scale = max(1.0, abs(complex(*want)))
    return abs(complex(*got) - complex(*want)) <= RELATIVE_TOL * scale


def mismatch(exit_code: int, records: list[dict], ref: dict) -> str | None:
    """A description of the first difference from the reference, or None."""
    if exit_code != ref["exit"]:
        return f"exit code {exit_code}, expected {ref['exit']}"
    got, want = comparable(records), ref["records"]
    if len(got) != len(want):
        return f"{len(got)} records, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g.keys() != w.keys():
            return f"record {i}: fields {sorted(g)}, expected {sorted(w)}"
        for k, v in w.items():
            ok = _close(g[k], v) if k in INEXACT and v is not None else g[k] == v
            if not ok:
                return f"record {i}: {k}={g[k]!r}, expected {v!r}"
    return None


def candidates(argv: list[str]) -> int:
    """Holonomy candidates of a one-surface partition item."""
    from dwu.groups import build_group, enumerate_gradings
    from dwu.moduli import parse_surface
    from tracing import holonomy_candidates

    opt = dict(zip(argv[1::2], argv[2::2]))
    gg = enumerate_gradings(build_group(opt["--group"]))[int(opt["--grading"])]
    return holonomy_candidates(parse_surface(opt["--surfaces"]), gg)


def main() -> int:
    root = HERE.parent
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(root / "src"))
    from dwu import cli
    from dwu.moduli import DEFAULT_BUDGET
    from worker import parse_records, run_item
    from workloads import DECKS, all_items, item_key

    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, deck in DECKS.items():
        items = {}
        for argv in all_items(deck):
            exit_code, text, diagnostic, wall, _ = run_item(cli.main, argv)
            if exit_code != 0:
                print(f"{item_key(argv)}: exit {exit_code} {diagnostic}", file=sys.stderr)
                return 1
            entry = {"exit": exit_code, "records": comparable(parse_records(text))}
            if workload == "big_surfaces":
                entry["candidates"] = candidates(argv)
                if entry["candidates"] > DEFAULT_BUDGET:
                    print(f"{item_key(argv)}: over the enumeration budget", file=sys.stderr)
                    return 1
            items[item_key(argv)] = entry
            print(f"{workload}: {item_key(argv)} {wall:.2f} s", flush=True)
        with open(reference_path(workload), "w") as f:
            json.dump({"workload": workload, "items": items}, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
