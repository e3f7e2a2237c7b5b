"""Workload decks and seeded item generation.

A deck is a list of families. Each family is a list of interchangeable CLI
argument lists of about the same cost; the seed picks one member of each
family and the order in which the chosen items run. A run repeats that item
list in passes, so every seed measures the same cost mix. Decks are sized so
that a pass takes 5 to 7 s, single-threaded on a 2-core x86-64 box, which
leaves room for several passes in one run.
"""

from __future__ import annotations

import random

SWEEP_SURFACES = "T2,Sigma_g=2,RP2,K,N_k=3,N_k=4"

# Every grading of the manifest groups of order <= 10 and of C12. Left out:
# C2xC2xC2 (7 gradings of 16 classes, 13 s), D12 and S3xC2 (3 s each) and the
# order-16 groups (81 s together), which would not fit a pass.
_SWEEP_GROUPS = [
    ("C2", 1), ("C4", 1), ("C2xC2", 3), ("C6", 1), ("C8", 1), ("C4xC2", 3),
    ("D8", 3), ("Q8", 3), ("D10", 1), ("C12", 1),
]

# (group, grading, nonzero twisted classes the seed picks from, surface).
# Every item fits the default 5e6 enumeration budget.
_BIG_SURFACE_CASES = [
    ("D12", 0, (1, 2, 3), "Sigma_g=3"),
    ("S3xC2", 0, (1, 2, 3), "N_k=6"),
    ("Q8xC2", 0, (1, 2, 3), "N_k=5"),
    ("C4xC4", 0, (1, 2, 3), "N_k=5"),
]

# (group, grading): twisted H^2 of groups of order 18 to 24.
_BIG_GROUPS = [("C3xS3", 0), ("C6xC3", 0), ("D18", 0), ("C10xC2", 1), ("S4", 0)]


def _partition(group: str, grading: int, cls: str, surfaces: str) -> list[str]:
    return ["partition", "--group", group, "--grading", str(grading),
            "--class", cls, "--surfaces", surfaces]


DECKS: dict[str, list[list[list[str]]]] = {
    "sweep": [
        [_partition(g, i, "all", SWEEP_SURFACES)]
        for g, n in _SWEEP_GROUPS
        for i in range(n)
    ],
    "big_surfaces": [
        [_partition(g, i, str(c), s) for c in classes]
        for g, i, classes, s in _BIG_SURFACE_CASES
    ],
    "big_groups": [
        [["cohomology", "--group", g, "--grading", str(i), "--degree", "2"]]
        for g, i in _BIG_GROUPS
    ],
}


# The calibration unit (see worker.py) whose work is most like the workload's:
# Fraction and dict work in the partition routes, int64 row arithmetic in
# the cohomology of big groups.
CALIBRATION = {"sweep": "python", "big_surfaces": "python", "big_groups": "numpy"}


def item_key(argv: list[str]) -> str:
    """The reference-file key of one item."""
    return " ".join(argv)


def generate_items(deck: list[list[list[str]]], seed: int) -> list[list[str]]:
    """One member of each family, in seeded order."""
    rng = random.Random(seed)
    items = [list(rng.choice(family)) for family in deck]
    rng.shuffle(items)
    return items


def all_items(deck: list[list[list[str]]]) -> list[list[str]]:
    """Every item any seed can pick."""
    return [argv for family in deck for argv in family]
