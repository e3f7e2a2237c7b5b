"""Per-layer spans recorded from outside the program.

The tracer rebinds public functions of `dwu` in the namespace that calls them
(for example `dwu.cli.consistency_report` or `dwu.tqft.partition_direct`) to
wrappers that record a span (layer, start, end, parent span, item) in memory.
`uninstall` puts the original function objects back. A layer's busy time is
the total of its spans that have no ancestor span of the same layer; its self
time is the total of its span durations minus the time covered by their
direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# (layer, module the caller looks the name up in, attribute)
WRAPS = [
    ("cli", "dwu.cli", "main"),
    ("groups", "dwu.cli", "build_group"),
    ("groups", "dwu.cli", "enumerate_gradings"),
    ("cohomology", "dwu.cli", "cohomology_classes"),
    ("intlinalg", "dwu.cohomology", "kernel_mod"),
    ("intlinalg", "dwu.cohomology", "quotient_invariants"),
    ("tqft.report", "dwu.cli", "consistency_report"),
    ("tqft.turaev", "dwu.tqft", "turaev_from_cocycle"),
    ("tqft.turaev_check", "dwu.tqft", "check_turaev_axioms"),
    ("tqft.orbifold", "dwu.tqft", "orbifold"),
    ("tqft.frobenius_check", "dwu.tqft", "check_unoriented_frobenius"),
    ("tqft.direct", "dwu.tqft", "partition_direct"),
    ("moduli", "dwu.tqft", "holonomy_points"),
    ("transgression", "dwu.tqft", "relator_pairing"),
    ("transgression", "dwu.tqft", "tau_ref"),
    ("tqft.cut_paste", "dwu.tqft", "partition_tqft"),
    ("tqft.verlinde", "dwu.tqft", "partition_verlinde"),
    ("tqft.kr", "dwu.tqft", "kr_rank"),
    ("tqft.one_loop", "dwu.tqft", "one_loop"),
    # tqft and cli import these inside function bodies, from their home modules
    ("groupoids", "dwu.groupoids", "double_real_loop"),
    ("reptheory", "dwu.reptheory", "algebra_from_graded"),
    ("reptheory", "dwu.reptheory", "blocks"),
    ("reptheory", "dwu.reptheory", "fs_indicators"),
    ("reptheory", "dwu.reptheory", "crosscap_element"),
]

BUSY_LAYERS = [
    "groups", "cohomology", "intlinalg", "tqft.turaev", "tqft.turaev_check",
    "tqft.orbifold", "tqft.frobenius_check", "tqft.direct", "moduli",
    "transgression", "tqft.cut_paste", "tqft.verlinde", "tqft.kr",
    "tqft.one_loop", "groupoids", "reptheory",
]
SELF_LAYERS = ["cli", "cohomology", "tqft.report", "tqft.direct"]
CALL_LAYERS = ["cohomology", "tqft.direct", "transgression"]


def holonomy_candidates(surface, gg) -> int:
    """Product of the generator pool sizes that `holonomy_points` enumerates."""
    n = 1
    for c in surface.generator_characters():
        n *= sum(1 for s in gg.sign if s == c)
    return n


class Tracer:
    """Span recorder; `install` wraps every entry of WRAPS, `uninstall` restores them."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index, item, child seconds]
        self.counts: Counter = Counter()
        self.item_counts: dict = defaultdict(Counter)
        self.l_max = 0
        self.item = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # counters, looked up by the wrapped function's name
    def _count_cohomology_classes(self, args, result):
        self.counts["cohomology.classes"] += len(result[0])

    def _count_orbifold(self, args, result):
        self.counts["tqft.orbifold.sections"] += result.dim

    def _count_partition_direct(self, args, result):
        self.l_max = max(self.l_max, result.field.L)

    def _count_holonomy_points(self, args, result):
        per_item = self.item_counts[self.item]
        per_item["moduli.points"] += len(result)
        per_item["moduli.candidates"] += holonomy_candidates(args[0], args[1])

    def _count_blocks(self, args, result):
        self.counts["reptheory.blocks"] += len(result)

    def _wrap(self, layer: str, attr: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = getattr(self, f"_count_{attr}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [layer, clock(), 0.0, parent, self.item, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                if parent >= 0:
                    spans[parent][5] += span[2] - span[1]
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module_name, attr in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def layer_totals(self):
        """(busy seconds, self seconds, calls) per layer over all spans."""
        busy, own, calls = defaultdict(float), defaultdict(float), Counter()
        for layer, start, end, parent, _, child in self.spans:
            own[layer] += end - start - child
            calls[layer] += 1
            while parent >= 0 and self.spans[parent][0] != layer:
                parent = self.spans[parent][3]
            if parent < 0:
                busy[layer] += end - start
        return busy, own, calls

    def metrics(self, passes: int, classes_consumed: int) -> dict:
        """Per-layer metrics, per traced pass over the workload's items."""
        busy, own, calls = self.layer_totals()
        item_totals = sum(self.item_counts.values(), Counter())
        out = {}
        for layer in BUSY_LAYERS:
            out[f"{layer}.busy_s"] = busy[layer] / passes
        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = own[layer] / passes
        for layer in CALL_LAYERS:
            out[f"{layer}.calls"] = calls[layer] / passes
        classes = self.counts["cohomology.classes"]
        out["cohomology.classes"] = classes / passes
        out["cohomology.reps_used_ratio"] = classes_consumed / classes if classes else 0.0
        out["tqft.orbifold.sections"] = self.counts["tqft.orbifold.sections"] / passes
        points, cands = item_totals["moduli.points"], item_totals["moduli.candidates"]
        out["tqft.direct.points_per_s"] = points / busy["tqft.direct"] if busy["tqft.direct"] else 0.0
        out["phases.L_max"] = self.l_max
        out["moduli.points"] = points / passes
        out["moduli.candidates"] = cands / passes
        out["moduli.accept_ratio"] = points / cands if cands else 0.0
        out["reptheory.blocks"] = self.counts["reptheory.blocks"] / passes
        return out

    def shares(self) -> dict:
        """Each layer's busy time as a share of the time inside `dwu.cli.main`."""
        busy, _, _ = self.layer_totals()
        total = busy["cli"]
        return {layer: busy[layer] / total for layer in BUSY_LAYERS} if total else {}

    def write_spans(self, path):
        with open(path, "w") as f:
            for layer, start, end, parent, item, _ in self.spans:
                f.write(json.dumps([layer, start, end, parent, item]) + "\n")
