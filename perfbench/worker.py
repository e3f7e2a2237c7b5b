"""One benchmark run, in the fresh child process that run.py starts.

Closed loop, one client: the seeded items run back to back on one thread
through `dwu.cli.main`, in as many whole passes over the same item list as
fit in --seconds. With --trace 1, untraced and traced passes alternate,
so the two rates give the tracing overhead. Every item's output is checked
against the shipped reference after the timed phase.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def python_unit() -> float:
    """Wall seconds of `Fraction` sums and tuple-keyed dict updates.

    These operations dominate the profile of the partition routes.
    """
    t = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 700):
        acc += Fraction(i % 7, i % 13 + 1)
        table[(i, i % 5)] = acc.numerator % 97
    return time.perf_counter() - t


def numpy_unit() -> float:
    """Wall seconds of int64 row arithmetic mod N, as in `dwu.intlinalg`."""
    import numpy as np

    t = time.perf_counter()
    a = np.arange(14400, dtype=np.int64) % 24
    b = (np.arange(14400, dtype=np.int64) * 7) % 24
    for k in range(1, 21):
        a, b = (k * a + 5 * b) % 24, (a - (k % 5) * b) % 24
        if not a.any():
            a = a + 1
    return time.perf_counter() - t


# Each calibration unit's wall time on the machine that times are scaled to.
REFERENCE_S = {"python": 0.0025, "numpy": 0.0028}
UNITS = {"python": python_unit, "numpy": numpy_unit}
# A unit's time swings about twice as much (in log terms) as the program's
# when the machine speeds up or slows down, so only the square root of the
# ratio is applied; see README.md.
SCALE_EXPONENT = 0.5


def scale_factor(unit: str, calibration: list[float]) -> float:
    """Factor that turns times measured alongside `calibration` into reference time."""
    return (REFERENCE_S[unit] / statistics.median(calibration)) ** SCALE_EXPONENT


def run_item(main, argv: list[str]):
    """(exit code, stdout, diagnostic, wall seconds, CPU seconds) of one CLI call.

    The exit code is None when the call raised; the diagnostic is then the
    exception, otherwise the tail of standard error.
    """
    out, err = io.StringIO(), io.StringIO()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an item that raises is a failed item, not a dead run
        code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return code, out.getvalue(), err.getvalue().strip()[-300:], wall, cpu


def parse_records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def setup(workload: str, seed: int):
    """Import, manifest and reference load, item generation; returns its time too."""
    t0 = time.perf_counter()
    import dwu
    from dwu import cli

    src = (ROOT / "src").resolve()
    if src not in Path(dwu.__file__).resolve().parents:
        raise SystemExit(f"dwu imported from {dwu.__file__}, not from {src}")
    cli.load_manifest()
    import reference
    from workloads import DECKS, generate_items, item_key

    refs = reference.load(workload)
    items = generate_items(DECKS[workload], seed)
    missing = [item_key(a) for a in items if item_key(a) not in refs]
    if missing:
        raise SystemExit(f"no reference output for {missing}")
    return cli, refs, items, time.perf_counter() - t0


def measure(cli, items: list[list[str]], seconds: float, unit: str = "python",
            tracer=None) -> dict:
    """Run whole passes over the items while the next is expected to end within `seconds`.

    There is at least one pass, and with a tracer at least four. The named
    calibration unit runs twice before each item, outside its timing, and
    gives the pass its scale factor. With a tracer, passes alternate untraced
    and traced, starting untraced, so slow spells of the machine hit both.
    """
    results, passes = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            calib, first = [], len(results)
            for argv in items:
                calib += [UNITS[unit](), UNITS[unit]()]
                if traced:
                    tracer.item = len(results)
                # looked up on every call, so an installed tracer wraps it
                results.append((len(passes), argv, *run_item(cli.main, argv)))
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "scale": scale_factor(unit, calib),
                       "wall_s": sum(r[5] for r in results[first:]),
                       "cpu_s": sum(r[6] for r in results[first:])})
        elapsed = time.perf_counter() - start
        if len(passes) >= (4 if tracer else 1) and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return {"results": results, "passes": passes}


def tail(latencies: list[float]):
    """(percentile, value): the highest percentile with ten items beyond it.

    None when that percentile would lie below the median (under 20 items).
    """
    n = len(latencies)
    k = n - 10
    if k < 10:
        return None
    return 100.0 * k / n, sorted(latencies)[k - 1]


def check(results, refs) -> list[dict]:
    """Per-item outcome against the reference; `failure` is None on a match."""
    import reference
    from workloads import item_key

    out = []
    for i, (pass_index, argv, code, text, diagnostic, wall, cpu) in enumerate(results):
        key = item_key(argv)
        if code is None:
            failure = diagnostic
        else:
            try:
                failure = reference.mismatch(code, parse_records(text), refs[key])
            except json.JSONDecodeError as exc:
                failure = f"unparseable output: {exc}"
            if failure and diagnostic:
                failure += f" ({diagnostic})"
        out.append({"index": i, "pass": pass_index, "item": key, "exit": code,
                    "wall_s": wall, "cpu_s": cpu, "failure": failure})
    return out


def classes_consumed(results) -> int:
    """Distinct (grading, class) results emitted, or classes printed by cohomology."""
    total = 0
    for _, argv, code, text, _, _, _ in results:
        if code != 0:
            continue
        records = parse_records(text)
        if argv[0] == "cohomology":
            total += sum(r["classes"] for r in records)
        else:
            total += len({(r["grading"], r["class"]) for r in records})
    return total


def pass_rate(passes: list[dict], n_items: int, traced: bool, scaled: bool = True) -> float:
    """Median over the untraced (or traced) passes of items per second."""
    return statistics.median(n_items / (p["wall_s"] * (p["scale"] if scaled else 1.0))
                             for p in passes if p["traced"] == traced)


def summarize(run: dict, outcomes: list[dict], n_items: int) -> dict:
    """End-to-end figures from the untraced passes, in reference time.

    Each pass's times are multiplied by its scale factor, and rates and CPU time
    are medians over passes; both damp the speed swings of a shared machine.
    The `raw_` figures are the same without the scaling.
    """
    passes = run["passes"]
    untraced = [p for p in passes if not p["traced"]]
    timed = [(o["wall_s"], passes[o["pass"]]) for o in outcomes if not passes[o["pass"]]["traced"]]
    walls = [w * p["scale"] for w, p in timed]
    failed = sum(1 for o in outcomes if o["failure"] is not None)
    summary = {
        "attempted": len(outcomes),
        "failed": failed,
        "failed_frac": failed / len(outcomes),
        "passes": len(passes),
        "items_per_pass": n_items,
        "items_per_s": pass_rate(passes, n_items, traced=False),
        "item_p50_s": statistics.median(walls),
        "cpu_s_per_item": statistics.median(p["cpu_s"] * p["scale"] / n_items for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "scale": statistics.median(p["scale"] for p in untraced),
        "raw_items_per_s": pass_rate(passes, n_items, traced=False, scaled=False),
        "raw_item_p50_s": statistics.median(w for w, _ in timed),
        "raw_cpu_s_per_item": statistics.median(p["cpu_s"] / n_items for p in untraced),
    }
    t = tail(walls)
    if t is not None:
        summary["item_tail_s"] = {"percentile": t[0], "value": t[1], "items": len(walls)}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    # set-up is import work, which the Python unit follows
    setup_scale = scale_factor("python", [python_unit() for _ in range(5)])
    cli, refs, items, setup_s = setup(args.workload, args.seed)
    setup_info = {"setup_s": setup_s, "scale": setup_scale}
    if args.setup_only:
        print(json.dumps(setup_info))
        return 0

    from workloads import CALIBRATION

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    run = measure(cli, items, args.seconds, CALIBRATION[args.workload], tracer)
    outcomes = check(run["results"], refs)
    result = {"setup": setup_info, "summary": summarize(run, outcomes, len(items)),
              "passes": run["passes"], "items": outcomes, "python": sys.version.split()[0]}
    import numpy

    result["numpy"] = numpy.__version__
    if tracer is not None:
        passes = run["passes"]
        traced = [r for r in run["results"] if passes[r[0]]["traced"]]
        n_traced = sum(1 for p in passes if p["traced"])
        result["per_layer"] = tracer.metrics(n_traced, classes_consumed(traced))
        result["per_layer"]["trace.overhead_ratio"] = (
            pass_rate(passes, len(items), traced=True) / pass_rate(passes, len(items), traced=False))
        result["shares"] = tracer.shares()
        result["item_counts"] = {str(k): dict(v) for k, v in sorted(tracer.item_counts.items())}
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
