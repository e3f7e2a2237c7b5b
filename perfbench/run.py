"""Benchmark of the `dwu` command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. Each run starts a fresh child process (worker.py) with a
fixed environment: DW_BUDGET unset, BLAS threads pinned to 1, a fixed
PYTHONHASHSEED. Set-up time is the median over several children that only
set up. Times are scaled by a calibration unit run alongside them (see
README.md), which damps the speed swings of a shared machine. With --trace 0 the result line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. The last line of
standard output is the JSON result; the full result, with per-item times and
provenance, is also written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DECKS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_CHILDREN = 9  # set-up-only children; with the measuring child, 10 samples
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 140


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("DW_BUDGET", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run worker.py with the fixed environment; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def read_text(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    cpu = [line.split(":", 1)[1].strip() for line in read_text("/proc/cpuinfo").splitlines()
           if line.startswith("model name")]
    return {
        "commit": commit,
        "src_sha1": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu[0] if cpu else None,
    }


def select_metrics(values: dict, spec: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, in its order, with its units."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dwu" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'dwu'}", file=sys.stderr)
        return 1
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    load_start = read_text("/proc/loadavg").split()[:3]
    try:
        setups = [run_child([*common, "--setup-only"], SETUP_TIMEOUT_S)
                  for _ in range(SETUP_CHILDREN)]
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        extra = ["--spans-out", f"{stem}.spans.jsonl"] if args.trace else []
        result = run_child([*common, "--seconds", str(args.seconds),
                            "--trace", str(args.trace), *extra], RUN_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = result["summary"]
    setups.append(result["setup"])
    values = dict(summary, setup_s=statistics.median(s["setup_s"] * s["scale"] for s in setups))
    if args.trace:
        values.update(result["per_layer"])
    try:
        metrics = select_metrics(values, bench["per_layer" if args.trace else "end_to_end"])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result.update(provenance(), workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples=setups,
                  loadavg_start=load_start, loadavg_end=read_text("/proc/loadavg").split()[:3])
    with open(f"{stem}.json", "w") as f:
        json.dump(result, f, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{summary['attempted']} items in {summary['passes']} passes of "
          f"{summary['items_per_pass']}, {summary['failed']} failed "
          f"(failed_frac {summary['failed_frac']:.3f})")
    for item in result["items"]:
        if item["failure"]:
            print(f"  FAILED {item['item']}: {item['failure']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  unscaled: items_per_s {summary['raw_items_per_s']:.6g} 1/s, "
              f"item_p50_s {summary['raw_item_p50_s']:.6g} s, "
              f"cpu_s_per_item {summary['raw_cpu_s_per_item']:.6g} s, "
              f"setup_s {statistics.median(s['setup_s'] for s in setups):.6g} s; "
              f"median scale factor {summary['scale']:.4g}")
    if "item_tail_s" in summary:
        t = summary["item_tail_s"]
        print(f"  item_tail_s = {t['value']:.6g} s (p{t['percentile']:.0f} of {t['items']} items)")
    else:
        print("  item_tail_s: not reported, too few untraced items for ten beyond the median")
    for layer, share in sorted(result.get("shares", {}).items(), key=lambda kv: -kv[1]):
        print(f"  share {layer} = {share:.3f}")
    print(f"  python {result['python']}, numpy {result['numpy']}, nproc {result['nproc']}, "
          f"loadavg {' '.join(load_start)} -> {' '.join(result['loadavg_end'])}, "
          f"commit {result['commit']}, src {result['src_sha1'][:12]}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
