"""Cold-start benchmark of rangecontrol audits and control solves.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload audit-hs --seed 1 --seconds 32 --trace 0

A pass runs every operation of the workload once, each in a fresh
interpreter of its own (``child.py``), so the process-wide
``_subset_tally`` cache starts empty as it does for every ``rangecontrol``
call.  Passes repeat while another one still fits in ``--seconds``.  With
``--trace 0`` the last stdout line reports the medians of the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and it
reports the per-layer metrics of the traced passes (see ``spans.py``).
The spans of the last traced pass are written to ``.perfbench-work/``.  A description
of the workloads is in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

PACKAGE = os.path.join("src", "rangecontrol", "__init__.py")
EXPECTED = os.path.join(HERE, "expected.json")
DECLARED = "BENCHMARK.json"
WORK = ".perfbench-work"
PASS_TIMEOUT_S = 150


def environment() -> str:
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"{platform.system()} {platform.machine()}")


def child_command(workload: str, op: str, variant: int, spec_seed, trace: int, emit: bool,
                  expected: str = EXPECTED, work: str = WORK) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--op", op, "--variant", str(variant), "--trace", str(trace), "--work", work]
    if spec_seed is not None:
        cmd += ["--spec-seed", str(spec_seed)]
    cmd += ["--emit"] if emit else ["--expected", expected]
    return cmd


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_op(workload: str, op: str, variant: int, spec_seed, trace: int,
           expected: str = EXPECTED, work: str = WORK) -> dict:
    """One operation in its own child; a crashed or hung child fails the operation."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            child_command(workload, op, variant, spec_seed, trace, False, expected, work),
            capture_output=True, text=True, env=child_env(), timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"failures": {op: "operation timed out"}}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stderr.write(proc.stderr)
        return {"failures": {op: f"child exited with {proc.returncode} and no result"}}
    result["setup_s"] = result["t_first"] - start
    return result


def run_pass(workload: str, ops: list[str], variant: int, spec_seed, trace: int,
             expected: str = EXPECTED, work: str = WORK) -> dict:
    """Every operation once, each cold in its own child.

    Times, CPU and layer totals add up over the operations and peak RSS is
    the largest; a pass with a crashed operation has no figures.
    """
    results = [run_op(workload, op, variant, spec_seed, trace, expected, work) for op in ops]
    failures = {op: reason for r in results for op, reason in r["failures"].items()}
    out = {"attempted": len(ops), "failures": failures}
    if all("wall_s" in r for r in results):
        for key in ("wall_s", "setup_s", "cpu_s"):
            out[key] = sum(r[key] for r in results)
        out["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
    if trace and all("totals" in r for r in results):
        totals: Counter = Counter()
        for r in results:
            totals.update(r["totals"])
        out["layers"] = spans.layer_metrics(totals, workloads.FAMILIES)
    return out


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Exit through subprocess.run's cleanup, which kills and reaps the pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(PACKAGE):
        print(f"error: {PACKAGE} not found; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    with open(EXPECTED, encoding="utf-8") as handle:
        pinned = json.load(handle)
    with open(DECLARED, encoding="utf-8") as handle:
        declared = json.load(handle)
    variant = workloads.variant_of(args.seed)
    spec_seed = pinned["spec_seeds"].get(args.workload, [None] * workloads.VARIANTS)[variant]
    ops = sorted(pinned["outputs"][args.workload][str(variant)])
    print(f"{args.workload} seed {args.seed} (variant {variant}, spec seed {spec_seed}); "
          f"{environment()}", file=sys.stderr)

    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        untraced.append(run_pass(args.workload, ops, variant, spec_seed, 0))
        if args.trace:
            traced.append(run_pass(args.workload, ops, variant, spec_seed, 1))
        elapsed = time.monotonic() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break  # another round would overrun --seconds

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    for p in passes:
        for op, reason in p["failures"].items():
            print(f"FAILED {op}: {reason}", file=sys.stderr)
    ok_untraced = [p for p in untraced if "wall_s" in p]
    ok_traced = [p for p in traced if "layers" in p]
    if not ok_untraced or (args.trace and not ok_traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    wall = median_of(ok_untraced, "wall_s")
    if args.trace:
        values = {name: statistics.median(p["layers"][name] for p in ok_traced)
                  for name in ok_traced[0]["layers"]}
        values["process.cpu_s"] = median_of(ok_untraced, "cpu_s")
        values["trace.overhead_frac"] = (median_of(ok_traced, "wall_s") - wall) / wall
    else:
        values = {"wall_s": wall, "setup_s": median_of(ok_untraced, "setup_s"),
                  "peak_rss_mb": median_of(ok_untraced, "peak_rss_mb")}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    for label, group in (("untraced", untraced), ("traced", traced)):
        if group:
            walls = " ".join(f"{p['wall_s']:.3f}" for p in group if "wall_s" in p)
            print(f"{label} passes, wall_s: {walls}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
