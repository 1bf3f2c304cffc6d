"""Regenerate ``expected.json``: the spec seeds and pinned outputs of every variant.

Usage, from the root of a source checkout:

    python3 perfbench/pin.py

Run it only at a commit whose outputs are known to be right: every later
benchmark run counts an output that differs from the pinned one as a
failed operation.  Audit outputs are pinned as the record count and the
SHA-256 of ``render_text``; control outputs as exit code and stdout.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, "src")

import run  # noqa: E402
import workloads  # noqa: E402

# c05's random sweep uses seed 7; the variants continue from it.
HS_SEED_BASE = 7


def x3c_full_scans(spec_seed: int) -> int:
    """Trials of the audit-x3c spec whose oracle answer is "no".

    Each such trial costs a full scan of the partition-voters gadget
    (107,520 actions), about 30 times a "yes" trial, so the pinned spec
    seeds all have the same count.  ``budget=1`` keeps the screen cheap:
    the oracle still runs in full.
    """
    from rangecontrol.harness import audit_gadget

    (_, spec), = workloads.audit_specs("audit-x3c", spec_seed)
    report = audit_gadget(replace(spec, budget=1))
    return sum(r.oracle == "no" for r in report.records)


def x3c_spec_seeds() -> list[int]:
    """The first spec seeds, from 0 up, with ``X3C_FULL_SCANS`` "no" trials."""
    found = []
    for seed in itertools.count():
        if x3c_full_scans(seed) == workloads.X3C_FULL_SCANS:
            found.append(seed)
            if len(found) == workloads.VARIANTS:
                return found


def emit(workload: str, variant: int, spec_seed) -> dict:
    observed = {}
    for op in workloads.op_names(workload):
        proc = subprocess.run(
            run.child_command(workload, op, variant, spec_seed, 0, emit=True),
            capture_output=True, text=True, env=run.child_env(), check=True,
        )
        observed[op] = json.loads(proc.stdout.strip().splitlines()[-1])
    return observed


def main() -> int:
    spec_seeds = {
        "audit-hs": [HS_SEED_BASE + v for v in range(workloads.VARIANTS)],
        "audit-x3c": x3c_spec_seeds(),
    }
    outputs = {}
    for workload in workloads.WORKLOADS:
        seeds = spec_seeds.get(workload, [None] * workloads.VARIANTS)
        outputs[workload] = {}
        for variant in range(workloads.VARIANTS):
            observed = emit(workload, variant, seeds[variant])
            for op, value in observed.items():
                if "error" in value:
                    raise SystemExit(f"{workload} variant {variant} {op}: {value['error']}")
            outputs[workload][str(variant)] = observed
            print(workload, variant, {op: v.get("records", v.get("stdout", "").split("\n")[0])
                                      for op, v in observed.items()}, file=sys.stderr)
    with open(run.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump({"spec_seeds": spec_seeds, "outputs": outputs}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
