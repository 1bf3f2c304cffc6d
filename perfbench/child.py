"""One operation of a workload, cold, in a fresh interpreter.

Run by ``run.py`` with ``PYTHONPATH=src``, once per operation of a pass,
so every operation starts with the process-wide ``_subset_tally`` cache
empty, as one ``rangecontrol verify`` or ``control`` call does.  Imports
the package, makes the operation's input, runs it in the timed region,
then checks the output against the pinned expectation and prints one
JSON object: the monotonic clock at the timed call (the parent turns it
into ``setup_s``), the timed wall time, peak RSS, CPU time, the failure
if any and, on a traced run, the summable layer totals.  With ``--emit``
it prints the observed output instead of checking it (see ``pin.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--op", required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--spec-seed", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=None)
    parser.add_argument("--work", required=True)
    parser.add_argument("--emit", action="store_true")
    args = parser.parse_args()

    from rangecontrol import cli, harness

    import spans
    import workloads

    os.makedirs(args.work, exist_ok=True)
    path = spec = None
    if args.workload == "control-families":
        path = workloads.write_control_file(args.variant, args.op, args.work)
    else:
        spec = dict(workloads.audit_specs(args.workload, args.spec_seed))[args.op]

    recorder = instrumentation = None
    if args.trace:
        recorder = spans.Recorder()
        recorder.op = args.op
        instrumentation = spans.Instrumentation(recorder)
        instrumentation.install()
        call = recorder.span
    else:
        def call(name, fn, *a, **kw):
            return fn(*a, **kw)

    records = 0
    cpu0 = _cpu_seconds()
    t_first = time.monotonic()
    try:
        if spec is not None:
            report = call("harness.audit", harness.audit_gadget, spec)
            records = len(report.records)
            output = call("harness.render", harness.render_text, report)
        else:
            out, err = io.StringIO(), io.StringIO()
            code = call("cli.run_cli", cli.run_cli,
                        ["control", "--witness", path], stdout=out, stderr=err)
            output = (code, out.getvalue())
    except Exception as exc:  # a raising operation counts as failed
        output = exc
    t_end = time.monotonic()
    cpu = _cpu_seconds() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if instrumentation:
        instrumentation.uninstall()

    if isinstance(output, Exception):
        observed = {"error": f"raised {output!r}"}
    elif spec is not None:
        observed = {"records": records,
                    "sha256": hashlib.sha256(output.encode("utf-8")).hexdigest()}
    else:
        observed = {"exit": output[0], "stdout": output[1]}

    if args.emit:
        print(json.dumps(observed, sort_keys=True))
        return 0

    with open(args.expected, encoding="utf-8") as handle:
        expected = json.load(handle)["outputs"][args.workload][str(args.variant)][args.op]
    paths = {args.op: path} if path else {}
    failures = workloads.check({args.op: observed}, {args.op: expected}, paths)
    result = {
        "t_first": t_first,
        "wall_s": t_end - t_first,
        "cpu_s": cpu,
        "peak_rss_mb": rss_mb,
        "failures": failures,
    }
    if recorder:
        result["totals"] = spans.layer_totals(recorder, records)
        recorder.write(os.path.join(args.work, f"spans-{args.workload}-{args.op}.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
