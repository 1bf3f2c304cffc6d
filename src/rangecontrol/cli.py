"""Command-line surface for the toolkit.

Commands: ``tally``, ``control``, ``gadget``, ``oracle``, ``verify``,
``table``.  Results go to stdout, diagnostics to stderr.  Exit status:
0 on success, 2 on usage or parse errors, 3 when a control solve ran
out of node budget.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from typing import Sequence, TextIO

from . import control as ctl
from . import fileio, harness
from .elections import SYSTEMS, tally
from .gadgets import (
    GadgetError,
    gadget_deletion_to_candidate_partition,
    gadget_hs_candidates,
    gadget_hs_delete_constructive,
    gadget_hs_destructive_candidate_partition,
    gadget_rhs_voter_partition_tp,
    gadget_x3c_voter_partition_te,
)
from .oracles import solve_hitting_set, solve_x3c

__all__ = ["run_cli", "main", "RESISTANCE_TABLE"]

# Reported control classifications for comparison systems (V vulnerable,
# I immune, R resistant; one C/D pair per system).  Static metadata from
# the published literature on these systems; nothing here is computed by
# this toolkit, and the solver modules decide concrete instances only.
RESISTANCE_TABLE = (
    # (control case, tie model, approval, SP-AV, fallback, RV, NRV)
    ("Adding candidates", "", "IV", "RR", "RR", "IV", "RR"),
    ("Deleting candidates", "", "VI", "RR", "RR", "VI", "RR"),
    ("Partition of candidates", "TE", "VI", "RR", "RR", "VI", "RR"),
    ("Partition of candidates", "TP", "II", "RR", "RR", "II", "RR"),
    ("Run-off partition of candidates", "TE", "VI", "RR", "RR", "VI", "RR"),
    ("Run-off partition of candidates", "TP", "II", "RR", "RR", "II", "RR"),
    ("Adding voters", "", "RV", "RV", "RV", "RV", "RV"),
    ("Deleting voters", "", "RV", "RV", "RV", "RV", "RV"),
    ("Partition of voters", "TE", "RV", "RV", "RR", "RV", "RR"),
    ("Partition of voters", "TP", "RV", "RR", "RR", "RV", "RR"),
)

_GADGET_BUILDERS = {
    "hs-candidates": (gadget_hs_candidates, "hs"),
    "hs-delete-constructive": (gadget_hs_delete_constructive, "hs"),
    "rhs-voter-partition-tp": (gadget_rhs_voter_partition_tp, "hs"),
    "x3c-voter-partition-te": (gadget_x3c_voter_partition_te, "x3c"),
    "hs-destructive-candidate-partition": (gadget_hs_destructive_candidate_partition, "hs"),
    "deletion-to-candidate-partition": (None, "election"),
}

_WITNESS_LABEL = {
    ctl.ADD_CANDIDATES: "add",
    ctl.DELETE_CANDIDATES: "delete",
    ctl.ADD_VOTERS: "take",
    ctl.DELETE_VOTERS: "remove",
    ctl.PARTITION_CANDIDATES: "first-group",
    ctl.RUNOFF_PARTITION_CANDIDATES: "first-group",
    ctl.PARTITION_VOTERS: "first-group-counts",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangecontrol",
        description="Exact range-voting control toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tally = sub.add_parser("tally", help="tally an election file")
    p_tally.add_argument("--system", choices=SYSTEMS, required=True)
    p_tally.add_argument("file")

    p_control = sub.add_parser("control", help="decide a control instance file")
    p_control.add_argument("--system", choices=SYSTEMS, default=None,
                           help="override the file's system (defaults to rv)")
    p_control.add_argument("--witness", action="store_true")
    p_control.add_argument("--budget", type=int, default=None)
    p_control.add_argument("--workers", type=int, default=1,
                           help="accepted for compatibility; has no effect, "
                                "since every solve runs in one thread")
    p_control.add_argument("file")

    p_gadget = sub.add_parser("gadget", help="compile an NP instance into a gadget election")
    p_gadget.add_argument("type", choices=sorted(_GADGET_BUILDERS))
    p_gadget.add_argument("file")
    p_gadget.add_argument("-o", "--output", required=True)
    p_gadget.add_argument("--instance", type=int, default=0,
                          help="which emitted control instance to embed (default 0)")

    p_oracle = sub.add_parser("oracle", help="solve a hitting-set or exact-cover file")
    p_oracle.add_argument("file")

    p_verify = sub.add_parser("verify", help="audit a gadget against its oracle")
    p_verify.add_argument("--gadget", choices=harness.GADGET_NAMES, required=True)
    mode = p_verify.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", metavar="BOUNDS",
                      help="e.g. 'n<=4,m=2..3,k<=2' (s=... bounds the x3c set count)")
    mode.add_argument("--random", type=int, metavar="TRIALS")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--budget", type=int, default=None)
    p_verify.add_argument("--all-instances", action="store_true",
                          help="disable isomorphism-free deduplication")
    p_verify.add_argument("--format", choices=("text", "jsonl"), default="text")
    p_verify.add_argument("-o", "--output", default=None)

    sub.add_parser("table", help="print reported control classifications")
    return parser


def run_cli(argv: Sequence[str], stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    """Run one command; returns the process exit status."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args, out, err)
    except (fileio.ParseError, GadgetError, ctl.InvalidInstance, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=err)
        return 2


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _dispatch(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    if args.command == "tally":
        return _cmd_tally(args, out)
    if args.command == "control":
        return _cmd_control(args, out)
    if args.command == "gadget":
        return _cmd_gadget(args, out, err)
    if args.command == "oracle":
        return _cmd_oracle(args, out, err)
    if args.command == "verify":
        return _cmd_verify(args, out)
    if args.command == "table":
        return _cmd_table(out)
    raise ValueError(f"unknown command {args.command!r}")


def _cmd_tally(args: argparse.Namespace, out: TextIO) -> int:
    parsed = fileio.parse_election(_read(args.file))
    result = tally(parsed.election, args.system)
    for cand in parsed.election.candidates:
        print(f"{cand}: {result.totals[cand]}", file=out)
    if result.unique_winner is not None:
        print(f"winner: {result.unique_winner}", file=out)
    else:
        tied = [c for c in parsed.election.candidates if c in result.winners]
        print(f"winners: {' '.join(tied) if tied else '-'}", file=out)
    return 0


def _cmd_control(args: argparse.Namespace, out: TextIO) -> int:
    parsed = fileio.parse_election(_read(args.file))
    if parsed.instance is None:
        raise fileio.ParseError("the file carries no control-instance section")
    instance = parsed.instance
    if args.system is not None and args.system != instance.system:
        instance = replace(instance, system=args.system)
    outcome = ctl.solve(instance, budget=args.budget, workers=args.workers)
    if outcome.decision is None:
        print("BUDGET-EXCEEDED", file=out)
        print(f"explored: {outcome.explored}", file=out)
        return 3
    print("YES" if outcome.decision else "NO", file=out)
    if args.witness and outcome.decision:
        label = _WITNESS_LABEL[instance.family]
        joined = " ".join(str(x) for x in outcome.witness)
        print(f"{label}: {joined}" if joined else f"{label}:", file=out)
    print(f"explored: {outcome.explored}", file=out)
    return 0


def _cmd_gadget(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    builder, kind = _GADGET_BUILDERS[args.type]
    text = _read(args.file)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if kind == "hs":
            gadget = builder(fileio.parse_hs_instance(text))
        elif kind == "x3c":
            gadget = builder(fileio.parse_x3c_instance(text))
        else:
            parsed = fileio.parse_election(text)
            instance = parsed.instance
            if (
                instance is None
                or instance.family != ctl.DELETE_CANDIDATES
                or instance.goal != ctl.CONSTRUCTIVE
            ):
                raise fileio.ParseError(
                    "this gadget needs a constructive delete-candidates instance section"
                )
            gadget = gadget_deletion_to_candidate_partition(
                parsed.election, instance.distinguished, instance.limit
            )
    for w in caught:
        print(f"warning: {w.message}", file=err)
    if not 0 <= args.instance < len(gadget.instances):
        raise ValueError(
            f"--instance must be in [0, {len(gadget.instances) - 1}]"
        )
    chosen = gadget.instances[args.instance]
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(fileio.serialize_election(gadget.election, chosen))
    print(f"gadget: {gadget.name}", file=out)
    print(f"claim: {gadget.claim}", file=out)
    for i, instance in enumerate(gadget.instances):
        marker = "*" if i == args.instance else " "
        print(f"instance[{i}]{marker} {ctl.describe(instance)}", file=out)
    print(f"identities: {len(gadget.identities)}", file=out)
    print(f"wrote: {args.output}", file=out)
    return 0


def _cmd_oracle(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    text = _read(args.file)
    has_k = any(
        line.split("#")[0].strip().startswith("k:") for line in text.splitlines()
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if has_k:
            result = solve_hitting_set(fileio.parse_hs_instance(text))
        else:
            result = solve_x3c(fileio.parse_x3c_instance(text))
    for w in caught:
        print(f"warning: {w.message}", file=err)
    print("YES" if result.decision else "NO", file=out)
    if result.decision:
        if has_k:
            print(f"witness: {' '.join(result.witness)}", file=out)
        else:
            print(f"witness: {' | '.join(' '.join(s) for s in result.witness)}", file=out)
    if result.optimum is not None:
        print(f"optimum: {result.optimum}", file=out)
    return 0


def _parse_bounds(text: str) -> dict[str, tuple[int, int]]:
    out: dict[str, tuple[int, int]] = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "<=" in token:
            var, _, hi = token.partition("<=")
            bounds = (1, int(hi))
        elif "=" in token:
            var, _, value = token.partition("=")
            if ".." in value:
                lo, _, hi = value.partition("..")
                bounds = (int(lo), int(hi))
            else:
                bounds = (int(value), int(value))
        else:
            raise ValueError(f"cannot parse bound {token!r}")
        var = var.strip()
        if var not in ("n", "m", "k", "s"):
            raise ValueError(f"unknown bound variable {var!r}")
        if bounds[0] > bounds[1]:
            raise ValueError(f"empty range in bound {token!r}")
        out[var] = bounds
    return out


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    kwargs = {}
    if args.exhaustive is not None:
        bounds = _parse_bounds(args.exhaustive)
        kwargs["mode"] = "exhaustive"
        if "n" in bounds:
            kwargs["n"] = bounds["n"]
        if "m" in bounds:
            kwargs["m"] = bounds["m"]
        if "k" in bounds:
            kwargs["k"] = bounds["k"]
        if "s" in bounds:
            kwargs["sets"] = bounds["s"]
    else:
        kwargs["mode"] = "random"
        kwargs["trials"] = args.random
    spec = harness.AuditSpec(
        gadget=args.gadget,
        seed=args.seed,
        budget=args.budget,
        isomorphism_free=not args.all_instances,
        **kwargs,
    )
    report = harness.audit_gadget(spec)
    rendered = (
        harness.render_text(report) if args.format == "text" else harness.render_jsonl(report)
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"instances: {len(report.records)}", file=out)
        print(f"agreement: {str(report.agreement).lower()}", file=out)
        print(f"wrote: {args.output}", file=out)
    else:
        out.write(rendered)
    return 0


def _cmd_table(out: TextIO) -> int:
    header = f"{'Control by':<34}{'Tie':<5}{'Approval':<10}{'SP-AV':<10}{'Fallback':<10}{'RV':<10}{'NRV':<10}"
    print(header, file=out)
    print(f"{'':<39}" + "C  D     " * 5, file=out)
    for case, ties, *columns in RESISTANCE_TABLE:
        cells = "".join(f"{col[0]}  {col[1]}     " for col in columns)
        print(f"{case:<34}{ties:<5}{cells}", file=out)
    print(
        "\nnote: V/I/R classifications above are reported results from the"
        "\nliterature on these systems, carried as static metadata; this"
        "\ntoolkit decides concrete instances exactly but proves none of the"
        "\nclassifications.",
        file=out,
    )
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
