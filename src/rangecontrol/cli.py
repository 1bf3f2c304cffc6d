"""Command-line surface for the toolkit.

Commands: ``tally``, ``control``, ``gadget``, ``oracle``, ``verify``,
``table``.  Results go to stdout, diagnostics to stderr.  Exit status:
0 on success, 2 on usage or parse errors or an unbudgeted ``control`` search
over ``MAX_UNBUDGETED_SPACE``, 3 when a control solve ran out of node budget.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from typing import Iterator, Sequence, TextIO

from . import control as ctl
from . import fileio
from .elections import SYSTEMS, tally

__all__ = ["run_cli", "main", "RESISTANCE_TABLE", "MAX_UNBUDGETED_SPACE"]

# The largest search space ``control`` starts without ``--budget``: about
# ten minutes at the ~6 us per action of the voter-partition scan.
MAX_UNBUDGETED_SPACE = 10**8

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

_WITNESS_LABEL = {
    ctl.ADD_CANDIDATES: "add",
    ctl.DELETE_CANDIDATES: "delete",
    ctl.ADD_VOTERS: "take",
    ctl.DELETE_VOTERS: "remove",
    ctl.PARTITION_CANDIDATES: "first-group",
    ctl.RUNOFF_PARTITION_CANDIDATES: "first-group",
    ctl.PARTITION_VOTERS: "first-group-counts",
}


def _tally_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", choices=SYSTEMS, required=True)
    p.add_argument("file")


def _control_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", choices=SYSTEMS, default=None,
                   help="override the file's system (defaults to rv)")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--budget", type=int, default=None,
                   help=f"stop after N actions; needed above {MAX_UNBUDGETED_SPACE}")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; has no effect, "
                        "since every solve runs in one thread")
    p.add_argument("file")


def _gadget_arguments(p: argparse.ArgumentParser) -> None:
    from .harness import GADGET_NAMES

    p.add_argument("type", choices=sorted(GADGET_NAMES))
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--instance", type=int, default=0,
                   help="which emitted control instance to embed (default 0)")


def _oracle_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    from .harness import GADGET_NAMES

    p.add_argument("--gadget", choices=GADGET_NAMES, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", metavar="BOUNDS",
                      help="e.g. 'n<=4,m=2..3,k<=2' (s=... bounds the x3c set count)")
    mode.add_argument("--random", type=int, metavar="TRIALS")
    p.add_argument("--bounds", metavar="BOUNDS",
                   help="the bounds --random samples from, as for --exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--all-instances", action="store_true",
                   help="disable isomorphism-free deduplication")
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    p.add_argument("-o", "--output", default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangecontrol",
        description="Exact range-voting control toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, building only the named command's parser.

    That parser is the one ``add_parser`` makes for the command, so it parses
    and fails as the full tree does.  Arguments it leaves over are re-parsed
    with the full tree, whose error names them under the top-level usage.
    """
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"rangecontrol {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def run_cli(argv: Sequence[str], stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    """Run one command; returns the process exit status.

    All output, argparse's help and usage errors included, goes to the given streams.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _parse(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][2](args, out, err)
    except (ValueError, OSError) as exc:  # ParseError, GadgetError, InvalidInstance included
        print(f"error: {exc}", file=err)
        return 2


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _total_text(cand: str, total: Fraction) -> str:
    """``str(total)``, or a ValueError naming ``cand`` if a part is over ``str``'s digit limit."""
    try:
        return str(total)
    except ValueError:
        part = max(abs(total.numerator), total.denominator)
        digits = math.floor((part.bit_length() - 1) * math.log10(2)) + 1  # those of 2^(bits - 1)
        digits += part >= 10**digits
        raise ValueError(f"the exact total of candidate {cand} has a {digits}-digit "
                         f"{'numerator' if part == abs(total.numerator) else 'denominator'}, over "
                         f"the {sys.get_int_max_str_digits()}-digit limit of integer string "
                         "conversion; PYTHONINTMAXSTRDIGITS=0 lifts it") from None


def _cmd_tally(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    parsed = fileio.parse_election(_read(args.file))
    result = tally(parsed.election, args.system)
    out.write("".join(f"{c}: {_total_text(c, result.totals[c])}\n" for c in parsed.election.candidates))
    if result.unique_winner is not None:
        print(f"winner: {result.unique_winner}", file=out)
    else:
        tied = [c for c in parsed.election.candidates if c in result.winners]
        print(f"winners: {' '.join(tied) if tied else '-'}", file=out)
    return 0


def _refuse_huge_search(instance: ctl.ControlInstance) -> None:
    """Refuse a search above ``MAX_UNBUDGETED_SPACE``, trying the cheap lower bound first."""
    floor = ctl.search_space_floor(instance)
    exact = floor is None or floor <= MAX_UNBUDGETED_SPACE
    space = ctl.search_space(instance) if exact else floor
    if space <= MAX_UNBUDGETED_SPACE:
        return
    if space.bit_length() > 256:  # too long to print, and str() stops at 4,300 digits
        size = f"at least 2^{space.bit_length() - 1}"
    else:
        size = str(space) if exact else f"at least {space}"
    raise ValueError(f"search space of {size} actions exceeds {MAX_UNBUDGETED_SPACE} "
                     "without a budget; pass --budget N to search it anyway")


def _cmd_control(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    parsed = fileio.parse_election(_read(args.file))
    if parsed.instance is None:
        raise fileio.ParseError("the file carries no control-instance section")
    instance = parsed.instance
    if args.system is not None and args.system != instance.system:
        instance = replace(instance, system=args.system)
    if args.budget is None:
        _refuse_huge_search(instance)
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


@contextlib.contextmanager
def _warnings_to(err: TextIO) -> Iterator[None]:
    """Print each warning the block raises to ``err`` as ``warning: ...`` once it succeeds."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for w in caught:
        print(f"warning: {w.message}", file=err)


def _cmd_gadget(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    from . import harness

    text = _read(args.file)
    with _warnings_to(err):
        gadget = harness.build_gadget(args.type, harness.read_source(args.type, text))
    if not 0 <= args.instance < len(gadget.instances):
        raise ValueError(f"--instance must be in [0, {len(gadget.instances) - 1}]")
    chosen = gadget.instances[args.instance]
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(fileio.serialize_election(gadget.election, chosen))
    print(f"gadget: {args.type}", file=out)
    print(f"claim: {gadget.claim}", file=out)
    for i, instance in enumerate(gadget.instances):
        marker = "*" if i == args.instance else " "
        print(f"instance[{i}]{marker} {ctl.describe(instance)}", file=out)
    print(f"identities: {len(gadget.identities)}", file=out)
    print(f"wrote: {args.output}", file=out)
    return 0


def _cmd_oracle(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    from .gadgets import X3CInstance
    from .oracles import solve_hitting_set, solve_x3c

    text = _read(args.file)
    with _warnings_to(err):
        problem = fileio.parse_problem(text)
        exact_cover = isinstance(problem, X3CInstance)
        result = solve_x3c(problem) if exact_cover else solve_hitting_set(problem)
    print("YES" if result.decision else "NO", file=out)
    if result.decision:
        if exact_cover:
            print(f"witness: {' | '.join(' '.join(s) for s in result.witness)}", file=out)
        else:
            print(f"witness: {' '.join(result.witness)}", file=out)
    if result.optimum is not None:
        print(f"optimum: {result.optimum}", file=out)
    return 0


def _parse_bounds(text: str) -> dict[str, tuple[int, int]]:
    out: dict[str, tuple[int, int]] = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
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
                raise ValueError
        except ValueError:
            raise ValueError(f"cannot parse bound {token!r}") from None
        var = var.strip()
        if var not in _BOUND_FIELDS:
            raise ValueError(f"unknown bound variable {var!r}")
        if bounds[0] > bounds[1]:
            raise ValueError(f"empty range in bound {token!r}")
        out[var] = bounds
    return out


# bound variable -> AuditSpec field
_BOUND_FIELDS = {"n": "n", "m": "m", "k": "k", "s": "sets"}


def _cmd_verify(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    from . import harness

    if args.exhaustive is not None:
        if args.bounds is not None:
            raise ValueError("--bounds goes with --random; --exhaustive takes its bounds itself")
        kwargs = {"mode": "exhaustive"}
        bounds = _parse_bounds(args.exhaustive)
    else:
        kwargs = {"mode": "random", "trials": args.random}
        bounds = _parse_bounds(args.bounds or "")
    kwargs.update((_BOUND_FIELDS[var], bound) for var, bound in bounds.items())
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


def _cmd_table(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
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


# command -> (help, the function that adds its arguments, its handler); the one
# declaration of each
_COMMANDS = {
    "tally": ("tally an election file", _tally_arguments, _cmd_tally),
    "control": ("decide a control instance file", _control_arguments, _cmd_control),
    "gadget": ("compile an NP instance into a gadget election", _gadget_arguments, _cmd_gadget),
    "oracle": ("solve a hitting-set or exact-cover file", _oracle_arguments, _cmd_oracle),
    "verify": ("audit a gadget against its oracle", _verify_arguments, _cmd_verify),
    "table": ("print reported control classifications", lambda p: None, _cmd_table),
}


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
