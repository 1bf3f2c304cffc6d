"""Workload inputs, the operations of one pass, and their correctness checks.

An operation is one audit spec or one control file.  Audits run the body
of ``rangecontrol verify`` (``harness.audit_gadget`` then
``harness.render_text``) because ``verify --random`` takes no n/m/k/sets
bounds and so cannot express the c05 and c07 random specs.  Control
files go through ``cli.run_cli(["control", "--witness", file])``.

The benchmark seed picks one of ``VARIANTS`` input variants; every
variant's expected outputs are pinned in ``expected.json``.
"""

from __future__ import annotations

import os
import random

VARIANTS = 8
WORKLOADS = ("audit-hs", "audit-x3c", "audit-enum", "control-families")
FAMILIES = (
    "add-candidates",
    "delete-candidates",
    "add-voters",
    "delete-voters",
    "partition-candidates",
    "runoff-partition-candidates",
    "partition-voters",
)
X3C_TRIALS = 8
X3C_FULL_SCANS = 2


def variant_of(seed: int) -> int:
    return seed % VARIANTS


# ---------------------------------------------------------------------------
# audits

def audit_specs(workload: str, spec_seed: int | None):
    """``[(op name, AuditSpec)]`` of an audit workload."""
    from rangecontrol.harness import AuditSpec

    if workload == "audit-hs":
        return [
            ("c05-exhaustive", AuditSpec(
                gadget="hs-candidates", mode="exhaustive", n=(1, 4), m=(2, 3), k=(1, 2))),
            ("c05-random", AuditSpec(
                gadget="hs-candidates", mode="random", n=(2, 5), m=(2, 3), k=(1, 2),
                trials=200, seed=spec_seed)),
        ]
    if workload == "audit-x3c":
        return [
            ("c07-random", AuditSpec(
                gadget="x3c-voter-partition-te", mode="random", k=(2, 2), sets=(2, 3),
                trials=X3C_TRIALS, seed=spec_seed)),
        ]
    if workload == "audit-enum":
        return [
            ("hs-delete-exhaustive", AuditSpec(
                gadget="hs-delete-constructive", mode="exhaustive", n=(6, 6), m=(2, 2),
                k=(1, 2))),
        ]
    raise ValueError(f"{workload} is not an audit workload")


# ---------------------------------------------------------------------------
# control-families inputs
#
# Every election has weak candidates c1.., three strong candidates s1 s2 s3
# and the distinguished candidate w, declared in that order.  Each ballot
# scores s1 = s2 = s3 = K, w in [1, K-1] and every weak candidate below w,
# so within any candidate set the strong candidates tie at the top and w
# beats every weak one, under RV and under NRV alike.  The answers and
# explored counts therefore do not depend on the seed, which only draws the
# scores: w wins only once all strong candidates are gone, which makes
# delete-candidates (limit 3) and partition-candidates and runoff partition
# (ties eliminate) "yes" late in canonical order, and the other four
# families a full-scan "no".

K = 5
N_STRONG = 3
CANDIDATE_GROUPS = 20


def _ballot(rng: random.Random, n_weak: int) -> tuple[int, ...]:
    w = rng.randint(1, K - 1)
    return tuple([rng.randint(0, w - 1) for _ in range(n_weak)] + [K] * N_STRONG + [w])


def _groups(rng: random.Random, count: int, n_weak: int, mult) -> list[tuple[int, tuple]]:
    seen: set[tuple[int, ...]] = set()
    rows = []
    while len(rows) < count:
        scores = _ballot(rng, n_weak)
        if scores not in seen:  # identical vectors would merge into one group
            seen.add(scores)
            rows.append((mult(rng), scores))
    return rows


def _candidates(n_weak: int) -> list[str]:
    return [f"c{i + 1}" for i in range(n_weak)] + [f"s{i + 1}" for i in range(N_STRONG)] + ["w"]


def _rows(rows) -> list[str]:
    return [f"{mult} | {' '.join(map(str, scores))}" for mult, scores in rows]


def _election_file(system, n_weak, rows, section, pool=()) -> str:
    lines = [f"range: {K}", f"system: {system}",
             f"candidates: {' '.join(_candidates(n_weak))}", "ballots:"]
    lines += _rows(rows)
    lines += section
    if pool:
        lines.append("pool:")
        lines += _rows(pool)
    return "\n".join(lines) + "\n"


def control_files(variant: int) -> dict[str, str]:
    """``{op name: election file text}``, one file per family and system."""
    rng = random.Random(f"perfbench-control:{variant}")

    def any_mult(r):
        return r.randint(1, 5)

    def fixed(m):
        return lambda r: m

    out = {}
    for system in ("rv", "nrv"):
        def add(family, n_weak, rows, extra, pool=()):
            section = [f"action: {family}", "goal: constructive", *extra, "distinguished: w"]
            out[f"{family}-{system}"] = _election_file(system, n_weak, rows, section, pool)

        spoilers = _candidates(7)[:7]
        add("add-candidates", 7, _groups(rng, CANDIDATE_GROUPS, 7, any_mult),
            [f"spoilers: {' '.join(spoilers)}", f"limit: {len(spoilers)}"])
        add("delete-candidates", 7, _groups(rng, CANDIDATE_GROUPS, 7, any_mult),
            [f"limit: {N_STRONG}"])
        add("partition-candidates", 6, _groups(rng, CANDIDATE_GROUPS, 6, any_mult),
            ["ties: eliminate"])
        add("runoff-partition-candidates", 6, _groups(rng, CANDIDATE_GROUPS, 6, any_mult),
            ["ties: eliminate"])
        add("add-voters", 6, _groups(rng, 12, 6, any_mult), ["limit: 4"],
            pool=_groups(rng, 24, 6, fixed(3)))
        add("delete-voters", 6, _groups(rng, 26, 6, fixed(3)), ["limit: 4"])
        add("partition-voters", 6, _groups(rng, 9, 6, fixed(2)), ["ties: eliminate"])
    return out


def write_control_file(variant: int, op: str, directory: str) -> str:
    """Write the election file of control operation ``op``; return its path."""
    path = os.path.join(directory, f"{op}-{variant}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(control_files(variant)[op])
    return path


def op_names(workload: str) -> list[str]:
    """The operations of a workload, in the order a pass runs them."""
    if workload == "control-families":
        return list(control_files(0))
    return [op for op, _ in audit_specs(workload, 0)]


_INT_WITNESS = {"take", "remove", "first-group-counts"}


def replay_yes(path: str, stdout: str) -> bool:
    """Re-check a YES answer's printed witness with ``control.replay_witness``."""
    from rangecontrol.control import replay_witness
    from rangecontrol.fileio import parse_election

    lines = stdout.splitlines()
    label, _, values = lines[1].partition(":")
    tokens = values.split()
    witness = tuple(int(t) for t in tokens) if label in _INT_WITNESS else tuple(tokens)
    with open(path, encoding="utf-8") as handle:
        instance = parse_election(handle.read()).instance
    return replay_witness(instance, witness)


# ---------------------------------------------------------------------------
# checks

def check(observed: dict, expected: dict, paths: dict[str, str]) -> dict[str, str]:
    """``{op: reason}`` for every failed operation.

    ``observed`` maps an op to its output or to ``{"error": ...}``.
    Control YES witnesses are replayed; ``paths`` maps control ops to
    their files.
    """
    failures = {}
    for op, want in expected.items():
        got = observed.get(op)
        if got is None:
            failures[op] = "not run"
        elif "error" in got:
            failures[op] = got["error"]
        elif got != want:
            failures[op] = f"output {got!r} differs from the pinned {want!r}"
        elif op in paths and got["stdout"].startswith("YES"):
            try:
                if not replay_yes(paths[op], got["stdout"]):
                    failures[op] = "witness does not replay"
            except Exception as exc:  # a malformed witness is a failed op
                failures[op] = f"witness replay raised {exc!r}"
    return failures
