"""Exact toolkit for range-voting electoral control.

Tally plain and normalized range elections with exact rationals, decide
every supported control problem by exhaustive search, compile NP-problem
instances into control gadget elections, and audit each gadget's claimed
equivalence against independent brute-force oracles.
"""

from .control import (
    ControlInstance,
    ControlOutcome,
    replay_witness,
    solve,
    subelection_survivors,
)
from .elections import (
    NRV,
    RV,
    BallotGroup,
    Election,
    Tally,
    from_approval,
    normalize_ballot,
    project,
    scale_election,
    tally,
)
from .gadgets import GadgetOutput, HittingSetInstance, X3CInstance

__version__ = "0.1.0"

__all__ = [
    "RV",
    "NRV",
    "BallotGroup",
    "Election",
    "Tally",
    "normalize_ballot",
    "tally",
    "project",
    "scale_election",
    "from_approval",
    "ControlInstance",
    "ControlOutcome",
    "solve",
    "subelection_survivors",
    "replay_witness",
    "HittingSetInstance",
    "X3CInstance",
    "GadgetOutput",
    "solve_hitting_set",
    "solve_x3c",
    "AuditSpec",
    "AuditReport",
    "audit_gadget",
    "check_score_identities",
    "__version__",
]

# exports of the audit modules, loaded on first use (PEP 562) so that
# ``rangecontrol control`` and ``tally`` never import them
_HARNESS = ("AuditSpec", "AuditReport", "audit_gadget", "check_score_identities")
_ORACLES = ("solve_hitting_set", "solve_x3c")


def __getattr__(name: str):
    if name not in _HARNESS + _ORACLES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import harness, oracles

    return getattr(harness if name in _HARNESS else oracles, name)
