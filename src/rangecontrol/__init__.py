"""Exact toolkit for range-voting electoral control.

Tally plain and normalized range elections with exact rationals, decide
every supported control problem by exhaustive search, compile NP-problem
instances into control gadget elections, and audit each gadget's claimed
equivalence against independent brute-force oracles.
"""

import importlib

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
    project,
    scale_election,
    tally,
)

__version__ = "0.1.0"

__all__ = [
    "RV",
    "NRV",
    "BallotGroup",
    "Election",
    "Tally",
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

# exports of the gadget and audit modules, loaded on first use (PEP 562) so
# that ``rangecontrol control`` and ``tally`` never import them
_LAZY = {
    "gadgets": ("GadgetOutput", "HittingSetInstance", "X3CInstance"),
    "harness": ("AuditSpec", "AuditReport", "audit_gadget", "check_score_identities"),
    "oracles": ("solve_hitting_set", "solve_x3c"),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
