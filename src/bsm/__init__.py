"""Toolkit for the balanced stable marriage problem.

The data model, stored as integer rank tables with its two extreme stable
matchings found once by deferred acceptance, and its formats live in
``instance``; the checks of people matchings in ``gs``; every stable
matching, from the rotation poset, in ``oracle``; the parameter-bounded
shrinking pipeline, on an instance and its target k, in ``kernel``; the
subset-and-branch solver in ``fpt``; the clique reduction in ``hardness``.
"""

from .fpt import SolveResult, SolveStats, minimal_balance, solve_above_min
from .gs import InvalidMatching, Objectives, Optima, blocking_pairs, objectives, optima
from .hardness import (
    Graph,
    NotAClique,
    ReductionArtifact,
    ReductionReport,
    clique_bruteforce,
    parse_graph,
    reduce_clique,
    serialize_graph,
    verify_reduction,
    witness_matching,
)
from .instance import (
    MAN,
    WOMAN,
    Instance,
    Matching,
    ParseError,
    Person,
    ValidationError,
    make_instance,
    parse_instance,
    serialize,
)
from .kernel import (
    KernelResult,
    KernelTrace,
    NoSadPerson,
    TraceEntry,
    TraceStep,
    fill_gaps,
    kernelize,
)
from .oracle import OracleDecision, StableSet, TooLarge, decide_above_max, decide_above_min, enumerate_stable

__version__ = "0.1.0"
