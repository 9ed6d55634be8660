"""Deferred acceptance, stability checking and objective functions, on an instance's rank tables.

Deferred acceptance runs once per instance and side, for ``Instance.mu_m``
and ``Instance.mu_w``.  Matchings of people are read and written through
the instance's ``man_index`` and ``woman_index``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .instance import Instance, Matching, Person


class InvalidMatching(ValueError):
    """A matching uses unknown people, repeats a person, or pairs non-acceptors."""


@dataclass(frozen=True)
class Objectives:
    """Raw cost sums of a matching.

    ``men_cost`` and ``women_cost`` add each matched person's rank of their
    partner; unmatched people contribute nothing.  ``balance`` is the worse
    of the two sums, ``egalitarian`` their total, ``sex_equal`` the signed
    difference men minus women.
    """

    men_cost: int
    women_cost: int
    balance: int
    egalitarian: int
    sex_equal: int

    @staticmethod
    def from_costs(men_cost: int, women_cost: int) -> "Objectives":
        return Objectives(
            men_cost,
            women_cost,
            max(men_cost, women_cost),
            men_cost + women_cost,
            men_cost - women_cost,
        )


@dataclass(frozen=True)
class Optima:
    """The two extreme stable matchings and each side's best attainable cost."""

    mu_m: Matching
    mu_w: Matching
    o_m: int
    o_w: int


def _deferred_acceptance(order, responder_rank, n_resp, queue=None):
    """Proposer-optimal matching as (each proposer's partner, each responder's partner), -1 for none.

    Iterating ``order[p]`` gives responder indices from best to worst, as
    a table of ``Instance.m_rank`` does; ``responder_rank[r]`` maps
    proposer index to rank value.  ``queue`` overrides the processing
    order; the result is independent of it.
    """
    choices = [iter(c) for c in order]
    holds = [-1] * n_resp
    matched = [-1] * len(order)
    pending = deque(range(len(order)) if queue is None else queue)
    while pending:
        p = pending.popleft()
        for r in choices[p]:
            current = holds[r]
            if current < 0:
                holds[r] = p
                matched[p] = r
                break
            rank = responder_rank[r]
            if rank[p] < rank[current]:
                holds[r] = p
                matched[p] = r
                matched[current] = -1
                pending.append(current)
                break
    return matched, holds


def man_optimal(inst: Instance) -> Matching:
    """The stable matching in which every man does as well as he possibly can."""
    return inst.matching_from_arrays(inst.mu_m.by_man)


def woman_optimal(inst: Instance) -> Matching:
    """The stable matching in which every woman does as well as she possibly can."""
    return inst.matching_from_arrays(inst.mu_w.by_man)


def validate_matching(inst: Instance, mu: Matching) -> None:
    man_index, woman_index = inst.man_index, inst.woman_index
    seen_men: set[Person] = set()
    seen_women: set[Person] = set()
    for man, woman in mu.pairs:
        if man not in man_index or woman not in woman_index:
            raise InvalidMatching(f"({man}, {woman}) uses people outside the instance")
        if man in seen_men:
            raise InvalidMatching(f"{man} is matched twice")
        if woman in seen_women:
            raise InvalidMatching(f"{woman} is matched twice")
        seen_men.add(man)
        seen_women.add(woman)
        if woman_index[woman] not in inst.m_rank[man_index[man]]:
            raise InvalidMatching(f"({man}, {woman}) is not an acceptable pair")


def _blocking(m_rank, w_rank, man_to, woman_to):
    """Yield each blocking pair of a matching given as partner index arrays, as (man, woman).

    ``m_rank`` and ``w_rank`` are rank tables as ``Instance.m_rank`` and ``w_rank`` are;
    ``man_to`` and ``woman_to`` hold each person's partner, -1 if single.
    Men come in index order, each man's partners in rank order.
    """
    for m, table in enumerate(m_rank):
        partner = man_to[m]
        limit = table[partner] if partner >= 0 else None
        for w in table:
            if limit is not None and table[w] >= limit:
                break  # rank order: everyone from here on is no better
            held = woman_to[w]
            if held < 0 or w_rank[w][m] < w_rank[w][held]:
                yield m, w


def blocking_pairs(inst: Instance, mu: Matching) -> list[tuple[Person, Person]]:
    """All acceptable pairs both of whose members prefer each other to their lot.

    Empty exactly when ``mu`` is stable.  Pairs come out in canonical order:
    men in instance order, each man's partners in rank order.
    """
    validate_matching(inst, mu)
    man_to, woman_to = inst.arrays_from_matching(mu)
    pairs = _blocking(inst.m_rank, inst.w_rank, man_to, woman_to)
    return [(inst.men[m], inst.women[w]) for m, w in pairs]


def objectives(inst: Instance, mu: Matching) -> Objectives:
    """Exact integer cost sums of ``mu``; stability is not required."""
    validate_matching(inst, mu)
    men_cost = 0
    women_cost = 0
    for man, woman in mu.pairs:
        m, w = inst.man_index[man], inst.woman_index[woman]
        men_cost += inst.m_rank[m][w]
        women_cost += inst.w_rank[w][m]
    return Objectives.from_costs(men_cost, women_cost)


def optima(inst: Instance) -> Optima:
    """Both extreme stable matchings with their owning side's cost sums."""
    return Optima(man_optimal(inst), woman_optimal(inst), inst.o_m, inst.o_w)
