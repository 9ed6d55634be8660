"""Stability checking and objective functions for matchings of people.

Deferred acceptance lives with the instance, which runs it once per side
for ``Instance.mu_m`` and ``Instance.mu_w``.  Here a matching of people is
checked and turned into partner index arrays once, by ``validate_matching``,
and its blocking pairs and costs are read off those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance, Matching, Person, cost


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


def validate_matching(inst: Instance, mu: Matching) -> tuple[list[int], list[int]]:
    """Check that ``mu`` is a matching of ``inst`` over acceptable pairs.

    Returns it as partner index arrays ``(man_to, woman_to)``, -1 if single.
    """
    man_index, woman_index = inst.man_index, inst.woman_index
    man_to, woman_to = [-1] * len(inst.men), [-1] * len(inst.women)
    for man, woman in mu:  # sorted, so the first fault named is the same in every run
        m, w = man_index.get(man), woman_index.get(woman)
        if m is None or w is None:
            raise InvalidMatching(f"({man}, {woman}) uses people outside the instance")
        if man_to[m] >= 0:
            raise InvalidMatching(f"{man} is matched twice")
        if woman_to[w] >= 0:
            raise InvalidMatching(f"{woman} is matched twice")
        if w not in inst.m_rank[m]:
            raise InvalidMatching(f"({man}, {woman}) is not an acceptable pair")
        man_to[m], woman_to[w] = w, m
    return man_to, woman_to


def _blocking(m_rank, w_rank, man_to, woman_to):
    """Yield each blocking pair of a matching given as partner index arrays, as (man, woman).

    ``m_rank`` and ``w_rank`` are rank tables as ``Instance.m_rank`` and ``w_rank`` are;
    ``man_to`` and ``woman_to`` hold each person's partner, -1 if single.
    Men come in index order, each man's partners in rank order.
    """
    for m, table in enumerate(m_rank):
        partner = man_to[m]
        cutoff = table[partner] if partner >= 0 else None
        for w in table:
            if cutoff is not None and table[w] >= cutoff:
                break  # rank order: everyone from here on is no better
            held = woman_to[w]
            if held < 0 or w_rank[w][m] < w_rank[w][held]:
                yield m, w


def blocking_pairs(inst: Instance, mu: Matching) -> list[tuple[Person, Person]]:
    """All acceptable pairs both of whose members prefer each other to their lot.

    Empty exactly when ``mu`` is stable.  Pairs come out in canonical order:
    men in instance order, each man's partners in rank order.
    """
    man_to, woman_to = validate_matching(inst, mu)
    pairs = _blocking(inst.m_rank, inst.w_rank, man_to, woman_to)
    return [(inst.men[m], inst.women[w]) for m, w in pairs]


def objectives(inst: Instance, mu: Matching) -> Objectives:
    """Exact integer cost sums of ``mu``; stability is not required."""
    man_to, woman_to = validate_matching(inst, mu)
    return Objectives.from_costs(cost(inst.m_rank, man_to), cost(inst.w_rank, woman_to))


def optima(inst: Instance) -> Optima:
    """Both extreme stable matchings with their owning side's cost sums."""
    mu_m, mu_w = (inst.matching_from_arrays(mu.by_man) for mu in (inst.mu_m, inst.mu_w))
    return Optima(mu_m, mu_w, inst.o_m, inst.o_w)
