"""Shared builders and independent brute-force oracles for the test suite."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from bsm.fpt import _Context
from bsm.gs import optima
from bsm.instance import MAN, WOMAN, Instance, Matching, Person, make_instance, parse_instance

SAD_2X2_TEXT = """\
men: m1 m2
women: w1 w2
k: 4
m1: w1 w2
m2: w2 w1
w1: m2 m1
w2: m1 m2
"""


def sad_2x2(k: int | None = 4) -> Instance:
    inst = parse_instance(SAD_2X2_TEXT)
    return inst if k == 4 else replace(inst, target_k=k)


def single_pair() -> Instance:
    m, w = Person(MAN, "m1"), Person(WOMAN, "w1")
    return make_instance((m,), (w,), {m: {w: 1}, w: {m: 1}})


def empty_instance(k: int | None = 0) -> Instance:
    return make_instance((), (), {}, k)


def functional_instance(men_prefs: dict, women_prefs: dict, k: int | None = None) -> Instance:
    """Build from {'m1': {'w1': 2, ...}, ...} name dictionaries."""
    men = tuple(Person(MAN, name) for name in men_prefs)
    women = tuple(Person(WOMAN, name) for name in women_prefs)
    by_name = {p.name: p for p in men + women}
    ranks = {
        by_name[name]: {by_name[pn]: r for pn, r in table.items()}
        for side in (men_prefs, women_prefs)
        for name, table in side.items()
    }
    return make_instance(men, women, ranks, k)


def sad_rich_instance(rng, max_side: int = 6, tries: int = 400) -> Instance:
    """A random instance whose two extreme stable matchings differ.

    Balanced sides with full lists carry by far the best odds of multiple
    stable matchings, so only those are drawn.
    """
    from bsm.generate import random_instance

    for _ in range(tries):
        n = rng.randint(3, max_side)
        inst = random_instance(rng, n, n, density=1.0)
        opt = optima(inst)
        if opt.mu_m != opt.mu_w:
            return inst
    raise RuntimeError("no instance with sad people found")


def naive_stable(inst: Instance) -> set[Matching]:
    """Every stable matching, by filtering all injective partial assignments.

    Deliberately unoptimized and independent of the oracle module.
    """
    ranks = inst.prefs.ranks
    men = list(inst.men)
    results: set[Matching] = set()

    def blocked(assign: dict) -> bool:
        inverse = {w: m for m, w in assign.items() if w is not None}
        for m in men:
            for w, r in ranks[m].items():
                if assign.get(m) == w:
                    continue
                m_wants = assign.get(m) is None or r < ranks[m][assign[m]]
                held = inverse.get(w)
                w_wants = held is None or ranks[w][m] < ranks[w][held]
                if m_wants and w_wants:
                    return True
        return False

    def options(m):
        return [None] + list(ranks[m])

    for combo in product(*(options(m) for m in men)):
        taken = [w for w in combo if w is not None]
        if len(set(taken)) != len(taken):
            continue
        assign = dict(zip(men, combo))
        if not blocked(assign):
            results.add(Matching.of((m, w) for m, w in assign.items() if w is not None))
    return results


def naive_certificates(inst: Instance, m_prime, r: int) -> set[tuple]:
    """All assignments of the given men to strictly worse women with total
    rank increase at most r, as frozensets of pairs."""
    ranks = inst.prefs.ranks
    opt = optima(inst)
    per_man = []
    for m in m_prime:
        anchor = ranks[m][opt.mu_m.by_man[m]]
        per_man.append([(w, rank - anchor) for w, rank in ranks[m].items() if rank > anchor])
    out = set()
    for combo in product(*per_man):
        if sum(offset for _, offset in combo) <= r:
            out.add(frozenset((m, w) for m, (w, _) in zip(m_prime, combo)))
    return out


def iter_certificates(ctx: _Context, m_prime, r: int, counter: list[int]):
    """Yield every assignment of the selected men to strictly worse women
    with total offset at most r: the unpruned search that ``SolveStats``
    describes, with no woman ever ruled out.

    ``m_prime`` is a tuple of man indices; each assignment comes out as
    (the woman index of each selected man, the total offset).
    ``counter[0]`` counts the search nodes as they are visited.
    """
    depth = len(m_prime)
    chosen = [0] * depth

    def descend(i: int, remaining: int):
        counter[0] += 1
        if i == depth:
            yield tuple(chosen), r - remaining
            return
        for offset, w in ctx.worse[m_prime[i]]:
            if offset > remaining:
                break
            chosen[i] = w
            yield from descend(i + 1, remaining - offset)

    if r >= 0:
        yield from descend(0, r)


@dataclass(frozen=True)
class BranchCertificate:
    """One candidate reassignment: each selected man paired to a worse woman.

    ``cost`` is the total rank increase over the man-optimal matching.
    """

    pairs: tuple[tuple[Person, Person], ...]
    cost: int


def enumerate_certificates(inst: Instance, m_prime, r: int) -> list[BranchCertificate]:
    """All ways to move every listed man to a strictly worse woman within budget r.

    Candidates per man are his r most-preferred strictly-worse women; the
    recursion abandons a branch as soon as the budget would go negative.
    Certificates that give two men the same woman are included: this is
    the unpruned search that the solver's counters describe, in people.
    """
    selected = []
    for m in m_prime:
        i = inst.man_index.get(m)
        if i is None or inst.mu_m.by_man[i] < 0:
            raise ValueError(f"{m} is unmatched in the man-optimal matching")
        selected.append(i)
    return [
        BranchCertificate(tuple((inst.men[m], inst.women[w]) for m, w in zip(selected, women)), cost)
        for women, cost in iter_certificates(_Context(inst, inst.target_k or 0), tuple(selected), r, [0])
    ]


def suffix_bound_walk(chain, below: int | None = None, tighten: bool = False):
    """The closed-set walk of ``oracle._closed_sets`` under the looser suffix bound.

    Adding rotation j is cut when max(men's cost after it, women's cost
    after it plus every later rotation's women's delta) is at least
    ``below``: the later rotations may all be added for the women's drop,
    whatever they add to the men's cost.  Yields the same ``(partner,
    men_cost, women_cost)`` rows, with ``partner`` edited in place.
    """
    moves, preds, deltas = chain.moves, chain.preds, chain.deltas
    suffix = [0] * (len(deltas) + 1)
    for j in reversed(range(len(deltas))):
        suffix[j] = suffix[j + 1] + deltas[j][1]
    partner = list(chain.mu_m)
    men_cost, women_cost = chain.costs
    yield partner, men_cost, women_cost
    chosen = 0
    added: list[int] = []
    j = 0
    while True:
        while j < len(moves) and preds[j] & ~chosen:
            j += 1
        if j < len(moves):
            d_men, d_women = deltas[j]
            if below is not None and max(men_cost + d_men, women_cost + d_women + suffix[j + 1]) >= below:
                j += 1
                continue
            for m, _, w_to in moves[j]:
                partner[m] = w_to
            chosen |= 1 << j
            men_cost += d_men
            women_cost += d_women
            added.append(j)
            yield partner, men_cost, women_cost
            if tighten:
                below = min(below, max(men_cost, women_cost))
            j += 1
        elif added:
            j = added.pop()
            for m, w_from, _ in moves[j]:
                partner[m] = w_from
            chosen ^= 1 << j
            men_cost -= deltas[j][0]
            women_cost -= deltas[j][1]
            j += 1
        else:
            return
