"""Ground truth: every stable matching, from the rotation poset.

The stable matchings of an instance are exactly the closed sets of its
rotation poset (Irving & Leather 1986; Gusfield & Irving 1989, *The
Stable Marriage Problem: Structure and Algorithms*).  The engine has two
parts.  The chain walk (``_chain``) follows one maximal chain of exposed
rotations from the man-optimal to the woman-optimal matching and gives
each rotation its direct predecessors.  The closed-set walk
(``_closed_sets``) then lists the closed sets depth first, each once.  A
rotation shifts the two side costs by fixed amounts, so every matching
comes with its cost sums.

A rotation moves each of its men to a worse partner and each of its
women to a better one, so the men's cost rises strictly and the women's
cost falls strictly along every added rotation; the chain walk checks
this.  It lets the closed-set walk cut, by branch and bound, every
subtree that cannot beat the best balance found so far.
``enumerate_stable`` lists every matching, so it alone takes a size bound;
the oracle decisions and ``hardness.verify_reduction`` need only the least
balance and one witness, use the bounded walk and take no bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .instance import Instance, Matching

DEFAULT_MAX_MEN = 9


class TooLarge(ValueError):
    """The instance is beyond the size bound of an exhaustive check.

    For ``enumerate_stable``, the one bounded call of the engine, the bound
    is on the men whose partner differs between μ_M and μ_W.
    """


@dataclass(frozen=True)
class StableSet:
    """Every stable matching of an instance plus the best balance among them."""

    matchings: tuple[Matching, ...]
    bal_opt: int


class OracleDecision(NamedTuple):
    answer: bool
    t: int
    witness: Matching | None


class _Chain(NamedTuple):
    """One maximal chain of rotations from μ_M to μ_W, with what the closed-set walk needs.

    ``mu_m`` and ``mu_w`` are the two ends as each man's woman index (-1
    when single); never edit them.  ``costs`` is the (men's, women's) cost
    of μ_M, so ``costs[0]`` is O_M; ``o_w`` is the women's cost of μ_W.
    Per rotation, in chain order: ``moves`` lists (man, from, to),
    ``preds`` is a bitmask of its direct predecessors and ``deltas`` the
    (men's, women's) cost change.  ``suffix[j]`` sums the women's deltas
    of rotations j onward.
    """

    mu_m: list[int]
    mu_w: list[int]
    costs: tuple[int, int]
    o_w: int
    moves: list[list[tuple[int, int, int]]]
    preds: list[int]
    deltas: list[tuple[int, int]]
    suffix: list[int]


def _deltas(rotation, m_rank, w_rank) -> tuple[int, int]:
    """The (men's, women's) cost change of a rotation given as (man, from, to) moves.

    The woman each man moves to loses the man who moves from her, so the
    women's change sums, per move, her rank of him minus his old
    partner's.  Raises ``RuntimeError`` unless the men's cost rises and
    the women's falls, as it does along every rotation.
    """
    d_men = d_women = 0
    for m, w_from, w_to in rotation:
        d_men += m_rank[m][w_to] - m_rank[m][w_from]
        d_women += w_rank[w_to][m] - w_rank[w_from][m]
    if not d_men > 0 > d_women:
        raise RuntimeError(f"a rotation changes the costs by {d_men} (men) and {d_women} (women)")
    return d_men, d_women


def _chain(inst: Instance) -> _Chain:
    """Walk one maximal chain of exposed rotations from μ_M to μ_W.

    No size bound: it visits each rotation once, and there are at most as
    many rotations as acceptable pairs.  Raises ``RuntimeError`` if a
    rotation fails to raise the men's cost and lower the women's.
    """
    m_rank, w_rank = inst.m_rank, inst.w_rank
    m_order = [list(table) for table in m_rank]  # each man's women, best first
    n_men = len(inst.men)
    mu_m = inst.mu_m
    partner, holder = list(mu_m.by_man), list(mu_m.by_woman)
    women_cost = sum(w_rank[w][m] for w, m in enumerate(holder) if m >= 0)

    # Where each man's search for s(m) resumes.  Women only improve along
    # the chain, so a woman passed over once never qualifies again.
    pos = [
        m_order[m].index(w) + 1 if w >= 0 else len(m_order[m])
        for m, w in enumerate(partner)
    ]

    def s(m: int) -> int:
        """The first woman after m's partner who prefers m to her lot, or -1.

        A single woman is single in every stable matching, so a man who
        reaches her never moves again.
        """
        order = m_order[m]
        i = pos[m]
        while i < len(order):
            w = order[i]
            h = holder[w]
            if h < 0 or w_rank[w][m] < w_rank[w][h]:
                break
            i += 1
        pos[m] = i
        return order[i] if i < len(order) else -1

    moves: list[list[tuple[int, int, int]]] = []
    preds: list[int] = []
    deltas: list[tuple[int, int]] = []
    last_of_man: dict[int, int] = {}
    # Per woman: (rotation, rank of her man before, rank after), in chain order.
    gains: list[list[tuple[int, int, int]]] = [[] for _ in inst.women]
    while True:
        # An exposed rotation is a cycle of next(m) = holder[s(m)].
        cycle = None
        walked = [-1] * n_men
        for start in range(n_men):
            m = start
            path = []
            while walked[m] < 0:
                walked[m] = start
                path.append(m)
                w = s(m)
                if w < 0 or holder[w] < 0:
                    break
                m = holder[w]
            else:  # reached a man walked before: a cycle if on this walk
                if walked[m] == start:
                    cycle = path[path.index(m):]
                    break
        if cycle is None:
            break  # at the woman-optimal matching
        j = len(moves)
        rotation = [(m, partner[m], s(m)) for m in cycle]
        mask = 0
        for m, w_from, w_to in rotation:
            if m in last_of_man:  # type 1: an earlier rotation moves m
                mask |= 1 << last_of_man[m]
            order = m_order[m]
            # Type 2: each woman m skips must already hold a man she prefers to m.
            for w in order[order.index(w_from) + 1:pos[m]]:
                r = w_rank[w][m]
                for i, before, after in gains[w]:
                    if after < r < before:
                        mask |= 1 << i
        for m, _, w_to in rotation:  # each woman is some man's w_to once
            gains[w_to].append((j, w_rank[w_to][holder[w_to]], w_rank[w_to][m]))
            partner[m] = w_to
            holder[w_to] = m
            pos[m] += 1
            last_of_man[m] = j
        moves.append(rotation)
        preds.append(mask)
        deltas.append(_deltas(rotation, m_rank, w_rank))
    suffix = [0] * (len(deltas) + 1)
    for j in reversed(range(len(deltas))):
        suffix[j] = suffix[j + 1] + deltas[j][1]
    return _Chain(
        mu_m.by_man, partner, (inst.o_m, women_cost), women_cost + suffix[0],
        moves, preds, deltas, suffix,
    )


def _closed_sets(chain: _Chain, below: int | None = None, tighten: bool = False):
    """Yield ``(partner, men_cost, women_cost)`` for the stable matchings, μ_M first.

    Depth first: add rotation j only after the last one added and only
    once all its predecessors are in.  Each closed set is reached once, by
    adding its rotations in chain order.  ``partner`` is edited in place
    after each yield: copy it to keep it.

    With ``below``, skip every subtree whose matchings all have balance at
    least ``below``.  Below a set whose last rotation is j, the men's cost
    only rises and the women's cost falls by at most ``suffix[j + 1]``, so
    max(men's cost, women's cost + ``suffix[j + 1]``) bounds every balance
    there.  With ``tighten``, ``below`` falls to each balance yielded: the
    walk keeps only what can beat the best found so far.
    """
    moves, preds, deltas, suffix = chain.moves, chain.preds, chain.deltas, chain.suffix
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
                j += 1  # cut the subtree of the set with rotation j added
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


def _least_balance(chain: _Chain) -> int:
    """The least balance over the stable matchings, by the bounded walk."""
    start = max(chain.costs)  # the balance of μ_M, the first row
    return min(max(men, women) for _, men, women in _closed_sets(chain, start, tighten=True))


def enumerate_stable(inst: Instance, limit: int = DEFAULT_MAX_MEN) -> StableSet:
    """All stable matchings, in a deterministic order, with the minimum balance.

    Matchings are ordered by the tuple of every man's partner index (-1
    when single).  Raises ``TooLarge`` when more than ``limit`` men move
    between the man- and woman-optimal matchings; only those men's
    partners differ among the stable matchings, so there are at most
    ``limit!`` of them.  The decisions, which return one witness, take no bound.
    """
    chain = _chain(inst)
    n = sum(a != b for a, b in zip(chain.mu_m, chain.mu_w))
    if n > limit:
        raise TooLarge(f"{n} men change partner, beyond the bound {limit}")
    rows = sorted((tuple(partner), men, women) for partner, men, women in _closed_sets(chain))
    return StableSet(
        tuple(inst.matching_from_arrays(partner) for partner, _, _ in rows),
        min(max(men_cost, women_cost) for _, men_cost, women_cost in rows),
    )


def _decide(inst: Instance, k: int, above: str) -> OracleDecision:
    """The witness is the first matching in ``enumerate_stable`` order with the least balance.

    O_M is the men's cost of μ_M and O_W the women's cost of μ_W, the two
    ends of the chain (Gusfield & Irving 1989).  One bounded walk finds
    the least balance; when it is at most k, a second walk, cutting only
    what cannot reach it, collects the tied matchings.
    """
    chain = _chain(inst)
    o_m, o_w = chain.costs[0], chain.o_w
    t = k - (min(o_m, o_w) if above == "min" else max(o_m, o_w))
    bal_opt = _least_balance(chain)
    if bal_opt > k:
        return OracleDecision(False, t, None)
    tied = (tuple(p) for p, men, women in _closed_sets(chain, bal_opt + 1) if max(men, women) == bal_opt)
    return OracleDecision(True, t, inst.matching_from_arrays(min(tied)))


def decide_above_min(inst: Instance, k: int) -> OracleDecision:
    """Decide exactly whether some stable matching has balance at most k.

    The reported parameter is ``k`` minus the smaller of the two optimal
    side costs.
    """
    return _decide(inst, k, "min")


def decide_above_max(inst: Instance, k: int) -> OracleDecision:
    """Same question, parameterized above the larger of the two optima."""
    return _decide(inst, k, "max")
