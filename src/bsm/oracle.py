"""Ground truth: every stable matching, from the rotation poset.

The stable matchings of an instance are exactly the closed sets of its
rotation poset (Irving & Leather 1986; Gusfield & Irving 1989, *The
Stable Marriage Problem: Structure and Algorithms*).  The engine walks one
maximal chain of exposed rotations from the man-optimal to the
woman-optimal matching, gives each rotation its direct predecessors, and
lists the closed sets depth first, each once.  A rotation shifts the two
side costs by fixed amounts, so every matching comes with its cost sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import gs
from .instance import Index, Instance, Matching

DEFAULT_MAX_MEN = 9


class TooLarge(ValueError):
    """The instance is beyond the size bound of an exhaustive check.

    For ``enumerate_stable`` and the oracle decisions the bound is on the
    men whose partner differs between the man- and woman-optimal matchings.
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


def _stable_matchings(idx: Index, limit: int):
    """Yield ``(partner, men_cost, women_cost)`` for every stable matching.

    ``partner[m]`` is the woman index of man index m, or -1 if he is
    single.  The list is changed in place after each yield: copy it to
    keep it.  The first matching yielded is the man-optimal one.  Raises
    ``TooLarge`` before yielding anything when more than ``limit`` men
    move between the man- and woman-optimal matchings.
    """
    m_rank, w_rank = idx.m_rank, idx.w_rank
    m_order = [list(table) for table in m_rank]  # each man's women, best first
    n_men = len(idx.men)
    partner, holder = gs._deferred_acceptance(m_rank, w_rank, len(idx.women))
    mu_m = partner.copy()
    men_cost = sum(m_rank[m][w] for m, w in enumerate(partner) if w >= 0)
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

    moves: list[list[tuple[int, int, int]]] = []  # per rotation: (man, from, to)
    preds: list[int] = []  # per rotation: bitmask of its direct predecessors
    deltas: list[tuple[int, int]] = []  # per rotation: (men cost, women cost) change
    last_of_man: dict[int, int] = {}
    # Per woman: (rotation, rank of her man before, rank after), in chain order.
    gains: list[list[tuple[int, int, int]]] = [[] for _ in idx.women]
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
        d_men = d_women = 0
        for m, w_from, w_to in rotation:
            d_men += m_rank[m][w_to] - m_rank[m][w_from]
            before, after = w_rank[w_to][holder[w_to]], w_rank[w_to][m]
            d_women += after - before
            gains[w_to].append((j, before, after))
        for m, _, w_to in rotation:
            partner[m] = w_to
            holder[w_to] = m
            pos[m] += 1
            last_of_man[m] = j
        moves.append(rotation)
        preds.append(mask)
        deltas.append((d_men, d_women))
    if len(last_of_man) > limit:
        raise TooLarge(f"{len(last_of_man)} men change partner, beyond the bound {limit}")

    # Closed sets, depth first: add rotation j only after the last one
    # added and only once all its predecessors are in.  Each closed set is
    # reached once, by adding its rotations in chain order.
    partner = mu_m
    yield partner, men_cost, women_cost
    chosen = 0
    added: list[int] = []
    j = 0
    while True:
        while j < len(moves) and preds[j] & ~chosen:
            j += 1
        if j < len(moves):
            for m, _, w_to in moves[j]:
                partner[m] = w_to
            chosen |= 1 << j
            men_cost += deltas[j][0]
            women_cost += deltas[j][1]
            added.append(j)
            yield partner, men_cost, women_cost
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


def _sorted_rows(inst: Instance, limit: int):
    """The stable matchings of ``inst`` as sorted (partners, men's cost, women's cost) rows."""
    rows = _stable_matchings(inst.index, limit)
    return sorted((tuple(partner), men, women) for partner, men, women in rows)


def enumerate_stable(inst: Instance, limit: int = DEFAULT_MAX_MEN) -> StableSet:
    """All stable matchings, in a deterministic order, with the minimum balance.

    Matchings are ordered by the tuple of every man's partner index (-1
    when single).  Raises ``TooLarge`` when more than ``limit`` men move
    between the man- and woman-optimal matchings; only those men's
    partners differ among the stable matchings, so there are at most
    ``limit!`` of them.
    """
    rows = _sorted_rows(inst, limit)
    return StableSet(
        tuple(inst.index.matching_from_arrays(partner) for partner, _, _ in rows),
        min(max(men_cost, women_cost) for _, men_cost, women_cost in rows),
    )


def _decide(inst: Instance, k: int, above: str, limit: int) -> OracleDecision:
    """The witness is the first matching in ``enumerate_stable`` order with the least balance.

    O_M and O_W are the least men's and women's costs over the stable
    matchings, attained by μ_M and μ_W (Gusfield & Irving 1989).
    """
    rows = _sorted_rows(inst, limit)
    o_m = min(row[1] for row in rows)
    o_w = min(row[2] for row in rows)
    guarantee = min(o_m, o_w) if above == "min" else max(o_m, o_w)
    partner, men_cost, women_cost = min(rows, key=lambda row: max(row[1], row[2]))
    bal_opt = max(men_cost, women_cost)
    witness = inst.index.matching_from_arrays(partner) if bal_opt <= k else None
    return OracleDecision(bal_opt <= k, k - guarantee, witness)


def decide_above_min(inst: Instance, k: int, limit: int = DEFAULT_MAX_MEN) -> OracleDecision:
    """Exhaustively decide whether some stable matching has balance at most k.

    The reported parameter is ``k`` minus the smaller of the two optimal
    side costs.
    """
    return _decide(inst, k, "min", limit)


def decide_above_max(inst: Instance, k: int, limit: int = DEFAULT_MAX_MEN) -> OracleDecision:
    """Same question, parameterized above the larger of the two optima."""
    return _decide(inst, k, "max", limit)
