"""Ground truth: every stable matching, from the rotation poset.

The stable matchings of an instance are exactly the closed sets of its
rotation poset (Irving & Leather 1986; Gusfield & Irving 1989, *The
Stable Marriage Problem: Structure and Algorithms*).  The engine has two
parts.  The chain walk (``_chain``) follows one maximal chain of exposed
rotations from the man-optimal to the woman-optimal matching and gives
each rotation its direct predecessors.  One closed-set walk (``_walk``)
then lists closed sets depth first, each at most once, with the two side
costs, which each rotation shifts by fixed amounts; ``_partners`` reads a
set's matching when one is wanted.  Its four users differ only in the
bound they give it: none for ``enumerate_stable`` and for each
component's front in ``_split_least_balance``, the best balance found so
far for ``_walk_least_balance``, and the least balance plus one for the
tie walk of ``_decide``.

The chain walk follows next(m) = holder[s(m)] from the men not yet at
their μ_W partner and stops when none is left, so its work follows the
men who move.  It never leaves them (Gusfield & Irving 1989, §2.5): for
such a man m, w' = μ_W(m) prefers m to μ(w'), so s(m) exists at or
before w'; were next(m) at his μ_W partner, (m, s(m)) would block μ_W.

A rotation moves each of its men to a worse partner and each of its
women to a better one, so the men's cost rises strictly and the women's
cost falls strictly along every added rotation; the chain walk checks
this.  It lets the closed-set walk cut, by branch and bound, every
subtree that cannot hold a set of balance under the bound ``below``.
Below a set, the walk may add only rotations later in its order, and a
set there has balance under ``below`` only if the men's rises it adds
fit in the men's slack ``below - 1 - men`` while its women's drops reach
``women - below + 1``.  The bound is the linear-programming relaxation
of that knapsack (Dantzig 1957): ignore precedence, allow fractions of a
rotation, and fill the slack greedily by women's drop per unit of men's
rise, which is the relaxation's optimum.  Every set in the subtree is a
feasible 0/1 point of the relaxation, so when even its optimum falls
short of the drop needed, no set there beats ``below``.

The walk adds rotations in the linear extension ``_by_ratio`` gives
(any linear extension lists each closed set once): among the rotations
whose predecessors are all in, the best women's drop per men's rise
first.  As in knapsack branch and bound (Horowitz & Sahni 1974), the
first dive then follows the bound's greedy order as far as precedence
allows, so under a falling bound a good balance is found early and cuts
more of the rest.  The walk reads the bound's two ends before
``_may_beat``, and after a failed test it skips every later rotation
that rises no less, since in the same state each is either not ready or
fails too (``_walk`` gives the proof).

When the rotation poset falls apart, the least balance is read off its
weakly connected components instead (``_split_least_balance``).
Rotations in different components have no order between them, so a
closed set of the poset is exactly a union of one closed set per
component, and both side costs add up over the components.  Each
component's closed sets give a Pareto front of (men's rise, women's
change), the fronts are merged by min-plus, keeping only the sums that
no other beats on both sides (``_merge_fronts``), and the least balance
is the least max(O_M + rise, women's cost of μ_M + change) on the merged
front.  The split lists every closed set of each component, so it is
taken only when at least two components hold more than one rotation and
none holds more than ``_SPLIT_LIMIT``: on reduction chains the bounded
walk won from a largest component of 12 rotations up, while planted
cores gave components of at most 5.

``enumerate_stable`` lists every matching, so it alone takes a size bound.
When no man changes partner between μ_M and μ_W, the two are one
matching and it is the only stable one: μ_M is man-optimal and μ_W
man-pessimal, so every stable matching gives each man a partner no
better than μ_M's and no worse than μ_W's (Gusfield & Irving 1989).
``enumerate_stable`` answers that case from μ_M, with balance
max(O_M, O_W), and walks no chain; it is 929 of the 1,000 instances of
the benchmark's seeded corpus.  The decisions walk the chain, empty
then, on every instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from math import inf
from typing import NamedTuple

from .instance import Instance, Matching, cost

DEFAULT_MAX_MEN = 9
# The most rotations in a component of the rotation poset that ``_least_balance``
# splits: on the reduction's chains the split was faster up to 11, and slower
# from 12 up in all but a few.
_SPLIT_LIMIT = 11


class TooLarge(ValueError):
    """The input is beyond the size bound of an exhaustive check.

    For ``enumerate_stable``, the one bounded call of the engine, the bound
    is on the men whose partner differs between μ_M and μ_W.  For
    ``hardness.clique_bruteforce`` it is on the graph's vertices
    (``CLIQUE_VERTEX_LIMIT``, 25).
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

    ``mu_m`` is μ_M as each man's woman index (-1 when single); never edit
    it.  ``costs`` is the (men's, women's) cost of μ_M, so ``costs[0]`` is
    O_M; ``o_w`` is the women's cost of μ_W, the chain's other end.
    Per rotation, in chain order: ``moves`` lists (man, from, to),
    ``preds`` is a bitmask of its direct predecessors and ``deltas`` the
    (men's, women's) cost change.
    """

    mu_m: list[int]
    costs: tuple[int, int]
    o_w: int
    moves: list[list[tuple[int, int, int]]]
    preds: list[int]
    deltas: list[tuple[int, int]]


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

    The walk follows next(m) = holder[s(m)] from the men not yet at their
    μ_W partner (``inst.sad_men`` at first) and stops when none is left.
    Its path outlives each rotation, which changes next() of no man left
    on it but the last.  It never leaves those men: w' = μ_W(m) prefers m
    to μ(w'), so s(m) exists at or before w'; were next(m) at his μ_W
    partner, (m, s(m)) would block μ_W.  Raises ``RuntimeError`` if the
    walk leaves them, at a single woman or none, or a rotation fails to
    raise the men's cost and lower the women's.
    """
    m_rank, w_rank = inst.m_rank, inst.w_rank
    mu_m, goal = inst.mu_m, inst.mu_w.by_man
    partner, holder = list(mu_m.by_man), list(mu_m.by_woman)
    women_cost = cost(w_rank, holder)
    moving = set(inst.sad_men)

    # Per man, built on first read: his women, best first, and where s(m)
    # resumes (women only improve, so one passed over never qualifies again).
    m_order: dict[int, list[int]] = {}
    pos: dict[int, int] = {}

    def s(m: int) -> int:
        """The first woman after m's partner who prefers m to her lot, or -1."""
        order = m_order.get(m)
        if order is None:
            order = m_order[m] = list(m_rank[m])
            pos[m] = order.index(partner[m]) + 1
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
    gains: dict[int, list[tuple[int, int, int]]] = {}
    path, at = [], {}  # a walk of next(), and each man's place in it
    while moving:
        if path:
            w = s(path[-1])
            if w < 0 or holder[w] not in moving:
                raise RuntimeError(f"the rotation walk leaves the moving men at man {path[-1]}")
            m = holder[w]
        else:
            m = next(iter(moving))
        if m not in at:
            at[m] = len(path)
            path.append(m)
            continue
        cycle = path[at[m]:]
        del path[at[m]:]
        j = len(moves)
        rotation = [(m, partner[m], s(m)) for m in cycle]
        mask = 0
        for m, w_from, w_to in rotation:
            del at[m]
            if m in last_of_man:  # type 1: an earlier rotation moves m
                mask |= 1 << last_of_man[m]
            order = m_order[m]
            # Type 2: each woman m skips must already hold a man she prefers to m.
            for w in order[order.index(w_from) + 1:pos[m]]:
                r = w_rank[w][m]
                for i, before, after in gains.get(w, ()):
                    if after < r < before:
                        mask |= 1 << i
        for m, _, w_to in rotation:  # each woman is some man's w_to once
            gains.setdefault(w_to, []).append((j, w_rank[w_to][holder[w_to]], w_rank[w_to][m]))
            partner[m] = w_to
            holder[w_to] = m
            pos[m] += 1
            last_of_man[m] = j
            if w_to == goal[m]:
                moving.discard(m)
        moves.append(rotation)
        preds.append(mask)
        deltas.append(_deltas(rotation, m_rank, w_rank))
    o_w = women_cost + sum(d_women for _, d_women in deltas)
    return _Chain(mu_m.by_man, (inst.o_m, women_cost), o_w, moves, preds, deltas)


def _ranked(deltas) -> list[int]:
    """The rotations, best women's drop per men's rise first, ties in index order.

    Drops per rise are compared by cross-multiplication (every rise is
    positive).
    """
    def before(i, j):  # negative when i's drop per rise tops j's
        return deltas[i][1] * deltas[j][0] - deltas[j][1] * deltas[i][0]

    return sorted(range(len(deltas)), key=cmp_to_key(before))


def _later_by_ratio(deltas) -> list[list[tuple[int, int]]]:
    """Per rotation j, the (men's rise, women's drop) of each rotation after j, best drop per rise first."""
    ranked = [(i, (deltas[i][0], -deltas[i][1])) for i in _ranked(deltas)]
    return [[pair for i, pair in ranked if i > j] for j in range(len(deltas))]


def _by_ratio(chain: _Chain) -> list[int]:
    """The rotations in a linear extension of their poset, the ready one with the best ratio first.

    Among the rotations whose predecessors are all listed, list the one
    with the best women's drop per men's rise next, ties by chain index:
    the first ready one in ``_ranked`` order among those not yet listed.
    Entry p of the result is the chain index of the p-th rotation.  The
    scan is quadratic, yet on chains of about 100 rotations with dense
    predecessor masks it measured no slower than Kahn's algorithm over
    successor lists, and no slower on the sparse chains of the reduction.
    """
    preds = chain.preds
    ranked = _ranked(chain.deltas)
    order = []
    listed = 0
    while ranked:
        # Some rotation is ready: every predecessor comes earlier in the chain.
        for p, i in enumerate(ranked):
            if not preds[i] & ~listed:
                break
        del ranked[p]
        order.append(i)
        listed |= 1 << i
    return order


def _may_beat(later, men: int, women: int, below: int) -> bool:
    """Whether adding some of ``later`` to a set of costs (men, women) may bring its balance under ``below``.

    ``later`` is one list of ``_later_by_ratio``.  The men's rise must fit
    in the slack ``below - 1 - men`` while the women's drop reaches
    ``women - below + 1``; False means even the greedy fractional fill,
    the relaxation's optimum, falls short.  The rotation taken in part is
    compared by cross-multiplication.
    """
    slack, need = below - 1 - men, women - below + 1
    if slack < 0:
        return False
    for rise, drop in later:
        if need <= 0:
            return True
        if rise > slack:
            return drop * slack >= need * rise
        slack -= rise
        need -= drop
    return need <= 0


def _walk(chain: _Chain, bound: list[int | float]):
    """Yield ``(chosen, men, women)`` for μ_M and each closed set added with balance under ``bound[0]``.

    ``chosen`` is the set's mask of chain indices, ``men`` and ``women``
    its side costs.  Depth first over the ``_by_ratio`` order, adding
    position p only after the last one added and once all its
    predecessors are in, each closed set is reached at most once, and
    every one when nothing is cut.  Adding p is cut unless some set below
    it may beat the bound ``best``: with the costs ``up``, ``down`` after
    p, ``up >= best`` fails at once and ``down < best`` passes at once
    (``_may_beat``'s negative slack and its first met need), so
    ``_may_beat`` runs only between them.  ``best`` is read at the start
    and right after each yield, so a caller may lower it between yields,
    but not from infinity, which cuts nothing and builds no ``later``.

    After a failed test at p the walk goes on at ``skip[p]``, the first
    later position whose rotation rises less than p's.  Every position q
    in between is either not ready or fails its test in the same state.
    Every chosen rotation comes before p, so if q is ready, all its
    predecessors were listed before p, q was ready when ``_by_ratio``
    took p, and its drop per rise is at most p's.  Let p rise r and drop
    d, and q rise r + Δr (Δr ≥ 0) and drop d + Δd; with ρ, q's drop per
    rise, Δr · ρ = (d + Δd) - r · ρ ≥ (d + Δd) - d = Δd.  Were q's
    relaxation to pass, its fractional fill over ``later[q]`` (the part
    of ``later[p]`` after q), plus the fraction Δr / (r + Δr) of q
    itself, would be a fill of p's relaxation that uses Δr more slack and
    drops at least Δd more, which meets p's need: a contradiction.  On
    the clique reduction's chains every rotation seen rises by 6, so
    there a failed test skips every later position.
    """
    order = _by_ratio(chain)
    n = len(order)
    # Walk positions p in that order; ``chosen`` keeps chain indices, as ``preds`` do.
    bit = [1 << j for j in order]
    preds = [chain.preds[j] for j in order]
    deltas = [chain.deltas[j] for j in order]
    best = bound[0]
    later = _later_by_ratio(deltas) if best < inf else None
    skip = [n] * n  # per position, the first later one that rises less
    rising: list[int] = []
    for q, (rise, _) in enumerate(deltas):
        while rising and deltas[rising[-1]][0] > rise:
            skip[rising.pop()] = q
        rising.append(q)
    men, women = chain.costs
    chosen = 0
    yield chosen, men, women
    best = bound[0]
    added: list[int] = []
    p = 0
    while True:
        while p < n and preds[p] & ~chosen:
            p += 1
        if p < n:
            d_men, d_women = deltas[p]
            up, down = men + d_men, women + d_women
            if up < best and (down < best or _may_beat(later[p], up, down, best)):
                chosen |= bit[p]
                men, women = up, down
                added.append(p)
                if down < best:
                    yield chosen, men, women
                    best = bound[0]
                p += 1
            else:
                p = skip[p]
        elif added:
            p = added.pop()
            chosen ^= bit[p]
            men -= deltas[p][0]
            women -= deltas[p][1]
            p += 1
        else:
            return


def _partners(chain: _Chain, chosen: int) -> list[int]:
    """The matching of a closed set, as each man's woman index: its rotations applied to μ_M in chain order."""
    partner = list(chain.mu_m)
    for j, rotation in enumerate(chain.moves):
        if chosen >> j & 1:
            for m, _, w_to in rotation:
                partner[m] = w_to
    return partner


def _walk_least_balance(chain: _Chain) -> int:
    """The least balance over the stable matchings: ``_walk`` with the bound at each balance it yields."""
    bound = [max(chain.costs)]
    for _, men, women in _walk(chain, bound):
        bound[0] = max(men, women)
    return bound[0]


def _components(preds: list[int]) -> list[int]:
    """The weakly connected components of the rotation poset, each as a mask of chain indices.

    Each rotation joins every component that holds one of its
    predecessors, which all come earlier in the chain; transitive
    predecessor bits join nothing that the direct ones leave apart.
    """
    parts: list[int] = []
    for j, mask in enumerate(preds):
        joined, rest = mask | 1 << j, []
        for part in parts:
            if part & joined:
                joined |= part
            else:
                rest.append(part)
        rest.append(joined)
        parts = rest
    return parts


def _pareto(pairs) -> list[tuple[int, int]]:
    """The (men's, women's) pairs that no other pair beats on both sides, least men's first."""
    front: list[tuple[int, int]] = []
    for men, women in sorted(pairs):
        if not front or women < front[-1][1]:
            front.append((men, women))
    return front


def _merge_fronts(fronts) -> list[tuple[int, int]]:
    """The min-plus sum of cost fronts: the sums of one pair per front that no other sum beats on both sides."""
    merged = [(0, 0)]
    for front in fronts:
        merged = _pareto({(a + c, b + d) for a, b in merged for c, d in front})
    return merged


def _split_least_balance(chain: _Chain, parts: list[int]) -> int:
    """The least balance, from each component's front of (men's rise, women's change) merged by min-plus.

    Each component's front comes from the unbounded ``_walk`` of the
    component alone, re-indexed in chain order, with no moves and costs
    from zero.
    """
    fronts = []
    for mask in parts:
        part = [j for j in range(len(chain.preds)) if mask >> j & 1]
        preds = [sum(1 << k for k, i in enumerate(part) if chain.preds[j] >> i & 1) for j in part]
        sub = _Chain([], (0, 0), 0, [()] * len(part), preds, [chain.deltas[j] for j in part])
        fronts.append(_pareto((men, women) for _, men, women in _walk(sub, [inf])))
    men, women = chain.costs
    return min(max(men + rise, women + change) for rise, change in _merge_fronts(fronts))


def _least_balance(chain: _Chain) -> int:
    """The least balance over the stable matchings.

    Split by the weakly connected components of the rotation poset
    (``_split_least_balance``) when at least two of them hold more than one
    rotation and none holds more than ``_SPLIT_LIMIT``.  That is sound
    because rotations in different components have no order between them:
    the closed sets are the unions of one closed set per component, and
    both side costs add up.  Otherwise walk the whole poset by branch and
    bound (``_walk_least_balance``).
    """
    parts = _components(chain.preds)
    sizes = sorted(part.bit_count() for part in parts)
    if len(sizes) > 1 and sizes[-2] > 1 and sizes[-1] <= _SPLIT_LIMIT:
        return _split_least_balance(chain, parts)
    return _walk_least_balance(chain)


def enumerate_stable(inst: Instance, limit: int = DEFAULT_MAX_MEN) -> StableSet:
    """All stable matchings, in a deterministic order, with the minimum balance.

    Matchings are ordered by the tuple of every man's partner index (-1
    when single).  Raises ``TooLarge`` when more than ``limit`` men move
    between the man- and woman-optimal matchings; only those men's
    partners differ among the stable matchings, so there are at most
    ``limit!`` of them.  The decisions, which return one witness, take no bound.

    When no man moves, μ_M = μ_W is the only stable matching (Gusfield &
    Irving 1989), returned with balance max(O_M, O_W) and no chain walk.
    Otherwise the unbounded ``_walk`` lists every closed set once and
    ``_partners`` reads its matching.
    """
    n = len(inst.sad_men)
    if n > limit:
        raise TooLarge(f"{n} men change partner, beyond the bound {limit}")
    if not n:
        return StableSet((inst.matching_from_arrays(inst.mu_m.by_man),), max(inst.o_m, inst.o_w))
    chain = _chain(inst)
    rows = sorted((tuple(_partners(chain, chosen)), men, women) for chosen, men, women in _walk(chain, [inf]))
    return StableSet(
        tuple(inst.matching_from_arrays(partner) for partner, _, _ in rows),
        min(max(men_cost, women_cost) for _, men_cost, women_cost in rows),
    )


def _decide(inst: Instance, k: int, above: str) -> OracleDecision:
    """The witness is the first matching in ``enumerate_stable`` order with the least balance.

    O_M is the men's cost of μ_M and O_W the women's cost of μ_W, the two
    ends of the chain (Gusfield & Irving 1989).  ``_least_balance`` finds
    the least balance b; when it is at most k, ``_walk`` under the fixed
    bound b + 1 yields μ_M and exactly the closed sets of balance b, and
    the least of their partner tuples is the witness.
    """
    chain = _chain(inst)
    o_m, o_w = chain.costs[0], chain.o_w
    t = k - (min(o_m, o_w) if above == "min" else max(o_m, o_w))
    bal_opt = _least_balance(chain)
    if bal_opt > k:
        return OracleDecision(False, t, None)
    walk = _walk(chain, [bal_opt + 1])
    tied = (tuple(_partners(chain, chosen)) for chosen, men, women in walk if max(men, women) == bal_opt)
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
