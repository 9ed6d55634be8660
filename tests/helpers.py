"""Shared builders and independent brute-force oracles for the test suite."""

from __future__ import annotations

import importlib.util
import json
import sys
from dataclasses import dataclass, replace
from functools import partial
from itertools import compress, count, product
from pathlib import Path

from bsm import fpt, oracle
from bsm.fpt import _Context
from bsm.generate import planted_instance
from bsm.hardness import ReductionArtifact, _fallback, _names, _plan, clique_bruteforce
from bsm.kernel import _remove_happy, _shift, _shrink_units, _sides, _without_pairs
from bsm.gs import optima
from bsm.instance import (
    MAN,
    WOMAN,
    Instance,
    Matching,
    ParseError,
    Person,
    Roster,
    ValidationError,
    _check_name,
    _check_people,
    _is_int,
    _object_without_repeats,
    cost,
    make_instance,
    parse_instance,
)
from bsm.oracle import _Chain, _deltas

# The most digits int() reads from a string; 0 when there is no limit.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

ROOT = Path(__file__).resolve().parents[1]

SAD_2X2_TEXT = """\
men: m1 m2
women: w1 w2
k: 4
m1: w1 w2
m2: w2 w1
w1: m2 m1
w2: m1 m2
"""


def verify_cases():
    """The ``(key, graph, k)`` of every reduction check that ``scripts/record_kernel_golden.py`` records."""
    spec = importlib.util.spec_from_file_location("record_kernel_golden", ROOT / "scripts" / "record_kernel_golden.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return list(recorder.verify_cases())


def pool_entries():
    """The entries of ``perfbench/optimize_pool.json``: (n, seed, nodes, least balance)."""
    return json.loads((ROOT / "perfbench" / "optimize_pool.json").read_text())["entries"]


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


def partners(mu: Matching) -> dict[Person, Person]:
    """Each matched person's partner, men and women alike, read from ``mu.pairs``."""
    return {p: q for m, w in mu.pairs for p, q in ((m, w), (w, m))}


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
    with total offset at most r: the unpruned search, with no woman ever
    ruled out, whose node count bounds the solver's per subset.

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


def loaded(ctx: _Context, m_prime, women) -> tuple[list[int], list[int]] | None:
    """The partner arrays (wife, husband) of the certificate that gives the
    selected men ``m_prime`` the women ``women``, every other man keeping
    his man-optimal partner, as they would stand at its leaf; None when a
    woman is claimed twice."""
    mu = ctx.inst.mu_m
    wife, husband = list(mu.by_man), list(mu.by_woman)
    for m in m_prime:
        husband[mu.by_man[m]] = wife[m] = -1
    for m, w in zip(m_prime, women):
        if husband[w] >= 0:
            return None  # two men claim the same woman
        wife[m], husband[w] = w, m
    return wife, husband


def assemble(ctx: _Context, m_prime, women) -> list[int] | None:
    """What ``fpt._accept`` returns for the certificate that gives the
    selected men ``m_prime`` the women ``women``, every other man keeping
    his man-optimal partner; None when a woman is claimed twice.

    The search only reaches certificates that pair every selected man with
    a free woman; this loads any certificate (``loaded``) into the
    context's partner arrays, which hold μ_M between subsets, and puts μ_M
    back.
    """
    arrays = loaded(ctx, m_prime, women)
    if arrays is None:
        return None
    mu = ctx.inst.mu_m
    ctx.wife[:], ctx.husband[:] = arrays
    try:
        return fpt._accept(ctx)
    finally:
        ctx.wife[:], ctx.husband[:] = mu.by_man, mu.by_woman


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
    the unpruned search whose nodes bound the solver's counters, in people.
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


def chain_order_walk(chain, below: int | None, tighten: bool, may_beat):
    """The closed-set walk of ``oracle._closed_sets``, cutting by ``may_beat``.

    Rotations are added in chain order.  Adding rotation j is cut unless
    ``may_beat(j, men's cost after it, women's cost after it, below)``.
    With ``tighten``, ``below`` falls to each balance yielded.  Yields the
    same ``(partner, men_cost, women_cost)`` rows, with ``partner`` edited
    in place.
    """
    moves, preds, deltas = chain.moves, chain.preds, chain.deltas
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
            if below is not None and not may_beat(j, men_cost + d_men, women_cost + d_women, below):
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


def tightened_walk(chain):
    """The least-balance walk in chain order, the reference for ``oracle._least_balance``.

    It walks the closed sets in chain order under ``oracle._may_beat``,
    starting from μ_M's balance and tightening the bound to each balance
    yielded, so its least balance is the engine's.
    """
    later = oracle._later_by_ratio(chain.deltas)
    return chain_order_walk(
        chain, max(chain.costs), tighten=True,
        may_beat=lambda j, men, women, below: oracle._may_beat(later[j], men, women, below),
    )


def suffix_bound_walk(chain, below: int | None = None, tighten: bool = False):
    """The closed-set walk of ``oracle._closed_sets`` under the looser suffix bound.

    Adding rotation j is cut when max(men's cost after it, women's cost
    after it plus every later rotation's women's delta) is at least
    ``below``: the later rotations may all be added for the women's drop,
    whatever they add to the men's cost.
    """
    suffix = [0] * (len(chain.deltas) + 1)
    for j in reversed(range(len(chain.deltas))):
        suffix[j] = suffix[j + 1] + chain.deltas[j][1]
    return chain_order_walk(
        chain, below, tighten, may_beat=lambda j, men, women, below: max(men, women + suffix[j + 1]) < below
    )


def chain_rows(chain: _Chain) -> list[tuple[tuple[int, ...], int, int]]:
    """Every stable matching as (partner tuple, men's cost, women's cost), in
    ``oracle.enumerate_stable`` order, by the closed-set walk of any chain,
    with or without a rotation."""
    return sorted((tuple(partner), men, women) for partner, men, women in oracle._closed_sets(chain))


def chain_stable(inst: Instance) -> tuple[list[Matching], int]:
    """``oracle.enumerate_stable``'s ordered matchings and least balance, from ``chain_rows``."""
    rows = chain_rows(oracle._chain(inst))
    return [inst.matching_from_arrays(partner) for partner, _, _ in rows], min(max(men, women) for _, men, women in rows)


def chain_decision(inst: Instance, k: int, above: str) -> tuple:
    """``oracle.decide_above_min`` (``above="min"``) or ``decide_above_max`` as (answer, t, witness), from ``chain_rows``.

    The ends of the chain give O_M and O_W; the witness is the first
    matching of least balance in enumeration order.
    """
    chain = oracle._chain(inst)
    o_m, o_w = chain.costs[0], chain.o_w
    t = k - (min(o_m, o_w) if above == "min" else max(o_m, o_w))
    rows = chain_rows(chain)
    bal_opt = min(max(men, women) for _, men, women in rows)
    if bal_opt > k:
        return False, t, None
    return True, t, inst.matching_from_arrays(next(p for p, men, women in rows if max(men, women) == bal_opt))


def full_sweep_chain(inst: Instance) -> _Chain:
    """One maximal chain of exposed rotations from μ_M to μ_W, by full sweeps:
    the slow reference for ``oracle._chain``.

    Every man's table is copied up front.  Each exposed-rotation search
    restarts from man 0 and walks each man whose walk is not yet known to
    end, and the last search, which finds nothing, sweeps every man.  It
    reads μ_M alone and reaches μ_W by itself, so its moves, replayed on
    μ_M, are a reference for the chain's end as well.

    No size bound: it visits each rotation once, and there are at most as
    many rotations as acceptable pairs.  Raises ``RuntimeError`` if a
    rotation fails to raise the men's cost and lower the women's.
    """
    m_rank, w_rank = inst.m_rank, inst.w_rank
    m_order = [list(table) for table in m_rank]  # each man's women, best first
    n_men = len(inst.men)
    mu_m = inst.mu_m
    partner, holder = list(mu_m.by_man), list(mu_m.by_woman)
    women_cost = cost(w_rank, holder)

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
    o_w = women_cost + sum(d_women for _, d_women in deltas)
    return _Chain(mu_m.by_man, (inst.o_m, women_cost), o_w, moves, preds, deltas)


# --- the least balance by components, without the engine ----------------------
# A pair blocks only within a connected component of the acceptability graph,
# so a stable matching is one stable matching per component, chosen freely.

COMPONENT_SIDE_LIMIT = 8


def components(inst: Instance) -> list[tuple[list[int], list[int]]]:
    """The connected components of the acceptability graph as (men, women) index lists."""
    n_men = len(inst.men)
    root = list(range(n_men + len(inst.women)))

    def find(p: int) -> int:
        while root[p] != p:
            root[p] = p = root[root[p]]
        return p

    for m, table in enumerate(inst.m_rank):
        for w in table:
            root[find(m)] = find(n_men + w)
    men: dict[int, list[int]] = {}
    women: dict[int, list[int]] = {}
    for m in range(n_men):
        men.setdefault(find(m), []).append(m)
    for w in range(len(inst.women)):
        women.setdefault(find(n_men + w), []).append(w)
    return [(men.get(part, []), women.get(part, [])) for part in sorted(men.keys() | women.keys())]


def crossed_planted_instance(rng, n: int, cores: int, extra: int) -> Instance:
    """``planted_instance(rng, n, cores, extra)`` with its cores joined in the input.

    The cores are the components of the acceptability graph with more
    than one man in which everyone accepts everyone on the other side.
    Each core's man, drawn at random, and a random woman of the next core
    then accept each other, each ranking the other last.  No stable
    matching holds such a pair: a core man matched outside his core
    leaves a woman of his core single or in such a pair, and the two
    block.  ``clean_suffix`` drops the pairs, so the cores separate only
    in the kernel.
    """
    inst = planted_instance(rng, n, cores, extra)
    found = [
        (ms, ws) for ms, ws in components(inst)
        if len(ms) > 1 and all(len(inst.m_rank[m]) == len(ws) for m in ms)
        and all(len(inst.w_rank[w]) == len(ms) for w in ws)
    ]
    if len(found) != cores:
        raise ValueError(f"found {len(found)} full-list components for {cores} cores")
    ranks = {p: dict(table) for p, table in inst.prefs.ranks.items()}
    for i, (ms, _) in enumerate(found):
        m, w = inst.men[rng.choice(ms)], inst.women[rng.choice(found[(i + 1) % cores][1])]
        ranks[m][w] = len(ranks[m]) + 1
        ranks[w][m] = len(ranks[w]) + 1
    return make_instance(inst.men, inst.women, ranks)


def component_least_balance(inst: Instance) -> int:
    """The least balance of a stable matching of ``inst``, one component at a time.

    A component in which every first choice is mutual has one stable
    matching, everyone with their first choice.  Any other is
    brute-forced (``_component_costs``), up to ``COMPONENT_SIDE_LIMIT``
    people per side.  Every stable matching's (men's, women's) cost is a
    sum of one cost pair per component; the merge keeps, component by
    component, only the sums that no other beats on both sides.
    """
    front = [(0, 0)]
    for ms, ws in components(inst):
        firsts = [(min(inst.m_rank[m], key=inst.m_rank[m].get), m) for m in ms if inst.m_rank[m]]
        if len(firsts) == len(ws) and all(min(inst.w_rank[w], key=inst.w_rank[w].get) == m for w, m in firsts):
            costs = {(sum(inst.m_rank[m][w] for w, m in firsts), sum(inst.w_rank[w][m] for w, m in firsts))}
        else:
            costs = _component_costs(inst, ms, ws)
        sums = sorted({(a + c, b + d) for a, b in front for c, d in costs})
        front, least = [], None
        for men_cost, women_cost in sums:
            if least is None or women_cost < least:
                front.append((men_cost, women_cost))
                least = women_cost
    return min(max(pair) for pair in front)


def _component_costs(inst: Instance, men: list[int], women: list[int]) -> set[tuple[int, int]]:
    """The (men's, women's) costs of every stable matching of one component,
    by backtracking over its men, each given a free woman or none.

    A pair of two people whose partners are both settled is checked as
    soon as the second is; a woman nobody took is checked at the leaf.
    """
    if max(len(men), len(women)) > COMPONENT_SIDE_LIMIT:
        raise ValueError(f"a component of {len(men)} men and {len(women)} women exceeds {COMPONENT_SIDE_LIMIT}")
    m_rank, w_rank = inst.m_rank, inst.w_rank
    husband: dict[int, int] = {}
    wife: dict[int, int] = {}
    found = set()

    def leaves(m: int, w: int) -> bool:  # m would leave his wife, or being single, for w
        return m not in wife or m_rank[m][w] < m_rank[m][wife[m]]

    def blocked(i: int, m: int, w: int | None) -> bool:
        """Whether m, given w (None: single), blocks with a taken woman or
        his wife blocks with a man settled before him."""
        if any(w_rank[w2][m] < w_rank[w2][husband[w2]] for w2 in m_rank[m] if w2 in husband and leaves(m, w2)):
            return True
        ranks = {} if w is None else w_rank[w]
        return any(m2 in ranks and ranks[m2] < ranks[m] and leaves(m2, w) for m2 in men[:i])

    def settle(i: int) -> None:
        if i == len(men):
            if not any(leaves(m, w) for w in women if w not in husband for m in w_rank[w]):
                found.add((sum(m_rank[m][w] for m, w in wife.items()), sum(w_rank[w][m] for w, m in husband.items())))
            return
        m = men[i]
        for w in [*m_rank[m], None]:
            if w in husband:
                continue
            if w is not None:
                wife[m], husband[w] = w, m
            if not blocked(i, m, w):
                settle(i + 1)
            if w is not None:
                del wife[m], husband[w]

    settle(0)
    return found


# --- the branching tables, from scratch ---------------------------------------
# ``bsm.fpt`` keeps a kernel's worse and need tables with the kernel.  It
# reads the needs at an unbounded budget.  These rebuild the tables for
# one decision at its own budget, as every decision once did.  The tests
# hold the kept tables to them.

def reference_tables(kernel: Instance, k: int):
    """(anchor, worse, needs) of the branching context of ``kernel`` at
    target k, walked from scratch at the budget r = k - O_M."""
    r = k - kernel.o_m
    anchor, worse = [], []
    for table, anchor_w in zip(kernel.m_rank, kernel.mu_m.by_man):
        rank = table[anchor_w] if anchor_w >= 0 else 0
        anchor.append(rank)
        worse.append([] if anchor_w < 0 else [(q - rank, w) for w, q in table.items() if q > rank])
    bit = {m: 1 << i for i, m in enumerate(kernel.sad_men)}
    needs = []
    for m in kernel.sad_men:
        start = _start_set(kernel, worse[m], r, m, bit)
        claim = _claimers(kernel, anchor, r, m, bit)
        needs.append([claim] if start is None else [claim, start])
    return anchor, worse, needs


def _start_set(kernel: Instance, worse, r: int, m: int, bit: dict[int, int]) -> int | None:
    """The μ_M husbands of the women m meets at the root within the budget,
    up to the first who prefers m to hers, as a mask of the sad men in
    ``bit``; None if one of the women has none."""
    w_rank, husband = kernel.w_rank, kernel.mu_m.by_woman
    start = 0
    for offset, w in worse:
        if offset > r:
            break
        h = husband[w]
        if h < 0:
            return None
        start |= bit.get(h, 0)
        if w_rank[w][m] < w_rank[w][h]:
            break
    return start


def _claimers(kernel: Instance, anchor, r: int, m: int, bit: dict[int, int]) -> int:
    """The mask of the sad men in ``bit`` who can take m's man-optimal
    partner w0: she prefers them to m, and each ranks her below his own
    within the budget."""
    w0 = kernel.mu_m.by_man[m]
    ranks = kernel.w_rank[w0]
    mine = ranks[m]
    claimers = 0
    for m2, rank in ranks.items():
        if rank >= mine:
            break
        if m2 in bit and kernel.m_rank[m2][w0] - anchor[m2] <= r:
            claimers |= bit[m2]
    return claimers


def swapped(inst: Instance) -> Instance:
    """``inst`` with the sides traded: every woman becomes a man and every man
    a woman, each with the same name and the same ranks (the tables are shared)."""
    men = tuple(Person(MAN, w.name) for w in inst.women)
    women = tuple(Person(WOMAN, m.name) for m in inst.men)
    return Instance(men, women, inst.w_rank, inst.m_rank, inst.target_k)


# --- kernel size bounds -------------------------------------------------------

def sad_people(inst: Instance, opt) -> tuple[list[Person], list[Person]]:
    """The men and the women whose partners in ``opt``'s two extreme matchings differ."""
    men = [m for m in inst.men if opt.mu_m.by_man.get(m) != opt.mu_w.by_man.get(m)]
    by_woman = [{w: m for m, w in mu.pairs} for mu in (opt.mu_m, opt.mu_w)]
    women = [w for w in inst.women if by_woman[0].get(w) != by_woman[1].get(w)]
    return men, women


def assert_kernel_bounds(result) -> None:
    """Acceptance criterion 2's size bounds on the padded kernel of a
    ``kernelize`` result: at most 3t people and 2t sad people per side, and
    lists at most t + 1 long for a sad person and 2t + 1 for the others."""
    kin, kk = result.kernel, result.k
    kopt = optima(kin)
    t = kk - min(kopt.o_m, kopt.o_w)
    assert t <= result.t_input
    assert len(kin.men) <= 3 * t and len(kin.women) <= 3 * t
    sad_men, sad_women = sad_people(kin, kopt)
    assert len(sad_men) <= 2 * t and len(sad_women) <= 2 * t
    sad = set(sad_men) | set(sad_women)
    for person in kin.people:
        bound = t + 1 if person in sad else 2 * t + 1
        assert len(kin.prefs.ranks[person]) <= bound


def assert_functional_kernel_bounds(result) -> None:
    """Acceptance criterion 3's bounds on the functional kernel of a
    ``kernelize`` result: at most 2t people per side, n per side with the
    smaller optimal cost n, and every rank in 1..t + 1."""
    fun, fk = result.functional, result.functional_k
    fopt = optima(fun)
    t = fk - min(fopt.o_m, fopt.o_w)
    assert len(fun.men) <= 2 * t and len(fun.women) <= 2 * t
    assert min(fopt.o_m, fopt.o_w) == len(fun.men) == len(fun.women)
    for person in fun.people:
        values = fun.prefs.ranks[person].values()
        assert all(1 <= value <= t + 1 for value in values)


# --- single-step kernel rules -------------------------------------------------
# The batched rules of ``bsm.kernel`` make one rebuild per application; these
# make one change per application, and the tests hold the batches to them.

def clean_suffix_once(inst: Instance):
    """Drop a person's worst partner when ranked beyond their worst stable partner.

    Men are bounded by their woman-optimal partner, women by their
    man-optimal partner; no stable matching uses such a pair, so the
    stable set and both optima are untouched.
    """
    for tables, anchors, owners, partners, flip in _sides(inst, inst.mu_w.by_man, inst.mu_m.by_woman):
        for a, anchor in enumerate(anchors):
            worst = next(reversed(tables[a]), -1)  # tables are in rank order
            if anchor >= 0 and worst != anchor:
                pair = (worst, a) if flip else (a, worst)
                return _without_pairs(inst, [pair]), ((owners[a], partners[worst]),)
    return None


def reference_clean_suffix(inst: Instance):
    """Every clean-suffix drop at once, by the per-owner scan: (next instance, rows) or None.

    One pass over the people in instance order, men then women, each
    dropping partners beyond their anchor worst first; a pair already
    dropped is skipped, and the tables the drops touch are copied and
    dropped from one pair at a time.
    """
    drops: dict[tuple[int, int], tuple[Person, Person]] = {}  # (man, woman) -> row
    for tables, anchors, owners, partners, flip in _sides(inst, inst.mu_w.by_man, inst.mu_m.by_woman):
        for a, anchor in enumerate(anchors):
            if anchor >= 0:
                cutoff = tables[a][anchor]
                for b, r in reversed(tables[a].items()):  # the suffix past the anchor, worst first
                    if r <= cutoff:
                        break
                    drops.setdefault((b, a) if flip else (a, b), (owners[a], partners[b]))
    if not drops:
        return None
    return _without_pairs(inst, drops), tuple(drops.values())


def remove_happy_pair_once(inst: Instance):
    """Remove the first happy pair in canonical order."""
    hit = _remove_happy(inst, inst.happy_pairs[:1])
    return None if hit is None else hit[:2]


def shrink_once(inst: Instance):
    """Shift one man's and one woman's whole rank function down by 1; k falls by 1 with them."""
    return _shift(inst, _shrink_units(inst)[:1])


def reference_within(tables, cuts, other, other_cuts) -> list[dict[int, int]]:
    """``kernel._within`` by a full scan of every table, as clean-suffix first cut them."""
    return [
        {b: r for b, r in table.items() if r <= cut and other[b][a] <= other_cuts[b]}
        for a, (table, cut) in enumerate(zip(tables, cuts))
    ]


# --- the reference clique reduction -------------------------------------------
# ``hardness.reduce_clique`` builds each row group from blocks made once per
# reduction.  This writes every row entry by entry, as it once did, through
# vertex and edge index dicts; the tests hold the library's rows to it, key
# order included.

def reference_reduce_clique(g, k: int) -> ReductionArtifact:
    """The reduction of ``hardness.reduce_clique``, each table written row by row."""
    delta, fallback = _plan(g, k)
    if fallback:
        return _fallback(g, k, delta, clique_bruteforce(g, k))

    n_v, n_e = len(g.vertices), len(g.edges)
    V = g.vertices
    E = g.edges
    deg = dict.fromkeys(V, 0)
    for u, v in E:
        deg[u] += 1
        deg[v] += 1

    # Both sides list tier-1 vertex, tier-2 vertex, tier-1 edge, tier-2 edge,
    # dummy and star people in that order, so one index serves either side.
    iv = {(s, v): (s - 1) * n_v + i for i, v in enumerate(V) for s in (1, 2)}
    ie = {(s, j): 2 * n_v + (s - 1) * n_e + j for j in range(n_e) for s in (1, 2)}
    base = 2 * n_v + 2 * n_e
    dummy = range(base, base + delta)
    star = base + delta
    men = Roster(MAN, star + 1, partial(_names, "m", n_v, n_e, delta))
    women = Roster(WOMAN, star + 1, partial(_names, "w", n_v, n_e, delta))
    m_rank: list[dict[int, int]] = [{} for _ in range(base)]
    w_rank: list[dict[int, int]] = [{} for _ in range(base)]

    # Each table is written best rank first.  When delta is small, only the
    # dummies that exist are referenced; the rank values of everyone else
    # stay put, so the tables may have gaps.
    # Vertex men: own partner, the two shared dummies, then the twin's partner.
    for v in V:
        for s in (1, 2):
            table = m_rank[iv[(s, v)]]
            table[iv[(s, v)]] = 1
            table.update(zip(dummy[:2], count(2)))
            table[iv[(3 - s, v)]] = 4

    # Edge men: own partner, both endpoint women of the same tier, twin's partner.
    for j, (u, v) in enumerate(E):
        for s in (1, 2):
            m_rank[ie[(s, j)]].update({ie[(s, j)]: 1, iv[(s, u)]: 2, iv[(s, v)]: 3, ie[(3 - s, j)]: 4})

    # Dummy men: own dummy first.  The low-index ones also rank every edge
    # woman, in index order, and a tail of vertex women: dummy i ranks, in
    # index order, the vertex women whose vertex misses at least i edges.
    n_ve = n_v * n_e
    m_rank += [{d: 1} for d in dummy]
    edge_ranks = dict(zip(range(2 * n_v, base), count(2)))
    missed = [n_e - deg[v] for v in V] * 2  # per vertex woman, in index order
    for i, table in enumerate(m_rank[base:base + n_ve], start=1):
        table.update(edge_ranks)
        table.update(zip(compress(range(2 * n_v), map(i.__le__, missed)), count(2 * n_e + 2)))

    # The star man: every dummy woman in index order, then the star woman.
    m_rank.append(dict(zip(range(base, star + 1), count(1))))

    # Vertex women: the twin first, incident edge men at their edge's global
    # slot, acceptable dummies on the unused slots, own man last.
    for v in V:
        for s in (1, 2):
            table = w_rank[iv[(s, v)]]
            table[iv[(3 - s, v)]] = 1
            free = iter(dummy)
            for j, e in enumerate(E):
                if v in e:
                    table[ie[(s, j)]] = j + 2
                else:
                    d = next(free, None)
                    if d is not None:
                        table[d] = j + 2
            table[iv[(s, v)]] = n_e + 2

    # Edge women: the twin first, every low-index dummy man, own man last.
    for j in range(n_e):
        for s in (1, 2):
            table = w_rank[ie[(s, j)]]
            table[ie[(3 - s, j)]] = 1
            table.update(zip(dummy[:n_ve], count(2)))
            table[ie[(s, j)]] = n_ve + 2

    # Dummy women: own dummy, the star man, and (for the first two) all
    # vertex men, tier 1 then tier 2, in index order.
    w_rank += [{d: 1, star: 2} for d in dummy]
    for table in w_rank[base:base + 2]:
        table.update(zip(range(2 * n_v), count(3)))

    w_rank.append({star: 1})

    t = 6 * (k + k * (k - 1) // 2)
    k_hat = len(men) + delta + t
    inst = Instance(men, women, m_rank, w_rank, k_hat)
    return ReductionArtifact(inst, k_hat, delta, t, False, g, k)


# --- the reference text writer -----------------------------------------------

def reference_contiguous(inst: Instance) -> bool:
    """``Instance.contiguous`` as it was first defined: each table's largest rank is its length."""
    return all(max(t.values(), default=0) == len(t) for t in inst.m_rank + inst.w_rank)


def reference_serialize_text(inst: Instance) -> str:
    """The text form, each row written from its (partner name, rank) pairs."""
    lines = [
        ("men: " + " ".join(p.name for p in inst.men)).rstrip(),
        ("women: " + " ".join(p.name for p in inst.women)).rstrip(),
    ]
    if inst.target_k is not None:
        lines.append(f"k: {inst.target_k}")
    for owners, tables, partners in ((inst.men, inst.m_rank, inst.women), (inst.women, inst.w_rank, inst.men)):
        names = [p.name for p in partners]
        for p, table in zip(owners, tables):
            entries = [(names[q], r) for q, r in table.items()]
            if inst.contiguous:
                body = " ".join(b for b, _ in entries)
            else:
                body = " ".join(f"{b}={r}" for b, r in entries)
            lines.append(f"{p.name}: {body}".rstrip())
    return "\n".join(lines) + "\n"


# --- the reference reader ---------------------------------------------------
# ``parse_instance`` as it was before the readers proved what they read: every
# person line is read in a second pass, and every entry of every row is
# checked by the ordered scan.  The differential tests hold the library's
# readers to its results, faults included.

def reference_parse(text: str, fmt: str = "text") -> Instance:
    fmt = fmt.lower()
    if fmt == "text":
        return _reference_text(text)
    if fmt == "json":
        return _reference_json(text)
    raise ParseError(f"unknown format {fmt!r}")


def _reference_names(men, women):
    at = {p.name: (0, i) for i, p in enumerate(men)}
    at.update((p.name, (1, j)) for j, p in enumerate(women))
    if len(at) != len(men) + len(women):
        raise ValidationError("person names must be unique")
    keys = ({}, {})
    for name, (side, i) in at.items():
        keys[side][name] = ~i
        keys[1 - side][name] = i
    return at, keys


def _reference_build(men, women, m_rows, w_rows, k) -> Instance:
    if k is not None and (not _is_int(k) or k < 0):
        raise ValidationError(f"target k must be a non-negative integer, got {k!r}")
    for owners, rows, partners, partner_rows in ((men, m_rows, women, w_rows), (women, w_rows, men, m_rows)):
        for i, row in enumerate(rows):
            if len(set(row.values())) != len(row):
                raise ValidationError(f"duplicate rank value in the list of {owners[i]}")
            a = owners[i]
            for b, r in row.items():
                if not isinstance(b, int):
                    raise ValidationError(f"{a} ranks unknown person {b[0]}")
                if b < 0:
                    raise ValidationError(f"{a} ranks {owners[~b]} on the same side")
                if not _is_int(r) or r < 1:
                    raise ValidationError(f"rank of {partners[b]} in list of {a} must be a positive integer")
                if i not in partner_rows[b]:
                    raise ValidationError(f"mutual acceptability violated for ({a}, {partners[b]})")
    for rows in (m_rows, w_rows):
        for i, row in enumerate(rows):
            ranks = list(row.values())
            if ranks != sorted(ranks):
                rows[i] = dict(sorted(row.items(), key=lambda item: item[1]))
    return Instance(men, women, m_rows, w_rows, k)


def _reference_text(text: str) -> Instance:
    men = women = k = None
    raw_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(f"line {lineno}: expected 'name: ...'")
        head = head.strip()
        rest = rest.strip()
        if head == "men":
            if men is not None:
                raise ParseError(f"line {lineno}: duplicate 'men:' line")
            men = [Person(MAN, _reference_name(t, lineno)) for t in rest.split()]
        elif head == "women":
            if women is not None:
                raise ParseError(f"line {lineno}: duplicate 'women:' line")
            women = [Person(WOMAN, _reference_name(t, lineno)) for t in rest.split()]
        elif head == "k":
            if k is not None:
                raise ParseError(f"line {lineno}: duplicate 'k:' line")
            try:
                k = int(rest)
            except ValueError:
                raise ParseError(f"line {lineno}: k must be an integer") from None
        else:
            raw_lines.append((lineno, head, rest))
    if men is None or women is None:
        raise ParseError("missing 'men:' or 'women:' line")
    at, keys = _reference_names(men, women)
    rows = ([None] * len(men), [None] * len(women))
    for lineno, name, rest in raw_lines:
        if name not in at:
            raise ValidationError(f"line {lineno}: unknown person {name!r}")
        side, i = at[name]
        if rows[side][i] is not None:
            raise ParseError(f"line {lineno}: duplicate preference line for {name!r}")
        rows[side][i] = _reference_tokens(rest, keys[side], lineno)
    m_rows, w_rows = ([row if row is not None else {} for row in side_rows] for side_rows in rows)
    return _reference_build(tuple(men), tuple(women), m_rows, w_rows, k)


def _reference_name(token: str, lineno: int) -> str:
    try:
        return _check_name(token)
    except ValidationError as e:
        raise ParseError(f"line {lineno}: {e}") from None


def _reference_tokens(rest: str, keys: dict, lineno: int) -> dict:
    functional = "=" in rest
    row = {}
    for pos, token in enumerate(rest.split(), start=1):
        if functional:
            name, sep, value = token.partition("=")
            if not sep:
                raise ParseError(f"line {lineno}: mixed list and functional tokens")
            try:
                rank = int(value)
            except ValueError:
                raise ParseError(f"line {lineno}: bad rank {value!r}") from None
        else:
            name, rank = token, pos
        key = keys.get(name)
        if key is None:
            raise ValidationError(f"line {lineno}: unknown person {name!r}")
        if key in row:
            raise ValidationError(f"line {lineno}: duplicate partner {name!r}")
        row[key] = rank
    return row


def _reference_json(text: str) -> Instance:
    try:
        doc = json.loads(text, object_pairs_hook=_object_without_repeats)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("JSON instance must be an object")
    for key in ("men", "women"):
        if not isinstance(doc.get(key), list):
            raise ParseError(f"JSON instance needs a {key!r} array")
        for name in doc[key]:
            if not isinstance(name, str):
                raise ParseError(f"names in {key!r} must be strings, got {type(name).__name__}")
    men = tuple(Person(MAN, n) for n in doc["men"])
    women = tuple(Person(WOMAN, n) for n in doc["women"])
    at, keys = _reference_names(men, women)
    prefs = doc.get("prefs", {})
    if not isinstance(prefs, dict):
        raise ParseError("'prefs' must be an object")
    rows = ([{} for _ in men], [{} for _ in women])
    for name, entries in prefs.items():
        if name not in at:
            raise ValidationError(f"unknown person {name!r} in prefs")
        if not isinstance(entries, list):
            raise ParseError(f"prefs of {name!r} must be an array")
        side, i = at[name]
        row = rows[side][i]
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ParseError(f"prefs of {name!r} must be [partner, rank] pairs")
            partner_name, rank = entry
            if not isinstance(partner_name, str):
                raise ParseError(f"partner names in prefs of {name!r} must be strings")
            key = keys[side].get(partner_name)
            if key is None:
                raise ValidationError(f"unknown person {partner_name!r} in prefs of {name!r}")
            if key in row:
                raise ValidationError(f"duplicate partner {partner_name!r} in prefs of {name!r}")
            if not _is_int(rank):
                raise ParseError(f"rank of {partner_name!r} in prefs of {name!r} must be an integer")
            row[key] = rank
    k = doc.get("k")
    if k is not None and not _is_int(k):
        raise ParseError("k must be an integer or null")
    _check_people(men, women)
    return _reference_build(men, women, *rows, k)
