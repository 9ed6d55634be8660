"""Single-exponential decision procedure for the above-minimum balance question.

After kernelization the search space is tiny: pick the subset of sad men
that will be moved off their man-optimal partners, enumerate for each of
them a strictly worse partner under a shared rank-increase budget
``r = k - O_M``, assemble the implied matching and keep the first one
that is stable with balance at most k.

The search runs on the integer tables and man-optimal partner arrays of
the kernel instance, and makes people only for the witness it lifts.

The search skips a branch as soon as it gives a man a woman who is
already taken: one in a happy pair, the man-optimal partner of an
unselected sad man, or the choice of an earlier man on the branch.  No
certificate below such a branch can be a matching, so the skip changes
neither the visit order nor the first accepted certificate.  The node
counts in ``SolveStats`` still describe the unpruned search: each skipped
branch adds the nodes the unpruned search would have visited in it, so
its ``4 * 2**r`` bound per subset holds and the counts do not depend on
how much the search prunes.

``minimal_balance`` turns the decision into the least balance by binary
search over k; ``bsm solve --optimize`` prints what it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import gs
from .instance import Instance, Matching
from .kernel import OUTCOME_KERNEL, TRIVIAL_YES, KernelResult, kernelize


@dataclass(frozen=True)
class SolveStats:
    """Work of the branching step.

    ``branch_nodes`` counts the nodes of the unpruned search, as
    ``_iter_certificates`` without ``taken`` visits them, up to the first
    accepted certificate: a branch skipped because it reuses a taken woman
    counts every node the unpruned search would have visited in it.
    """

    subsets_tried: int
    branch_nodes: int
    max_branch_nodes: int  # largest node count spent on a single subset


@dataclass(frozen=True)
class SolveResult:
    answer: bool
    witness: Matching | None
    t: int
    r: int | None  # budget on the kernel; None when the kernel decided alone
    stats: SolveStats
    kernel: KernelResult


class _Context:
    """Kernel facts shared across all subsets, read from the kernel instance and its target k."""

    def __init__(self, kernel: Instance, k: int):
        self.inst = kernel
        self.k = k
        # Women no selected man may take: the happy pairs' women.
        happy_women = {w for _, w in kernel.happy_pairs}
        self.happy_taken = [w in happy_women for w in range(len(kernel.women))]
        # Per man index: the women strictly worse than his man-optimal
        # partner as (rank offset, woman index), best first: the tables are
        # in rank order and a person's ranks are distinct.
        self.worse: list[list[tuple[int, int]]] = []
        for table, anchor_w in zip(kernel.m_rank, kernel.mu_m.by_man):
            anchor = table[anchor_w] if anchor_w >= 0 else None
            self.worse.append(
                [] if anchor is None else [(r - anchor, w) for w, r in table.items() if r > anchor]
            )
        # Unpruned subtree sizes by (men from a depth on, budget left).  Offsets are
        # distinct and positive, so the cut to r candidates drops none within budget.
        self.sizes: dict[tuple[tuple[int, ...], int], int] = {}


def _iter_certificates(ctx: _Context, m_prime, r: int, counter: list[int], taken=None):
    """Yield every assignment of the selected men with total offset at most r.

    ``m_prime`` is a tuple of man indices; each assignment comes out as
    (the woman index of each selected man, the total offset).
    ``counter[0]`` counts the search nodes.  Given ``taken``, a
    per-woman-index flag list, a man is never given a taken woman and
    each woman he is given is taken until the search backtracks; the
    assignments yielded are then exactly the injective ones, and
    ``counter`` still receives, for each skipped branch, the nodes the
    unpruned search would have visited in it.
    """
    depth = len(m_prime)
    cands = [ctx.worse[m][:r] for m in m_prime]
    chosen = [0] * depth
    suffixes = [m_prime[i:] for i in range(depth + 1)]
    sizes = ctx.sizes

    def size(i: int, remaining: int) -> int:
        """Nodes of the unpruned subtree at depth i with this budget left."""
        key = (suffixes[i], remaining)
        if key not in sizes:
            n = 1
            if i < depth:
                for offset, _ in cands[i]:
                    if offset > remaining:
                        break
                    n += size(i + 1, remaining - offset)
            sizes[key] = n
        return sizes[key]

    def descend(i: int, remaining: int):
        counter[0] += 1
        if i == depth:
            yield tuple(chosen), r - remaining
            return
        for offset, w in cands[i]:
            if offset > remaining:
                break
            if taken is None:
                chosen[i] = w
                yield from descend(i + 1, remaining - offset)
            elif taken[w]:
                counter[0] += size(i + 1, remaining - offset)
            else:
                chosen[i] = w
                taken[w] = True
                yield from descend(i + 1, remaining - offset)
                taken[w] = False

    if r >= 0:
        yield from descend(0, r)


def _assemble(ctx: _Context, m_prime, women) -> list[int] | None:
    """The woman index of each man (-1 if single) in a certificate's matching, if it is accepted.

    The selected men ``m_prime`` take ``women``; every other man keeps his
    man-optimal partner.  None when two men take the same woman, when the
    women's cost exceeds k, or when some pair blocks the matching.  The
    men's cost, O_M plus the certificate's offset, is within k by the
    budget ``r = k - O_M``.
    """
    inst = ctx.inst
    by_man, by_woman = list(inst.mu_m.by_man), list(inst.mu_m.by_woman)
    for m in m_prime:
        by_woman[by_man[m]] = -1
    for m, w in zip(m_prime, women):
        if by_woman[w] >= 0:
            return None  # two men claim the same woman
        by_man[m], by_woman[w] = w, m
    women_cost = sum(inst.w_rank[w][m] for w, m in enumerate(by_woman) if m >= 0)
    if women_cost > ctx.k or any(gs._blocking(inst.m_rank, inst.w_rank, by_man, by_woman)):
        return None
    return by_man


def solve_above_min(inst: Instance, k: int) -> SolveResult:
    """Decide whether some stable matching of ``inst`` has balance at most k.

    Kernelizes first; if that does not settle the answer, tries every
    subset of the kernel's sad men in increasing cardinality and accepts on
    the first assembled stable matching within target.  The witness, when
    present, is a stable matching of the *input* instance with balance at
    most k.
    """
    kres = kernelize(inst, k)
    if kres.outcome != OUTCOME_KERNEL:
        answer = kres.outcome == TRIVIAL_YES
        return SolveResult(
            answer, kres.witness, kres.t_input, None, SolveStats(0, 0, 0), kres
        )
    kernel = kres.kernel
    ctx = _Context(kernel, kres.k)
    r = kres.k - kernel.o_m
    subsets = 0
    nodes_total = 0
    nodes_max = 0
    if r >= 0:
        sad = kernel.sad_men
        for size in range(len(sad) + 1):
            for m_prime in combinations(sad, size):
                subsets += 1
                counter = [0]
                hit = None
                # ... and the man-optimal partners of the unselected sad men.
                taken = ctx.happy_taken.copy()
                for m in sad:
                    if m not in m_prime:
                        taken[kernel.mu_m.by_man[m]] = True
                for women, _ in _iter_certificates(ctx, m_prime, r, counter, taken):
                    hit = _assemble(ctx, m_prime, women)
                    if hit is not None:
                        break
                nodes_total += counter[0]
                nodes_max = max(nodes_max, counter[0])
                if hit is not None:
                    stats = SolveStats(subsets, nodes_total, nodes_max)
                    return SolveResult(
                        True, kres.lift(kernel.matching_from_arrays(hit)), kres.t_input, r, stats, kres
                    )
    stats = SolveStats(subsets, nodes_total, nodes_max)
    return SolveResult(False, None, kres.t_input, r, stats, kres)


def minimal_balance(inst: Instance) -> tuple[int, SolveResult, int]:
    """The least balance of a stable matching of ``inst``, by binary search over k.

    No stable matching has balance below max(O_M, O_W), and μ_M's balance,
    max(O_M, the women's cost of μ_M), is attained; the search runs
    between the two.  Returns the least balance, the decision at it, whose
    witness has that balance, and the number of decisions made.
    """
    women_cost = sum(inst.w_rank[w][m] for w, m in enumerate(inst.mu_m.by_woman) if m >= 0)
    low, high = max(inst.o_m, inst.o_w), max(inst.o_m, women_cost)
    decisions = 0
    while low < high:
        mid = (low + high) // 2
        decisions += 1
        if solve_above_min(inst, mid).answer:
            high = mid
        else:
            low = mid + 1
    return low, solve_above_min(inst, low), decisions + 1
