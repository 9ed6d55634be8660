"""Single-exponential decision procedure for the above-minimum balance question.

Both extreme stable matchings, μ_M and μ_W, are stable, so when either
one's balance is at most k the answer is yes and that matching is the
witness: the solver returns it before it kernelizes, μ_M first.  Only
when k is below both balances does it kernelize and branch.

After kernelization the search space is tiny: pick the subset of sad men
that will be moved off their man-optimal partners, enumerate for each of
them a strictly worse partner under a shared rank-increase budget
``r = k - O_M``, and keep the first implied matching that is stable with
balance at most k.  The walk patches one pair of partner arrays as it
goes, so at each leaf they hold the certificate's matching, and
``_accept`` reads it there.

The search runs on the integer tables and man-optimal partner arrays of
the functional kernel, before dummy insertion, and makes people only for
the witness it lifts.  The padded kernel would give the same search.
Every stable matching of it holds the t dummy pairs, so both side costs
and k rise by t, and r and every rank comparison stay.  A dummy woman is
matched to her dummy man in μ_M and ranks him first: the walk skips her
without a node, she never blocks, and she adds only dummy men, never sad,
to start sets; they hold no bit in its mask.  Claim sets hold sad men
only, so they stay.  The dummies come after the real people, so the sad
men and the subset order are the same.

A person is *fixed* on a branch once their partner in every certificate
below it is known: the happy pairs, the unselected sad men with their
man-optimal partners, and the men given a woman earlier on the branch
with those women.  A woman whose man-optimal partner was selected is
free until the leaf.  The search never gives man m woman w when

- w is fixed: no certificate below is a matching;
- (m, w) already makes a blocking pair with a fixed person: a fixed woman
  whom m ranks between his man-optimal partner and w and who prefers m to
  her partner, or a fixed man whom w prefers to m and who prefers w to
  his partner.  That pair blocks every matching below (the
  partial-stability cut).

No fixed woman whom m ranks at or above his man-optimal partner prefers
him to her partner, so the search looks for none.  At the kernel's
fixpoint everyone is matched in μ_M (restrict_matched) and every woman
ranks her μ_M partner, her worst stable one, last (clean_suffix).  One
fixed at her μ_M partner would block μ_M with m.  A woman w given
earlier on the branch, to m2, was free, so her μ_M husband h is selected
and she ranks m2 above h; were m above m2, w would not be μ_M(m), and
(m, w) would block μ_M.  On the padded kernel a dummy woman is never
free and every real woman still ranks her μ_M partner last.  So every
leaf the walk reaches on a kernel is stable: a man who prefers w to his
leaf partner was a fixed rival when w was given, or met her fixed, above
his man-optimal partner or in his candidate loop.  ``_accept`` still
scans each leaf for a blocking pair, as the witness's self-check.

Each skip drops only certificates that imply no stable matching, so the
certificates left come in the unpruned order and the first accepted one,
the witness, is the unpruned search's.  ``SolveStats`` counts the
subsets the solver walks and the nodes it visits in them, never more
than the unpruned tree has, so the ``4 * 2**r`` bound per subset holds.

Most subsets are never walked (Gusfield & Irving 1989, *The Stable
Marriage Problem: Structure and Algorithms*).  Two tests read each
selected man m against the whole selection; when either fails for any
selected man, the subset has no accepted certificate.  ``_live`` yields
the subsets that pass both, one cardinality at a time, by a walk over the
sad men that never extends a selection in which some selected man's test
can no longer pass, and the solver walks only those, in the order of the
subset loop, and stops pulling at its first accepted certificate.  A cut
subset is never walked and never counted.

- *Start set.*  At the root no woman has been given yet, so a woman whose
  μ_M husband is not selected is fixed: m's walk skips her, or stops at
  her when she prefers m to her husband.  His start set holds the μ_M
  husbands of the women he meets in that walk within the budget, up to
  and including the first who stops it.  When it holds no selected man,
  the walk meets no free woman.  That holds wherever m stands on the
  branch: a deeper walk has a budget of at most r, so it walks a prefix
  of the root walk, and a woman given earlier on the branch had a
  selected husband in μ_M, so she is not in that prefix.  A man whose
  walk meets a woman single in μ_M has no start set and is never cut by
  this test.
- *Claim.*  Every woman of the kernel is matched in every stable matching
  (the Rural Hospitals theorem), and every woman weakly prefers any
  stable matching to μ_M.  So a stable matching that moves m off his μ_M
  partner w0 gives her a man she prefers to m.  That man has left his own
  μ_M partner, so he is selected, and he ranks w0 below that partner
  within the budget.  m's claimers are the sad men who meet these terms.
  When none of them is selected, every certificate leaves w0 single or
  with a man she likes less than m, so (m, w0) blocks its matching.

Decisions on one instance at several k share what reads no k, kept in
the instance's store (``Instance._store``, filled by ``kernel._keep``)
as the kernel's k-free rule outcomes are: per functional kernel its
worse tables and each sad man's claimers and start set (his needs) read
at r = ∞.  A kernel also keeps the list of its live subsets, once some
decision on it has walked them all without an accepted certificate; a
decision walks that list, and without one a fresh ``_live``, so the
subsets, their order and the stats are those of a walk from scratch.
The needs at r = ∞ are those at r on every kernel ``kernelize`` returns,
and safe at any budget:

- *Equality.*  Truncate is at its fixpoint on a returned kernel: no man
  keeps a partner more than r ranks below his μ_M partner.  Shrink lowers
  k and O_M together, so r is the budget truncate cut at.  Every claimer
  and start-set offset lies within r, so the needs at r are those at ∞.
- *Safety.*  At a budget r that binds, a claim set at ∞ holds the one at
  r, and a start set at ∞ holds the one at r or is None (the walk goes on
  to a single woman).  A selection that meets the needs at r meets those
  at ∞, so they cut no subset the needs at r keep.

``minimal_balance`` turns the decision into the least balance by binary
search over k; ``bsm solve --optimize`` prints what it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gs
from .instance import Instance, Matching, Partners, cost
from .kernel import OUTCOME_KERNEL, TRIVIAL_YES, KernelResult, _keep, kernelize, require_lists


@dataclass(frozen=True)
class SolveStats:
    """Work of the branching step, up to the first accepted certificate:
    ``subsets_tried`` counts the subsets walked and ``branch_nodes`` the
    search nodes visited in them."""

    subsets_tried: int
    branch_nodes: int
    max_branch_nodes: int  # largest node count spent on a single subset


@dataclass(frozen=True)
class SolveResult:
    answer: bool
    witness: Matching | None
    t: int
    # Budget on the kernel; None when an extreme matching or the kernel decided alone.
    r: int | None
    stats: SolveStats
    kernel: KernelResult | None  # None when an extreme matching decided: nothing was kernelized


class _Context:
    """Kernel facts shared across all subsets, read from the functional
    kernel and its target k, and the partner arrays the search patches per
    subset.  A padded kernel and its k give the same search (module docstring).

    The tables (worse, needs) come from ``_tables``, made once per
    kernel and kept with it; only the budget r reads k.
    """

    def __init__(self, kernel: Instance, k: int):
        self.inst = kernel
        self.k = k
        self.r = k - kernel.o_m
        self.worse, self.needs = _keep(kernel, _tables)
        # Each fixed person's partner, -1 for everyone else.  Between subsets
        # that is μ_M: every man it matches is happy or sad.  At a leaf they
        # hold the certificate's matching, which ``_accept`` reads.
        self.wife = list(kernel.mu_m.by_man)
        self.husband = list(kernel.mu_m.by_woman)


def _tables(kernel: Instance):
    """The branching tables of a kernel, which read no k: (worse, needs).

    Per man index, ``worse`` holds the women strictly worse than his
    man-optimal partner as (rank offset, woman index), best first: the
    tables are in rank order and a person's ranks are distinct.  Per sad
    man, in the order of ``sad_men``, ``needs`` holds the sad men who can
    claim his man-optimal partner, then his start set if he has one
    (module docstring), each read at r = ∞ as a mask in which sad man i
    holds bit i.
    """
    worse: list[list[tuple[int, int]]] = []
    for table, anchor in zip(kernel.m_rank, kernel.mu_m.by_man):
        rank = table[anchor] if anchor >= 0 else 0
        worse.append([] if anchor < 0 else [(r - rank, w) for w, r in table.items() if r > rank])
    w_rank, husband = kernel.w_rank, kernel.mu_m.by_woman
    bit = {m: 1 << i for i, m in enumerate(kernel.sad_men)}
    needs = []
    for m in kernel.sad_men:
        # His claimers: the sad men whom his man-optimal partner w0 prefers to
        # him.  μ_M is stable, so each ranks w0 below his own partner.  A sad
        # man is matched in μ_M, as in every stable matching.
        ranks = w_rank[kernel.mu_m.by_man[m]]
        mine = ranks[m]
        claim = 0
        for m2, rank in ranks.items():
            if rank >= mine:
                break
            claim |= bit.get(m2, 0)
        # His start set: the μ_M husbands of the women he meets at the root,
        # up to the first who prefers him to hers; None if one is single.
        start = 0
        for _, w in worse[m]:
            h = husband[w]
            if h < 0:
                start = None
                break
            start |= bit.get(h, 0)
            if w_rank[w][m] < w_rank[w][h]:
                break
        needs.append([claim] if start is None else [claim, start])
    return worse, needs


def _live(needs):
    """The subsets of the sad men in which every selected man's ``needs``
    (a ``_Context``'s, one list of masks per sad man) meet the selection,
    as masks (sad man i holds bit i), in the subset loop's order: by
    cardinality, and within one, in ``combinations`` order.

    A walk adds men in index order, one cardinality per level, and yields
    each live subset as it reaches it.  Expanding a level's selections in
    order, each by its men in index order, reaches the next level in
    ``combinations`` order.  It never adds a man past the last man of a
    need that no selected man meets yet, and never adds a man whose own
    unmet need has no later man: no subset below such a step is live.  It
    builds a level only when the one before is used up, so a caller that
    stops early builds little.
    """
    s = len(needs)
    yield 0
    # Each selection that may grow: its mask, the needs of its men that it
    # misses, and the man from whom on the one whose last man comes first
    # can no longer be met.
    level = [(0, (), s)]
    while level:
        grown_level = []
        for chosen, unmet, stop in level:
            for i in range(chosen.bit_length(), stop):
                bit = 1 << i
                grown = chosen | bit
                left = [need for need in unmet if not need & bit] if unmet else []
                for need in needs[i]:
                    if not need & grown:
                        left.append(need)
                if not left:
                    yield grown
                    if i + 1 < s:
                        grown_level.append((grown, left, s))
                elif (end := min(left).bit_length()) > i + 1:
                    grown_level.append((grown, left, end))
        level = grown_level


def _first_accepted(ctx: _Context, m_prime) -> tuple[list[int] | None, int]:
    """The matching of the first certificate of ``m_prime`` that ``_accept``
    accepts, or None, with the number of search nodes visited up to it.

    ``m_prime`` is a tuple of sad man indices, each given a strictly worse
    woman within the shared budget ``ctx.r``.
    """
    inst = ctx.inst
    m_rank, w_rank = inst.m_rank, inst.w_rank
    wife, husband = ctx.wife, ctx.husband
    depth = len(m_prime)
    cands = [ctx.worse[m] for m in m_prime]
    nodes = 0

    def descend(i: int, remaining: int) -> list[int] | None:
        nonlocal nodes
        nodes += 1
        if i == depth:
            return _accept(ctx)
        m = m_prime[i]
        for offset, w in cands[i]:
            if offset > remaining:
                break
            h = husband[w]
            if h >= 0:
                if w_rank[w][m] < w_rank[w][h]:
                    break  # (m, w) blocks: so does every woman m ranks lower
                continue
            # A fixed man whom w prefers to m, and who prefers w to his partner.
            # The scan stops at m himself at the latest.
            ranks = w_rank[w]
            mine = ranks[m]
            for rival, rank in ranks.items():
                if rank >= mine:
                    break
                f = wife[rival]
                if f >= 0 and m_rank[rival][w] < m_rank[rival][f]:
                    break
            if rank < mine:
                continue
            wife[m], husband[w] = w, m
            hit = descend(i + 1, remaining - offset)
            wife[m], husband[w] = -1, -1
            if hit is not None:
                return hit
        return None

    mu = inst.mu_m.by_man
    for m in m_prime:
        husband[mu[m]] = wife[m] = -1
    hit = descend(0, ctx.r)
    # ``descend`` reaches itself through its closure; unbound, it and the
    # context it reads are freed at once, not left to the cyclic collector.
    del descend
    for m in m_prime:
        wife[m], husband[mu[m]] = mu[m], m
    return hit, nodes


def _accept(ctx: _Context) -> list[int] | None:
    """The woman index of each man (-1 if single) in the matching that the
    context's partner arrays hold at a leaf, if it is accepted.

    At a leaf every man holds his certificate woman or his man-optimal
    partner, and the walk never gives a woman who is taken, so the arrays
    are a matching.  None when the women's cost exceeds k or some pair
    blocks it (none does on a kernel).  The men's cost, O_M plus the
    certificate's offset, is within k by the budget ``r = k - O_M``.
    """
    inst = ctx.inst
    wife, husband = ctx.wife, ctx.husband
    if cost(inst.w_rank, husband) > ctx.k or any(gs._blocking(inst.m_rank, inst.w_rank, wife, husband)):
        return None
    return list(wife)


def _balance(inst: Instance, mu: Partners) -> int:
    """The balance of the matching ``mu``, the larger of its two sides' costs."""
    return max(cost(inst.m_rank, mu.by_man), cost(inst.w_rank, mu.by_woman))


def solve_above_min(inst: Instance, k: int) -> SolveResult:
    """Decide whether some stable matching of ``inst`` has balance at most k.

    Answers yes with μ_M, else μ_W, when its balance is at most k; such a
    result has no kernel, ``r`` None and zero stats.  Otherwise decides on
    the kernel (``_solve_on_kernel``).  The witness, when present, is a
    stable matching of the *input* instance with balance at most k.
    Input with gaps in its ranks raises ``ValidationError`` either way.
    """
    require_lists(inst)
    for mu in inst.mu_m, inst.mu_w:
        if _balance(inst, mu) <= k:
            witness = inst.matching_from_arrays(mu.by_man)
            t = k - min(inst.o_m, inst.o_w)
            return SolveResult(True, witness, t, None, SolveStats(0, 0, 0), None)
    return _solve_on_kernel(inst, k)


def _solve_on_kernel(inst: Instance, k: int) -> SolveResult:
    """``solve_above_min`` without the extreme matchings: the paper's procedure.

    Kernelizes first; if that does not settle the answer, tries every
    subset of the functional kernel's sad men in increasing cardinality and
    accepts the first certificate whose matching is stable within target.  Only
    the subsets ``_live`` yields are walked, and the stats count only those.
    They are read from the kernel's kept list when an earlier decision has
    listed them all (module docstring), else from a fresh ``_live``.  No
    dummy is added.
    """
    kres = kernelize(inst, k)
    if kres.outcome != OUTCOME_KERNEL:
        answer = kres.outcome == TRIVIAL_YES
        return SolveResult(
            answer, kres.witness, kres.t_input, None, SolveStats(0, 0, 0), kres
        )
    kernel = kres.functional
    ctx = _Context(kernel, kres.functional_k)
    # The list is kept, under this function, only when the loop runs out: a
    # walk that a yes or an exception stops early keeps nothing.
    store = kernel._store
    listed = store.get(_solve_on_kernel)
    masks = []
    sad = kernel.sad_men
    walked = []  # the nodes visited in each subset walked
    hit = None
    for subset in _live(ctx.needs) if listed is None else listed:
        masks.append(subset)
        hit, nodes = _first_accepted(ctx, tuple(m for i, m in enumerate(sad) if subset >> i & 1))
        walked.append(nodes)
        if hit is not None:
            break
    else:
        store[_solve_on_kernel] = masks
    stats = SolveStats(len(walked), sum(walked), max(walked, default=0))
    if hit is None:
        return SolveResult(False, None, kres.t_input, ctx.r, stats, kres)
    witness = kres.lift(kernel.matching_from_arrays(hit))
    return SolveResult(True, witness, kres.t_input, ctx.r, stats, kres)


def minimal_balance(inst: Instance) -> tuple[int, SolveResult, int]:
    """The least balance of a stable matching of ``inst``, by binary search over k.

    No stable matching has balance below max(O_M, O_W), and the lower of
    μ_M's and μ_W's balances is attained; the search runs between the two.
    Returns the least balance, the decision at it, whose witness has that
    balance, and the number of decisions made.  The decision at the least
    balance is the search's last yes; only when the search never decided
    that k is it decided at the end.
    """
    low = max(inst.o_m, inst.o_w)
    high = min(_balance(inst, inst.mu_m), _balance(inst, inst.mu_w))
    decisions = 0
    last_yes = None
    while low < high:
        mid = (low + high) // 2
        decisions += 1
        result = solve_above_min(inst, mid)
        if result.answer:
            high, last_yes = mid, result
        else:
            low = mid + 1
    if last_yes is None:
        last_yes, decisions = solve_above_min(inst, low), decisions + 1
    return low, last_yes, decisions
