"""Shrinking an above-minimum balance question to a size bounded by its parameter.

The pipeline reads a list-form instance as a functional one, applies eight
reduction rules exhaustively in a fixed order (restarting from the first
rule after every change), then pads the result with mutually-first dummy
pairs that fill the gaps left in the rank images, and finally reads the
gap-free functions back as preference lists.  Every step preserves the
answer and never increases the parameter ``t = k - min(O_M, O_W)``; the
trace records each application with the parameter before and after.

Clean-suffix drops, happy-pair removals and shrink shifts leave both
stable optima in place (shrinking lowers both costs by one per shift), so
the pipeline applies each of those three rules as one batch with a single
rebuild; the batch makes the same changes, in the same order and with the
same trace, as restarting after every single application would.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import gs
from .instance import (
    MAN,
    WOMAN,
    Instance,
    Matching,
    Person,
    functional_to_lists,
    make_instance,
    to_functional,
    with_target,
)

CONTINUE = "continue"
TRIVIAL_YES = "yes"
TRIVIAL_NO = "no"

OUTCOME_KERNEL = "kernel"


class NoSadPerson(RuntimeError):
    """A happy pair was removed while no sad person exists to absorb its cost."""


class DummyExhausted(RuntimeError):
    """Internal invariant failure: more gaps than available dummy partners."""


class OptimaMoved(RuntimeError):
    """Internal invariant failure: a batched rule moved a stable optimum."""


@dataclass(frozen=True)
class KernelState:
    """A functional instance under reduction, with its target and cached optima."""

    inst: Instance
    k: int
    optima: gs.Optima
    sad_men: tuple[Person, ...]
    sad_women: tuple[Person, ...]
    happy_pairs: tuple[tuple[Person, Person], ...]

    @property
    def t(self) -> int:
        return self.k - min(self.optima.o_m, self.optima.o_w)

    @staticmethod
    def make(inst: Instance, k: int) -> "KernelState":
        opt = gs.optima(inst)
        by_man_m = opt.mu_m.by_man
        by_man_w = opt.mu_w.by_man
        by_woman_m = opt.mu_m.by_woman
        by_woman_w = opt.mu_w.by_woman
        sad_men = tuple(m for m in inst.men if by_man_m.get(m) != by_man_w.get(m))
        sad_women = tuple(w for w in inst.women if by_woman_m.get(w) != by_woman_w.get(w))
        happy = tuple(
            (m, by_man_m[m])
            for m in inst.men
            if m in by_man_m and by_man_m[m] == by_man_w.get(m)
        )
        return KernelState(inst, k, opt, sad_men, sad_women, happy)


@dataclass(frozen=True)
class TraceStep:
    rule: str
    affected: tuple[Person, ...]
    k_before: int
    k_after: int
    t_before: int
    t_after: int


@dataclass(frozen=True)
class KernelTrace:
    steps: tuple[TraceStep, ...]
    outcome: str  # "reduced" | "yes" | "no"


@dataclass(frozen=True)
class KernelResult:
    """Outcome of the full pipeline plus everything needed to audit it.

    For outcome "kernel", ``kernel`` is a list-form instance carrying the
    new target both in ``k`` and in ``kernel.target_k``; ``functional``
    holds the reduced instance before dummy insertion.  ``witness`` is set
    for outcome "yes" and lives in the *input* instance.  ``lift`` maps any
    matching of the kernel back to the input instance.  ``state`` is the
    padded functional state the kernel was read from, with its optima and
    its sad and happy people; it is None unless the outcome is "kernel".
    """

    outcome: str
    kernel: Instance | None
    k: int | None
    trace: KernelTrace
    t_input: int
    witness: Matching | None
    functional: Instance | None
    functional_k: int | None
    removed_happy: tuple[tuple[Person, Person], ...]
    dummy_men: tuple[Person, ...]
    dummy_women: tuple[Person, ...]
    state: KernelState | None = None

    def lift(self, matching: Matching) -> Matching:
        dummies = set(self.dummy_men) | set(self.dummy_women)
        kept = [
            (m, w) for m, w in matching.pairs if m not in dummies and w not in dummies
        ]
        return Matching.of(kept + list(self.removed_happy))


# --- individual rules -------------------------------------------------------

def _rebuild(st: KernelState, men, women, ranks, k=None) -> KernelState:
    inst = make_instance(men, women, ranks, None, validate=False)
    return KernelState.make(inst, st.k if k is None else k)


def _drop_pair(ranks, a: Person, b: Person):
    new = dict(ranks)
    ta = dict(new[a])
    del ta[b]
    new[a] = ta
    tb = dict(new[b])
    del tb[a]
    new[b] = tb
    return new


def rr1_bound_check(st: KernelState) -> str:
    """No stable matching can beat both optima, so a target below their max fails."""
    return TRIVIAL_NO if st.k < max(st.optima.o_m, st.optima.o_w) else CONTINUE


def _find_suffix_removal(st: KernelState):
    ranks = st.inst.prefs.ranks
    worst_partner_bound = {
        MAN: st.optima.mu_w.by_man,
        WOMAN: st.optima.mu_m.by_woman,
    }
    for a in st.inst.people:
        table = ranks[a]
        if not table:
            continue
        anchor = worst_partner_bound[a.side].get(a)
        if anchor is None:
            continue
        worst = max(table, key=table.get)
        if table[worst] > table[anchor]:
            return a, worst
    return None


def rr2_clean_suffix(st: KernelState) -> KernelState | None:
    """Drop a person's worst partner when ranked beyond their worst stable partner.

    Men are bounded by their woman-optimal partner, women by their
    man-optimal partner; no stable matching uses such a pair, so the
    stable set and both optima are untouched.
    """
    hit = _find_suffix_removal(st)
    if hit is None:
        return None
    a, b = hit
    ranks = _drop_pair(st.inst.prefs.ranks, a, b)
    return _rebuild(st, st.inst.men, st.inst.women, ranks)


def _rr2_batch(st: KernelState):
    """Every drop that repeating ``rr2_clean_suffix`` makes, with one rebuild.

    The anchors are the optima, which no drop moves, so one pass over the
    people in instance order, each dropping partners beyond their anchor
    worst first, makes the same drops in the same order.
    """
    ranks = dict(st.inst.prefs.ranks)
    anchors = {MAN: st.optima.mu_w.by_man, WOMAN: st.optima.mu_m.by_woman}
    copied: set[Person] = set()
    drops: list[tuple[Person, Person]] = []
    for a in st.inst.people:
        anchor = anchors[a.side].get(a)
        if anchor is None:
            continue
        table = ranks[a]
        limit = table[anchor]
        beyond = sorted((b for b, r in table.items() if r > limit), key=table.get, reverse=True)
        for b in beyond:
            for owner, partner in ((a, b), (b, a)):
                if owner not in copied:
                    ranks[owner] = dict(ranks[owner])
                    copied.add(owner)
                del ranks[owner][partner]
            drops.append((a, b))
    if not drops:
        return None
    nxt = _rebuild(st, st.inst.men, st.inst.women, ranks)
    if nxt.optima != st.optima:
        raise OptimaMoved("clean-suffix drops changed the stable optima")
    return nxt, drops


def rr3_restrict_to_matched(st: KernelState) -> KernelState | None:
    """Restrict to the people matched by every stable matching."""
    matched = set(st.optima.mu_m.by_man) | set(st.optima.mu_m.by_woman)
    if len(matched) == len(st.inst.people):
        return None
    men = tuple(m for m in st.inst.men if m in matched)
    women = tuple(w for w in st.inst.women if w in matched)
    ranks = {
        p: {q: r for q, r in st.inst.prefs.ranks[p].items() if q in matched}
        for p in men + women
    }
    return _rebuild(st, men, women, ranks)


def rr4_bound_sad(st: KernelState) -> str:
    """More than 2t sad people on one side already forces the answer to be no."""
    bound = 2 * st.t
    if len(st.sad_men) > bound or len(st.sad_women) > bound:
        return TRIVIAL_NO
    return CONTINUE


def rr5_no_sad(st: KernelState) -> str | None:
    """With no sad people the man-optimal matching is the only stable one."""
    if st.sad_men or st.sad_women:
        return None
    bal = gs.objectives(st.inst, st.optima.mu_m).balance
    return TRIVIAL_YES if bal <= st.k else TRIVIAL_NO


def _rr6(st: KernelState):
    if not st.happy_pairs:
        return None
    m_h, w_h = st.happy_pairs[0]
    if not st.sad_men or not st.sad_women:
        raise NoSadPerson(f"cannot transfer the cost of ({m_h}, {w_h})")
    m_s = st.sad_men[0]
    w_s = st.sad_women[0]
    ranks = st.inst.prefs.ranks
    shift_m = ranks[m_h][w_h]
    shift_w = ranks[w_h][m_h]
    removed = {m_h, w_h}
    new_ranks = {}
    for p, table in ranks.items():
        if p in removed:
            continue
        if removed & table.keys():
            table = {q: r for q, r in table.items() if q not in removed}
        if p == m_s:
            table = {q: r + shift_m for q, r in table.items()}
        elif p == w_s:
            table = {q: r + shift_w for q, r in table.items()}
        new_ranks[p] = table
    men = tuple(m for m in st.inst.men if m != m_h)
    women = tuple(w for w in st.inst.women if w != w_h)
    return _rebuild(st, men, women, new_ranks), (m_h, w_h, m_s, w_s)


def rr6_remove_happy_pair(st: KernelState) -> KernelState | None:
    """Remove one happy pair, moving its two rank contributions onto sad people.

    The first happy pair in canonical order is removed; its ranks are added
    to every rank of the first sad man and the first sad woman, so every
    stable matching keeps the same balance while the instance shrinks.
    """
    hit = _rr6(st)
    return None if hit is None else hit[0]


def _rr6_batch(st: KernelState):
    """Every removal that repeating ``rr6_remove_happy_pair`` makes, with one rebuild.

    A removal keeps k, t, the sad people and the order of the other happy
    pairs, so every pair moves its cost onto the same first sad man and
    first sad woman; their shifts add up.
    """
    happy = st.happy_pairs
    if not happy:
        return None
    if not st.sad_men or not st.sad_women:
        m_h, w_h = happy[0]
        raise NoSadPerson(f"cannot transfer the cost of ({m_h}, {w_h})")
    m_s = st.sad_men[0]
    w_s = st.sad_women[0]
    ranks = st.inst.prefs.ranks
    shift_m = sum(ranks[m][w] for m, w in happy)
    shift_w = sum(ranks[w][m] for m, w in happy)
    removed = {p for pair in happy for p in pair}
    new_ranks = {}
    for p, table in ranks.items():
        if p in removed:
            continue
        if removed & table.keys():
            table = {q: r for q, r in table.items() if q not in removed}
        if p == m_s:
            table = {q: r + shift_m for q, r in table.items()}
        elif p == w_s:
            table = {q: r + shift_w for q, r in table.items()}
        new_ranks[p] = table
    men = tuple(m for m in st.inst.men if m not in removed)
    women = tuple(w for w in st.inst.women if w not in removed)
    nxt = _rebuild(st, men, women, new_ranks)
    before, after = st.optima, nxt.optima
    if (
        (after.o_m, after.o_w) != (before.o_m, before.o_w)
        or after.mu_m.pairs != before.mu_m.pairs - set(happy)
        or after.mu_w.pairs != before.mu_w.pairs - set(happy)
    ):
        raise OptimaMoved("happy-pair removals changed the stable optima")
    return nxt, [(m_h, w_h, m_s, w_s) for m_h, w_h in happy]


def _find_overranked_pair(st: KernelState):
    ranks = st.inst.prefs.ranks
    slack_m = st.k - st.optima.o_m
    by_man = st.optima.mu_m.by_man
    for m in st.inst.men:
        anchor = by_man.get(m)
        if anchor is None:
            continue
        limit = slack_m + ranks[m][anchor]
        over = [(r, w) for w, r in ranks[m].items() if r > limit]
        if over:
            return m, min(over)[1]
    slack_w = st.k - st.optima.o_w
    by_woman = st.optima.mu_w.by_woman
    for w in st.inst.women:
        anchor = by_woman.get(w)
        if anchor is None:
            continue
        limit = slack_w + ranks[w][anchor]
        over = [(r, m) for m, r in ranks[w].items() if r > limit]
        if over:
            return w, min(over)[1]
    return None


def _rr7(st: KernelState):
    hit = _find_overranked_pair(st)
    if hit is None:
        return None
    a, b = hit
    ranks = _drop_pair(st.inst.prefs.ranks, a, b)
    return _rebuild(st, st.inst.men, st.inst.women, ranks), hit


def rr7_truncate(st: KernelState) -> KernelState | None:
    """Delete one pair too far beyond its owner's optimal partner to fit under k."""
    hit = _rr7(st)
    return None if hit is None else hit[0]


def _rr8(st: KernelState):
    ranks = st.inst.prefs.ranks
    by_man = st.optima.mu_m.by_man
    by_woman = st.optima.mu_w.by_woman
    man = next(
        (m for m in st.inst.men if m in by_man and ranks[m][by_man[m]] > 1), None
    )
    woman = next(
        (w for w in st.inst.women if w in by_woman and ranks[w][by_woman[w]] > 1), None
    )
    if man is None or woman is None:
        return None
    new_ranks = dict(ranks)
    new_ranks[man] = {q: r - 1 for q, r in ranks[man].items()}
    new_ranks[woman] = {q: r - 1 for q, r in ranks[woman].items()}
    return _rebuild(st, st.inst.men, st.inst.women, new_ranks, k=st.k - 1), (man, woman)


def rr8_shrink(st: KernelState) -> KernelState | None:
    """Shift one man's and one woman's whole rank function down by 1, and k with them."""
    hit = _rr8(st)
    return None if hit is None else hit[0]


def _rr8_batch(st: KernelState):
    """Every shift that repeating ``rr8_shrink`` makes, with one rebuild.

    A shift moves no optimum pair, slack, sad or happy person, so no
    earlier rule can fire between two shifts and each one goes to the first
    man and the first woman whose optimal partner still ranks above 1.
    Returns the next state and one (man, woman) per unit shift.
    """
    ranks = st.inst.prefs.ranks
    by_man = st.optima.mu_m.by_man
    by_woman = st.optima.mu_w.by_woman
    # One entry per unit of excess rank of each optimal partner, in order.
    man_units = [
        m for m in st.inst.men if m in by_man for _ in range(ranks[m][by_man[m]] - 1)
    ]
    woman_units = [
        w for w in st.inst.women if w in by_woman for _ in range(ranks[w][by_woman[w]] - 1)
    ]
    steps = list(zip(man_units, woman_units))
    if not steps:
        return None
    shift = Counter(p for pair in steps for p in pair)
    new_ranks = dict(ranks)
    for p, d in shift.items():
        new_ranks[p] = {q: r - d for q, r in ranks[p].items()}
    total = len(steps)
    nxt = _rebuild(st, st.inst.men, st.inst.women, new_ranks, k=st.k - total)
    before, after = st.optima, nxt.optima
    if (
        (after.o_m, after.o_w) != (before.o_m - total, before.o_w - total)
        or after.mu_m != before.mu_m
        or after.mu_w != before.mu_w
    ):
        raise OptimaMoved("shrink shifts changed the stable optima")
    return nxt, steps


# --- dummy insertion --------------------------------------------------------

def _fresh(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    taken.add(name)
    return name


def _gaps(table: dict[Person, int]) -> list[int]:
    if not table:
        return []
    image = set(table.values())
    return [i for i in range(1, max(image)) if i not in image]


def _fill_gaps_impl(st: KernelState):
    t = st.t
    steps: list[TraceStep] = []
    original_men = st.inst.men
    original_women = st.inst.women
    taken = {p.name for p in st.inst.people}
    xs = tuple(Person(MAN, _fresh(f"x{i + 1}", taken)) for i in range(t))
    ys = tuple(Person(WOMAN, _fresh(f"y{i + 1}", taken)) for i in range(t))
    ranks = {p: dict(tbl) for p, tbl in st.inst.prefs.ranks.items()}
    k = st.k
    if t > 0:
        for x, y in zip(xs, ys):
            ranks[x] = {y: 1}
            ranks[y] = {x: 1}
        k += t
        steps.append(TraceStep("add_dummies", xs + ys, st.k, k, t, t))

    def fill(person: Person, pool) -> None:
        for gap in _gaps(ranks[person]):
            dummy = next((d for d in pool if d not in ranks[person]), None)
            if dummy is None:
                raise DummyExhausted(f"no free dummy for the gap of {person} at {gap}")
            ranks[person][dummy] = gap
            ranks[dummy][person] = max(ranks[dummy].values()) + 1
            steps.append(TraceStep("fill_gap", (person, dummy), k, k, t, t))

    for m in original_men:
        fill(m, ys)
    for w in original_women:
        fill(w, xs)

    inst = make_instance(original_men + xs, original_women + ys, ranks, None)
    new_state = KernelState.make(inst, k)
    if new_state.t != t:
        raise DummyExhausted("dummy insertion changed the parameter")
    return new_state, xs, ys, steps


def fill_gaps(st: KernelState) -> KernelState:
    """Add t mutually-first dummy pairs and use them to plug every rank gap.

    The target grows by exactly t, once; afterwards every rank image is an
    unbroken range starting at 1.
    """
    return _fill_gaps_impl(st)[0]


# --- the pipeline -----------------------------------------------------------

def _step(rule: str, affected, before: KernelState, after: KernelState) -> TraceStep:
    return TraceStep(rule, tuple(affected), before.k, after.k, before.t, after.t)


def kernelize(inst: Instance, k: int) -> KernelResult:
    """Run the whole reduction on a list-form instance.

    Returns either a trivial yes (with an input-level witness), a trivial
    no, or an equivalent list-form kernel whose people count is linear in
    the parameter.  The rules restart from the first after every change;
    clean-suffix drops, happy-pair removals and shrink shifts run as
    batches that make the same changes and trace steps as that order, with
    one rebuild each.
    """
    st = KernelState.make(to_functional(inst), k)
    t_input = st.t
    steps: list[TraceStep] = []
    removed_happy: list[tuple[Person, Person]] = []

    def finish_no() -> KernelResult:
        return KernelResult(
            TRIVIAL_NO, None, None, KernelTrace(tuple(steps), "no"), t_input,
            None, None, None, tuple(removed_happy), (), (),
        )

    while True:
        if rr1_bound_check(st) == TRIVIAL_NO:
            steps.append(_step("bound_check", (), st, st))
            return finish_no()
        hit2 = _rr2_batch(st)
        if hit2 is not None:
            nxt, drops = hit2
            steps.extend(_step("clean_suffix", pair, st, nxt) for pair in drops)
            st = nxt
            continue
        nxt = rr3_restrict_to_matched(st)
        if nxt is not None:
            kept = set(nxt.inst.people)
            gone = [p for p in st.inst.people if p not in kept]
            steps.append(_step("restrict_matched", gone, st, nxt))
            st = nxt
            continue
        if rr4_bound_sad(st) == TRIVIAL_NO:
            steps.append(_step("bound_sad", (), st, st))
            return finish_no()
        verdict = rr5_no_sad(st)
        if verdict is not None:
            steps.append(_step("no_sad", (), st, st))
            if verdict == TRIVIAL_NO:
                return finish_no()
            witness = Matching.of(set(st.optima.mu_m.pairs) | set(removed_happy))
            return KernelResult(
                TRIVIAL_YES, None, None, KernelTrace(tuple(steps), "yes"), t_input,
                witness, None, None, tuple(removed_happy), (), (),
            )
        hit6 = _rr6_batch(st)
        if hit6 is not None:
            nxt, removals = hit6
            for affected in removals:
                steps.append(_step("remove_happy_pair", affected, st, nxt))
                removed_happy.append(affected[:2])
            st = nxt
            continue
        hit7 = _rr7(st)
        if hit7 is not None:
            nxt, affected = hit7
            steps.append(_step("truncate", affected, st, nxt))
            st = nxt
            continue
        hit8 = _rr8_batch(st)
        if hit8 is not None:
            nxt, shifts = hit8
            t = st.t
            steps.extend(
                TraceStep("shrink", pair, st.k - j, st.k - j - 1, t, t)
                for j, pair in enumerate(shifts)
            )
            st = nxt
            continue
        break

    functional_state = st
    padded, xs, ys, fill_steps = _fill_gaps_impl(st)
    steps.extend(fill_steps)
    kernel_inst = with_target(functional_to_lists(padded.inst), padded.k)
    return KernelResult(
        OUTCOME_KERNEL,
        kernel_inst,
        padded.k,
        KernelTrace(tuple(steps), "reduced"),
        t_input,
        None,
        functional_state.inst,
        functional_state.k,
        tuple(removed_happy),
        xs,
        ys,
        padded,
    )
