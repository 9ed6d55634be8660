"""Shrinking an above-minimum balance question to a size bounded by its parameter.

The pipeline takes a list-form instance as a functional one and applies
the eight reduction rules of ``RULES`` exhaustively: at each round the
first rule in table order that applies fires, and the next round starts
again from the first rule.  The result is then padded with
mutually-first dummy pairs that fill the gaps left in the rank images,
and the gap-free functions are read back as preference lists.  Every
step preserves the answer and never increases the parameter
``t = k - min(O_M, O_W)``.  Entry i of the table is reduction rule i
(rr1 to rr8).

A ``KernelState`` is an instance and its target k.  The instance holds
the integer rank tables and derives from them, once, its two stable
optima, O_M, O_W and its sad and happy people; a rule that changes the
tables builds a new instance from them.  The dummies are the only
people the pipeline makes.  A rule takes a ``KernelState`` and returns None when it does
not apply.  Otherwise it returns ``(next, rows)``: ``next`` is the next
state or the verdict ``"yes"`` or ``"no"``, and ``rows`` holds, in
order, the people named by each trace row the application records.
Every row runs from the state's k and t to the next state's t; only
shrink moves k, by one per row.

Clean-suffix drops, happy-pair removals and shrink shifts leave both
stable optima in place (shrinking lowers both costs by one per shift), so
those three rules fire as one batch with a single rebuild; the batch
makes the same changes, in the same order and with the same rows, as
restarting after every single application would.  The single-step
``clean_suffix_once``, ``remove_happy_pair_once`` and ``shrink_once``
are the references the batches are tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .instance import MAN, WOMAN, Instance, Matching, Person, ValidationError

TRIVIAL_YES = "yes"
TRIVIAL_NO = "no"

OUTCOME_KERNEL = "kernel"


class NoSadPerson(RuntimeError):
    """A happy pair was removed while no sad person exists to absorb its cost."""


class DummyExhausted(RuntimeError):
    """Internal invariant failure: dummy insertion left a gap or changed t."""


class OptimaMoved(RuntimeError):
    """Internal invariant failure: a batched rule moved a stable optimum."""


@dataclass(frozen=True)
class KernelState:
    """A functional instance under reduction and its target k.

    People are numbered by position in ``inst.men`` and ``inst.women``;
    the instance's tables are never mutated.
    """

    inst: Instance
    k: int

    @property
    def t(self) -> int:
        return self.k - min(self.inst.o_m, self.inst.o_w)


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
    matching of the kernel back to the input instance.
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

    def lift(self, matching: Matching) -> Matching:
        dummies = set(self.dummy_men) | set(self.dummy_women)
        kept = [
            (m, w) for m, w in matching.pairs if m not in dummies and w not in dummies
        ]
        return Matching.of(kept + list(self.removed_happy))


# --- the rules --------------------------------------------------------------

def _sides(inst: Instance, men_anchor, women_anchor):
    """Men, then women: (own tables, anchor of each, own people, partners, owner is a woman)."""
    yield inst.m_rank, men_anchor, inst.men, inst.women, False
    yield inst.w_rank, women_anchor, inst.women, inst.men, True


def _without_pairs(st: KernelState, pairs) -> KernelState:
    """The state without the given (man, woman) pairs; only the tables they touch are copied."""
    inst = st.inst
    m_rank, w_rank = list(inst.m_rank), list(inst.w_rank)
    for tables, touched in ((m_rank, {m for m, _ in pairs}), (w_rank, {w for _, w in pairs})):
        for p in touched:
            tables[p] = dict(tables[p])
    for m, w in pairs:
        del m_rank[m][w], w_rank[w][m]
    return KernelState(Instance(inst.men, inst.women, m_rank, w_rank), st.k)


def _kept(st: KernelState, men, women, shift=(-1, 0, -1, 0)) -> KernelState:
    """The state on these men and women (indices, in order) only, renumbered.

    ``shift`` is (man, amount, woman, amount): those two rank functions rise by their amount.
    """
    inst = st.inst
    new_m, new_w = {m: i for i, m in enumerate(men)}, {w: j for j, w in enumerate(women)}
    m_s, d_m, w_s, d_w = shift
    m_rank = [{new_w[w]: r + d_m * (m == m_s) for w, r in inst.m_rank[m].items() if w in new_w} for m in men]
    w_rank = [{new_m[m]: r + d_w * (w == w_s) for m, r in inst.w_rank[w].items() if m in new_m} for w in women]
    kept = Instance(tuple(inst.men[m] for m in men), tuple(inst.women[w] for w in women), m_rank, w_rank)
    return KernelState(kept, st.k)


def bound_check(st: KernelState):
    """No stable matching can beat both optima, so a target below their max fails."""
    return (TRIVIAL_NO, [()]) if st.k < max(st.inst.o_m, st.inst.o_w) else None


def clean_suffix_once(st: KernelState):
    """Drop a person's worst partner when ranked beyond their worst stable partner.

    Men are bounded by their woman-optimal partner, women by their
    man-optimal partner; no stable matching uses such a pair, so the
    stable set and both optima are untouched.
    """
    inst = st.inst
    for tables, anchors, owners, partners, flip in _sides(inst, inst.mu_w.by_man, inst.mu_m.by_woman):
        for a, anchor in enumerate(anchors):
            worst = next(reversed(tables[a]), -1)  # tables are in rank order
            if anchor >= 0 and worst != anchor:
                pair = (worst, a) if flip else (a, worst)
                return _without_pairs(st, [pair]), [(owners[a], partners[worst])]
    return None


def clean_suffix(st: KernelState):
    """Every drop that repeating ``clean_suffix_once`` makes, with one rebuild.

    The anchors are the optima, which no drop moves, so one pass over the
    people in instance order, each dropping partners beyond their anchor
    worst first and skipping pairs already dropped, makes the same drops
    in the same order.
    """
    inst = st.inst
    drops: dict[tuple[int, int], tuple[Person, Person]] = {}  # (man, woman) -> row
    for tables, anchors, owners, partners, flip in _sides(inst, inst.mu_w.by_man, inst.mu_m.by_woman):
        for a, anchor in enumerate(anchors):
            if anchor >= 0:
                cutoff = tables[a][anchor]
                for b in reversed([b for b, r in tables[a].items() if r > cutoff]):
                    drops.setdefault((b, a) if flip else (a, b), (owners[a], partners[b]))
    if not drops:
        return None
    nxt = _without_pairs(st, drops)
    new = nxt.inst
    if (new.mu_m, new.mu_w, new.o_m, new.o_w) != (inst.mu_m, inst.mu_w, inst.o_m, inst.o_w):
        raise OptimaMoved("clean-suffix drops changed the stable optima")
    return nxt, list(drops.values())


def restrict_matched(st: KernelState):
    """Restrict to the people matched by every stable matching."""
    inst = st.inst
    men = [m for m, w in enumerate(inst.mu_m.by_man) if w >= 0]
    women = [w for w, m in enumerate(inst.mu_m.by_woman) if m >= 0]
    if len(men) == len(inst.men) and len(women) == len(inst.women):
        return None
    gone = [inst.men[m] for m, w in enumerate(inst.mu_m.by_man) if w < 0]
    gone += [inst.women[w] for w, m in enumerate(inst.mu_m.by_woman) if m < 0]
    return _kept(st, men, women), [gone]


def bound_sad(st: KernelState):
    """More than 2t sad people on one side already forces the answer to be no."""
    bound = 2 * st.t
    if len(st.inst.sad_men) > bound or len(st.inst.sad_women) > bound:
        return TRIVIAL_NO, [()]
    return None


def no_sad(st: KernelState):
    """With no sad people the man-optimal matching is the only stable one.

    It is also the woman-optimal one, so its balance is max(O_M, O_W).
    """
    inst = st.inst
    if inst.sad_men or inst.sad_women:
        return None
    return (TRIVIAL_YES if max(inst.o_m, inst.o_w) <= st.k else TRIVIAL_NO), [()]


def _remove_happy(st: KernelState, pairs):
    """Remove the given happy pairs, moving their rank contributions onto sad people.

    Every pair's ranks are added to every rank of the first sad man and
    the first sad woman, so every stable matching keeps the same balance
    while the instance shrinks.  Rows are (man, woman, sad man, sad woman).
    """
    if not pairs:
        return None
    inst = st.inst
    if not inst.sad_men or not inst.sad_women:
        m_h, w_h = pairs[0]
        raise NoSadPerson(f"cannot transfer the cost of ({inst.men[m_h]}, {inst.women[w_h]})")
    m_s, w_s = inst.sad_men[0], inst.sad_women[0]
    shift = m_s, sum(inst.m_rank[m][w] for m, w in pairs), w_s, sum(inst.w_rank[w][m] for m, w in pairs)
    gone_men, gone_women = {m for m, _ in pairs}, {w for _, w in pairs}
    men = [m for m in range(len(inst.men)) if m not in gone_men]
    women = [w for w in range(len(inst.women)) if w not in gone_women]
    rows = [(inst.men[m], inst.women[w], inst.men[m_s], inst.women[w_s]) for m, w in pairs]
    return _kept(st, men, women, shift), rows, men, women


def remove_happy_pair_once(st: KernelState):
    """Remove the first happy pair in canonical order."""
    hit = _remove_happy(st, st.inst.happy_pairs[:1])
    return None if hit is None else hit[:2]


def remove_happy_pair(st: KernelState):
    """Every removal that repeating ``remove_happy_pair_once`` makes, with one rebuild.

    A removal keeps k, t, the sad people and the order of the other happy
    pairs, so every pair moves its cost onto the same first sad man and
    first sad woman; their shifts add up.  Every other man keeps his
    partner in both optima, and a removed woman is nobody's partner.
    """
    inst = st.inst
    hit = _remove_happy(st, inst.happy_pairs)
    if hit is None:
        return None
    nxt, rows, men, women = hit
    new = nxt.inst
    new_w = {w: j for j, w in enumerate(women)} | {-1: -1}
    expect = [[new_w.get(mu.by_man[m]) for m in men] for mu in (inst.mu_m, inst.mu_w)]
    if (new.o_m, new.o_w, [new.mu_m.by_man, new.mu_w.by_man]) != (inst.o_m, inst.o_w, expect):
        raise OptimaMoved("happy-pair removals changed the stable optima")
    return nxt, rows


def truncate(st: KernelState):
    """Delete one pair too far beyond its owner's optimal partner to fit under k.

    Men are checked first against the man-optimal matching, then women
    against the woman-optimal one; the owner's best partner past the cutoff goes.
    """
    inst = st.inst
    for tables, anchors, owners, partners, flip in _sides(inst, inst.mu_m.by_man, inst.mu_w.by_woman):
        slack = st.k - (inst.o_w if flip else inst.o_m)
        for a, anchor in enumerate(anchors):
            if anchor >= 0:
                cutoff = slack + tables[a][anchor]
                b = next((b for b, r in tables[a].items() if r > cutoff), -1)  # the best, by rank order
                if b >= 0:
                    pair = (b, a) if flip else (a, b)
                    return _without_pairs(st, [pair]), [(owners[a], partners[b])]
    return None


def _shrink_units(st: KernelState) -> list[tuple[int, int]]:
    """One (man, woman) per unit shift, pairing the men's and the women's excess in order.

    Each man contributes one entry per unit by which his man-optimal
    partner ranks above 1, each woman likewise for her woman-optimal one.
    """
    inst = st.inst
    man_units = [
        m for m, w in enumerate(inst.mu_m.by_man) if w >= 0 for _ in range(inst.m_rank[m][w] - 1)
    ]
    woman_units = [
        w for w, m in enumerate(inst.mu_w.by_woman) if m >= 0 for _ in range(inst.w_rank[w][m] - 1)
    ]
    return list(zip(man_units, woman_units))


def _shift(st: KernelState, units: list[tuple[int, int]]):
    """Lower each listed person's whole rank function by one per listing, and k by one per unit."""
    if not units:
        return None
    inst = st.inst
    m_rank, w_rank = list(inst.m_rank), list(inst.w_rank)
    for tables, side_units in ((m_rank, [m for m, _ in units]), (w_rank, [w for _, w in units])):
        for p, d in Counter(side_units).items():
            tables[p] = {q: r - d for q, r in tables[p].items()}
    rows = [(inst.men[m], inst.women[w]) for m, w in units]
    return KernelState(Instance(inst.men, inst.women, m_rank, w_rank), st.k - len(units)), rows


def shrink_once(st: KernelState):
    """Shift one man's and one woman's whole rank function down by 1, and k with them."""
    return _shift(st, _shrink_units(st)[:1])


def shrink(st: KernelState):
    """Every shift that repeating ``shrink_once`` makes, with one rebuild.

    A shift moves no optimum pair, slack, sad or happy person, so no
    earlier rule can fire between two shifts and each one goes to the first
    man and the first woman whose optimal partner still ranks above 1.
    """
    hit = _shift(st, _shrink_units(st))
    if hit is None:
        return None
    total = len(hit[1])
    old, new = st.inst, hit[0].inst
    if (new.o_m, new.o_w, new.mu_m, new.mu_w) != (old.o_m - total, old.o_w - total, old.mu_m, old.mu_w):
        raise OptimaMoved("shrink shifts changed the stable optima")
    return hit


RULES = (
    ("bound_check", bound_check),
    ("clean_suffix", clean_suffix),
    ("restrict_matched", restrict_matched),
    ("bound_sad", bound_sad),
    ("no_sad", no_sad),
    ("remove_happy_pair", remove_happy_pair),
    ("truncate", truncate),
    ("shrink", shrink),
)


# --- dummy insertion --------------------------------------------------------

def _fresh(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    taken.add(name)
    return name


def _gaps(table: dict) -> list[int]:
    if not table:
        return []
    image = set(table.values())
    return [i for i in range(1, max(image)) if i not in image]


def fill_gaps(st: KernelState):
    """Add t mutually-first dummy pairs and use them to plug every rank gap.

    The target grows by exactly t, once; afterwards every rank image is an
    unbroken range starting at 1, or ``DummyExhausted`` is raised.  Returns
    the padded state, whose instance carries the new target, the dummy
    men, the dummy women and the trace steps.
    """
    t = st.t
    inst = st.inst
    steps: list[TraceStep] = []
    taken = {p.name for p in inst.men + inst.women}
    xs = tuple(Person(MAN, _fresh(f"x{i + 1}", taken)) for i in range(t))
    ys = tuple(Person(WOMAN, _fresh(f"y{i + 1}", taken)) for i in range(t))
    men, women = inst.men + xs, inst.women + ys
    m_rank = list(inst.m_rank) + [{len(inst.women) + i: 1} for i in range(len(xs))]
    w_rank = list(inst.w_rank) + [{len(inst.men) + i: 1} for i in range(len(ys))]
    k = st.k
    if t > 0:
        k += t
        steps.append(TraceStep("add_dummies", xs + ys, st.k, k, t, t))

    def fill(own, other, owners, partners) -> None:
        for p in range(len(own) - len(xs)):
            gaps = _gaps(own[p])
            if not gaps:
                continue
            table = dict(own[p])
            for gap in gaps:
                dummy = next((d for d in range(len(other) - len(xs), len(other)) if d not in table), None)
                if dummy is None:
                    raise DummyExhausted(f"no free dummy for the gap of {owners[p]} at {gap}")
                table[dummy] = gap
                other[dummy][p] = max(other[dummy].values()) + 1
                steps.append(TraceStep("fill_gap", (owners[p], partners[dummy]), k, k, t, t))
            own[p] = dict(sorted(table.items(), key=lambda item: item[1]))

    fill(m_rank, w_rank, men, women)
    fill(w_rank, m_rank, women, men)
    padded = KernelState(Instance(men, women, m_rank, w_rank, k), k)
    if padded.t != t:
        raise DummyExhausted("dummy insertion changed the parameter")
    if not padded.inst.contiguous:
        raise DummyExhausted("dummy insertion left a gap in the ranks")
    return padded, xs, ys, steps


# --- the pipeline -----------------------------------------------------------

def kernelize(inst: Instance, k: int) -> KernelResult:
    """Run the whole reduction on a list-form instance.

    Returns either a trivial yes (with an input-level witness), a trivial
    no, or an equivalent list-form kernel whose people count is linear in
    the parameter.
    """
    if not inst.contiguous:
        raise ValidationError(
            "the instance has gaps in its ranks; kernelize and solve need "
            "preference lists ranked 1, 2, 3, ... for every person"
        )
    st = KernelState(inst, k)
    t_input = st.t
    steps: list[TraceStep] = []
    verdict = None
    while verdict is None:
        for name, rule in RULES:
            hit = rule(st)
            if hit is not None:
                break
        else:
            break
        nxt, rows = hit
        after = st if isinstance(nxt, str) else nxt
        per_row = (st.k - after.k) // len(rows)  # 1 for shrink, 0 for every other rule
        t_before, t_after = st.t, after.t
        steps.extend(
            TraceStep(name, tuple(row), st.k - j * per_row, st.k - (j + 1) * per_row, t_before, t_after)
            for j, row in enumerate(rows)
        )
        if isinstance(nxt, str):
            verdict = nxt
        else:
            st = nxt

    removed_happy = tuple(s.affected[:2] for s in steps if s.rule == "remove_happy_pair")
    if verdict is not None:
        witness = None
        if verdict == TRIVIAL_YES:
            men, women = st.inst.men, st.inst.women
            mu_m = [(men[m], women[w]) for m, w in enumerate(st.inst.mu_m.by_man) if w >= 0]
            witness = Matching.of(mu_m + list(removed_happy))
        return KernelResult(
            verdict, None, None, KernelTrace(tuple(steps), verdict), t_input,
            witness, None, None, removed_happy, (), (),
        )
    padded, xs, ys, fill_steps = fill_gaps(st)
    steps.extend(fill_steps)
    return KernelResult(
        OUTCOME_KERNEL,
        padded.inst,
        padded.k,
        KernelTrace(tuple(steps), "reduced"),
        t_input,
        None,
        st.inst,
        st.k,
        removed_happy,
        xs,
        ys,
    )
