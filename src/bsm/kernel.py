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

A rule takes a ``KernelState`` and returns None when it does not apply.
Otherwise it returns ``(next, rows)``: ``next`` is the next state or the
verdict ``"yes"`` or ``"no"``, and ``rows`` holds, in order, the people
named by each trace row the application records.  Every row runs from
the state's k and t to the next state's t; only shrink moves k, by one
per row.

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
from dataclasses import dataclass, replace

from . import gs
from .instance import (
    MAN,
    WOMAN,
    Instance,
    Matching,
    Person,
    ValidationError,
    make_instance,
)

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


# --- the rules --------------------------------------------------------------

def _rebuild(st: KernelState, men, women, ranks, k=None) -> KernelState:
    inst = make_instance(men, women, ranks, None, validate=False)
    return KernelState.make(inst, st.k if k is None else k)


def _without_pair(st: KernelState, a: Person, b: Person) -> KernelState:
    ranks = dict(st.inst.prefs.ranks)
    for owner, partner in ((a, b), (b, a)):
        ranks[owner] = dict(ranks[owner])
        del ranks[owner][partner]
    return _rebuild(st, st.inst.men, st.inst.women, ranks)


def bound_check(st: KernelState):
    """No stable matching can beat both optima, so a target below their max fails."""
    return (TRIVIAL_NO, [()]) if st.k < max(st.optima.o_m, st.optima.o_w) else None


def clean_suffix_once(st: KernelState):
    """Drop a person's worst partner when ranked beyond their worst stable partner.

    Men are bounded by their woman-optimal partner, women by their
    man-optimal partner; no stable matching uses such a pair, so the
    stable set and both optima are untouched.
    """
    ranks = st.inst.prefs.ranks
    anchors = {MAN: st.optima.mu_w.by_man, WOMAN: st.optima.mu_m.by_woman}
    for a in st.inst.people:
        anchor = anchors[a.side].get(a)
        if anchor is None:
            continue
        table = ranks[a]
        worst = max(table, key=table.get)
        if table[worst] > table[anchor]:
            return _without_pair(st, a, worst), [(a, worst)]
    return None


def clean_suffix(st: KernelState):
    """Every drop that repeating ``clean_suffix_once`` makes, with one rebuild.

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


def restrict_matched(st: KernelState):
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
    gone = [p for p in st.inst.people if p not in matched]
    return _rebuild(st, men, women, ranks), [gone]


def bound_sad(st: KernelState):
    """More than 2t sad people on one side already forces the answer to be no."""
    bound = 2 * st.t
    if len(st.sad_men) > bound or len(st.sad_women) > bound:
        return TRIVIAL_NO, [()]
    return None


def no_sad(st: KernelState):
    """With no sad people the man-optimal matching is the only stable one."""
    if st.sad_men or st.sad_women:
        return None
    bal = gs.objectives(st.inst, st.optima.mu_m).balance
    return (TRIVIAL_YES if bal <= st.k else TRIVIAL_NO), [()]


def _remove_happy(st: KernelState, pairs):
    """Remove the given happy pairs, moving their rank contributions onto sad people.

    Every pair's ranks are added to every rank of the first sad man and
    the first sad woman, so every stable matching keeps the same balance
    while the instance shrinks.  Rows are (man, woman, sad man, sad woman).
    """
    if not pairs:
        return None
    if not st.sad_men or not st.sad_women:
        m_h, w_h = pairs[0]
        raise NoSadPerson(f"cannot transfer the cost of ({m_h}, {w_h})")
    m_s = st.sad_men[0]
    w_s = st.sad_women[0]
    ranks = st.inst.prefs.ranks
    shift_m = sum(ranks[m][w] for m, w in pairs)
    shift_w = sum(ranks[w][m] for m, w in pairs)
    removed = {p for pair in pairs for p in pair}
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
    return _rebuild(st, men, women, new_ranks), [(m_h, w_h, m_s, w_s) for m_h, w_h in pairs]


def remove_happy_pair_once(st: KernelState):
    """Remove the first happy pair in canonical order."""
    return _remove_happy(st, st.happy_pairs[:1])


def remove_happy_pair(st: KernelState):
    """Every removal that repeating ``remove_happy_pair_once`` makes, with one rebuild.

    A removal keeps k, t, the sad people and the order of the other happy
    pairs, so every pair moves its cost onto the same first sad man and
    first sad woman; their shifts add up.
    """
    hit = _remove_happy(st, st.happy_pairs)
    if hit is None:
        return None
    happy = set(st.happy_pairs)
    before, after = st.optima, hit[0].optima
    if (
        (after.o_m, after.o_w) != (before.o_m, before.o_w)
        or after.mu_m.pairs != before.mu_m.pairs - happy
        or after.mu_w.pairs != before.mu_w.pairs - happy
    ):
        raise OptimaMoved("happy-pair removals changed the stable optima")
    return hit


def truncate(st: KernelState):
    """Delete one pair too far beyond its owner's optimal partner to fit under k.

    Men are checked first against the man-optimal matching, then women
    against the woman-optimal one; the owner's best over-limit partner goes.
    """
    ranks = st.inst.prefs.ranks
    opt = st.optima
    for people, partner_of, cost in (
        (st.inst.men, opt.mu_m.by_man, opt.o_m),
        (st.inst.women, opt.mu_w.by_woman, opt.o_w),
    ):
        slack = st.k - cost
        for a in people:
            anchor = partner_of.get(a)
            if anchor is None:
                continue
            limit = slack + ranks[a][anchor]
            over = [(r, b) for b, r in ranks[a].items() if r > limit]
            if over:
                b = min(over)[1]
                return _without_pair(st, a, b), [(a, b)]
    return None


def _shrink_units(st: KernelState) -> list[tuple[Person, Person]]:
    """One (man, woman) per unit shift, pairing the men's and the women's excess in order.

    Each man contributes one entry per unit by which his man-optimal
    partner ranks above 1, each woman likewise for her woman-optimal one.
    """
    ranks = st.inst.prefs.ranks
    by_man = st.optima.mu_m.by_man
    by_woman = st.optima.mu_w.by_woman
    man_units = [
        m for m in st.inst.men if m in by_man for _ in range(ranks[m][by_man[m]] - 1)
    ]
    woman_units = [
        w for w in st.inst.women if w in by_woman for _ in range(ranks[w][by_woman[w]] - 1)
    ]
    return list(zip(man_units, woman_units))


def _shift(st: KernelState, units: list[tuple[Person, Person]]):
    """Lower each listed person's whole rank function by one per listing, and k by one per unit."""
    if not units:
        return None
    ranks = st.inst.prefs.ranks
    new_ranks = dict(ranks)
    for p, d in Counter(p for unit in units for p in unit).items():
        new_ranks[p] = {q: r - d for q, r in ranks[p].items()}
    return _rebuild(st, st.inst.men, st.inst.women, new_ranks, k=st.k - len(units)), units


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
    before, after = st.optima, hit[0].optima
    if (
        (after.o_m, after.o_w) != (before.o_m - total, before.o_w - total)
        or after.mu_m != before.mu_m
        or after.mu_w != before.mu_w
    ):
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


def _gaps(table: dict[Person, int]) -> list[int]:
    if not table:
        return []
    image = set(table.values())
    return [i for i in range(1, max(image)) if i not in image]


def fill_gaps(st: KernelState):
    """Add t mutually-first dummy pairs and use them to plug every rank gap.

    The target grows by exactly t, once; afterwards every rank image is an
    unbroken range starting at 1, or ``DummyExhausted`` is raised.  Returns
    the padded state, the dummy men, the dummy women and the trace steps.
    """
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
    if not inst.contiguous:
        raise DummyExhausted("dummy insertion left a gap in the ranks")
    return new_state, xs, ys, steps


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
    st = KernelState.make(inst, k)
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
            witness = Matching.of(set(st.optima.mu_m.pairs) | set(removed_happy))
        return KernelResult(
            verdict, None, None, KernelTrace(tuple(steps), verdict), t_input,
            witness, None, None, removed_happy, (), (),
        )
    padded, xs, ys, fill_steps = fill_gaps(st)
    steps.extend(fill_steps)
    return KernelResult(
        OUTCOME_KERNEL,
        replace(padded.inst, target_k=padded.k),
        padded.k,
        KernelTrace(tuple(steps), "reduced"),
        t_input,
        None,
        st.inst,
        st.k,
        removed_happy,
        xs,
        ys,
        padded,
    )
