"""Shrinking an above-minimum balance question to a size bounded by its parameter.

The pipeline takes a list-form instance as a functional one and applies
the eight reduction rules of ``RULES`` exhaustively: at each round the
first rule in table order that applies fires, and the next round starts
again from the first rule.  The result, the functional kernel, has gaps
in its rank images.  ``fill_gaps`` pads it with t mutually-first dummy
pairs that fill the gaps, and the gap-free functions are read back as
preference lists; a ``KernelResult`` does this the first time its padded
kernel, target, dummies or trace is read.  Every step preserves the
answer and never increases the parameter ``t = k - min(O_M, O_W)``.
Entry i of the table is reduction rule i (rr1 to rr8).

The rules run on an instance and its target k.  The instance holds the
integer rank tables and derives from them, once, its two stable optima,
O_M, O_W and its sad and happy people; a rule that changes the tables
builds a new instance from them.  The dummies are the only people the
pipeline makes.  A rule returns None when it does not apply.  Otherwise
it returns ``(next, rows)``: ``next`` is the next instance or the verdict
``"yes"`` or ``"no"``, and ``rows`` holds, in order, the people named by
each trace row the application records: a tuple, or (clean_suffix) a
function of no arguments that makes the tuple.

Each table entry is (name, rule, k step).  bound_check, bound_sad, no_sad
and truncate read k: they take the instance and k, and their k step is
None.  clean_suffix, restrict_matched, remove_happy_pair and shrink read
no k: they take the instance alone, and ``kernelize`` reads their outcome
through ``_keep``.  So each runs once per instance: its outcome is kept
with the instance, as the stable optima are, and every later decision on
the instance reuses it at its own k.  Their k step is how far k falls per
row: 1 for shrink, 0 for the others.  Every row runs from the current k
and t to the next instance's t.  The trace keeps one ``TraceEntry`` per application,
dummy insertion included: its rule, rows, k before, k step per row and t
before and after.  ``KernelTrace.entries`` makes the rows a rule left as
a function, and ``KernelTrace.steps`` expands the entries into one
``TraceStep`` per row, each the first time it is read.  The rows are
read off the tables of the instance the rule ran on, which are never
mutated, so a decision that never reads its trace builds no ``TraceStep``
and no clean-suffix row.

Clean-suffix drops, happy-pair removals and shrink shifts leave both
stable optima in place (shrinking lowers both costs by one per shift), so
those three rules fire as one batch with a single rebuild; the batch
makes the same changes, in the same order and with the same rows, as
restarting after every single application would.  The tests hold each
batch to a single-step reference that makes one change per application.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .instance import MAN, WOMAN, Instance, Matching, Person, ValidationError, _derived

TRIVIAL_YES = "yes"
TRIVIAL_NO = "no"

OUTCOME_KERNEL = "kernel"


class NoSadPerson(RuntimeError):
    """A happy pair was removed while no sad person exists to absorb its cost."""


class DummyExhausted(RuntimeError):
    """Internal invariant failure: dummy insertion left a gap or changed t."""


class OptimaMoved(RuntimeError):
    """Internal invariant failure: a batched rule moved a stable optimum."""


class TraceStep(NamedTuple):
    """One trace row: ``rule`` fired on the people ``affected``, taking the
    target k from ``k_before`` to ``k_after`` and t from ``t_before`` to ``t_after``."""

    rule: str
    affected: tuple[Person, ...]
    k_before: int
    k_after: int
    t_before: int
    t_after: int


class TraceEntry(NamedTuple):
    """One rule application: ``rule`` recorded one row per item of ``rows``.

    Row j runs k from ``k_before - j * k_step`` down by ``k_step`` (1 for
    shrink, -t for add_dummies, 0 for every other rule) and t from
    ``t_before`` to ``t_after``.
    """

    rule: str
    rows: tuple[tuple[Person, ...], ...]
    k_before: int
    k_step: int
    t_before: int
    t_after: int


@dataclass(frozen=True, eq=False)
class KernelTrace:
    """The rule log of one kernelization: one entry per rule application.

    ``applied`` holds the entries as the rules gave them: an entry's rows
    are a tuple, or a function of no arguments that makes the tuple.
    ``entries`` calls those functions the first time it is read, and
    ``steps`` expands the entries into one ``TraceStep`` per row, in
    order, the first time it is read; both are kept.  Two traces are
    equal when their rows and outcomes are, however the rows are grouped
    into entries.
    """

    applied: tuple[TraceEntry, ...]
    outcome: str  # "reduced" | "yes" | "no"

    @_derived
    def entries(self) -> tuple[TraceEntry, ...]:
        return tuple(e if isinstance(e.rows, tuple) else e._replace(rows=e.rows()) for e in self.applied)

    @_derived
    def steps(self) -> tuple[TraceStep, ...]:
        return tuple(
            TraceStep(rule, tuple(row), k - j * step, k - (j + 1) * step, t_before, t_after)
            for rule, rows, k, step, t_before, t_after in self.entries
            for j, row in enumerate(rows)
        )

    def __eq__(self, other):
        if not isinstance(other, KernelTrace):
            return NotImplemented
        return (self.steps, self.outcome) == (other.steps, other.outcome)

    def __hash__(self):
        return hash((self.steps, self.outcome))


@dataclass(frozen=True)
class KernelResult:
    """Outcome of the full pipeline plus everything needed to audit it.

    For outcome "kernel", ``functional`` is the reduced instance with gaps
    in its rank functions and ``functional_k`` its target; the solver
    branches on these.  ``kernel`` is the list-form instance that dummy
    insertion makes from them, carrying the new target both in ``k`` and
    in ``kernel.target_k``.  ``kernel``, ``k``, ``dummy_men``,
    ``dummy_women`` and the dummy-insertion entries of ``trace`` come from
    one ``fill_gaps`` call, made the first time any of them is read and
    kept, as an instance keeps its optima.  ``rule_trace`` is the trace of
    the reduction rules alone.  ``witness`` is set for outcome "yes" and lives
    in the *input* instance.  ``lift`` maps any matching of the functional
    or the padded kernel back to the input instance.
    """

    outcome: str
    rule_trace: KernelTrace
    t_input: int
    witness: Matching | None
    functional: Instance | None
    functional_k: int | None
    removed_happy: tuple[tuple[Person, Person], ...]

    @_derived
    def _padded(self):
        """(kernel, k, dummy men, dummy women, dummy-insertion entries); no dummies without a kernel."""
        if self.functional is None:
            return None, None, (), (), ()
        padded, xs, ys, entries = fill_gaps(self.functional, self.functional_k)
        return padded, padded.target_k, xs, ys, tuple(entries)

    @property
    def kernel(self) -> Instance | None:
        return self._padded[0]

    @property
    def k(self) -> int | None:
        return self._padded[1]

    @property
    def dummy_men(self) -> tuple[Person, ...]:
        return self._padded[2]

    @property
    def dummy_women(self) -> tuple[Person, ...]:
        return self._padded[3]

    @_derived
    def trace(self) -> KernelTrace:
        """The rule log, dummy insertion included."""
        return KernelTrace(self.rule_trace.applied + self._padded[4], self.rule_trace.outcome)

    def lift(self, matching: Matching) -> Matching:
        """``matching`` without the dummies' pairs, plus the removed happy pairs.

        Of a kernel's matching only the pairs of two people of the
        functional instance are kept; after a trivial outcome every pair is.
        """
        kept = matching.pairs
        if self.functional is not None:
            men, women = self.functional.man_index, self.functional.woman_index
            kept = [(m, w) for m, w in kept if m in men and w in women]
        return Matching.of([*kept, *self.removed_happy])


# --- the rules --------------------------------------------------------------

def _sides(inst: Instance, men_anchor, women_anchor):
    """Men, then women: (own tables, anchor of each, own people, partners, owner is a woman)."""
    yield inst.m_rank, men_anchor, inst.men, inst.women, False
    yield inst.w_rank, women_anchor, inst.women, inst.men, True


def _without_pairs(inst: Instance, pairs) -> Instance:
    """The instance without the given (man, woman) pairs; only the tables they touch are copied."""
    m_rank, w_rank = list(inst.m_rank), list(inst.w_rank)
    for tables, touched in ((m_rank, {m for m, _ in pairs}), (w_rank, {w for _, w in pairs})):
        for p in touched:
            tables[p] = dict(tables[p])
    for m, w in pairs:
        del m_rank[m][w], w_rank[w][m]
    return Instance(inst.men, inst.women, m_rank, w_rank)


def _kept(inst: Instance, men, women, shift=(-1, 0, -1, 0)) -> Instance:
    """The instance on these men and women (indices, in order) only, renumbered.

    ``shift`` is (man, amount, woman, amount): those two rank functions rise by their amount.
    """
    new_m, new_w = {m: i for i, m in enumerate(men)}, {w: j for j, w in enumerate(women)}
    m_s, d_m, w_s, d_w = shift
    m_rank = [{new_w[w]: r + d_m * (m == m_s) for w, r in inst.m_rank[m].items() if w in new_w} for m in men]
    w_rank = [{new_m[m]: r + d_w * (w == w_s) for m, r in inst.w_rank[w].items() if m in new_m} for w in women]
    return Instance(tuple(inst.men[m] for m in men), tuple(inst.women[w] for w in women), m_rank, w_rank)


def bound_check(inst: Instance, k: int):
    """No stable matching can beat both optima, so a target below their max fails."""
    return (TRIVIAL_NO, ((),)) if k < max(inst.o_m, inst.o_w) else None


def _suffix_rows(m_rank, w_rank, men, women, m_cut, w_cut):
    """The clean-suffix rows of an instance with these tables, people and cuts.

    Men in index order, each dropping the partners past his cut worst
    first, then women likewise, skipping the pairs a man already dropped;
    a man's row is (man, woman), a woman's (woman, man).
    """
    rows = []
    for own, other, cuts, other_cuts, owners, partners, flip in (
        (m_rank, w_rank, m_cut, w_cut, men, women, False),
        (w_rank, m_rank, w_cut, m_cut, women, men, True),
    ):
        for a, (table, cut) in enumerate(zip(own, cuts)):
            for b, r in reversed(table.items()):
                if r <= cut:
                    break
                if not flip or other[b][a] <= other_cuts[b]:
                    rows.append((owners[a], partners[b]))
    return tuple(rows)


def _cuts(tables, anchors) -> list[int]:
    """Each owner's cut: the rank of their anchor, or their last rank when they have none."""
    return [table[a] if a >= 0 else next(reversed(table.values()), 0) for table, a in zip(tables, anchors)]


def _within(tables, cuts, other, other_cuts) -> list[dict[int, int]]:
    """Each owner's table, in rank order, keeping the pairs both people rank within their cut.

    A table is in rank order, so its scan stops at the first rank past the owner's cut.
    """
    kept = []
    for a, (table, cut) in enumerate(zip(tables, cuts)):
        row = {}
        for b, r in table.items():
            if r > cut:
                break
            if other[b][a] <= other_cuts[b]:
                row[b] = r
        kept.append(row)
    return kept


def clean_suffix(inst: Instance):
    """Drop every partner ranked beyond their owner's worst stable partner, with one rebuild.

    Men are bounded by their woman-optimal partner, women by their
    man-optimal partner; no stable matching uses such a pair, so the
    stable set and both optima are untouched.  The rule applies when
    some owner's anchor is not their last partner; otherwise it returns
    before building anything.  Each owner's cut is the rank of their
    anchor, and a single owner keeps everything.  A pair is kept when
    both its owners rank it within their cut, so each new table is built
    once, in rank order, from the pairs it keeps.

    ``_suffix_rows`` makes the rows when the trace is first read, in its
    order: men, then women, in index order, each worst first.  Dropping
    one worst partner at a time and restarting makes the same drops in
    this order: the anchors are the optima, which no drop moves, so no
    cut moves, and the first owner with a partner past their cut is the
    next one in this order; a woman has by then lost the pairs the men
    dropped.  The row maker holds the old tables, people and cuts, never
    the instance, whose store keeps this outcome.
    """
    m_rank, w_rank = inst.m_rank, inst.w_rank
    m_anchor, w_anchor = inst.mu_w.by_man, inst.mu_m.by_woman
    if all(
        [next(reversed(t), a) if a >= 0 else a for t, a in zip(tables, anchors)] == anchors
        for tables, anchors in ((m_rank, m_anchor), (w_rank, w_anchor))
    ):
        return None  # every owner's anchor, if any, is their last partner
    m_cut, w_cut = _cuts(m_rank, m_anchor), _cuts(w_rank, w_anchor)
    new = Instance(
        inst.men, inst.women, _within(m_rank, m_cut, w_rank, w_cut), _within(w_rank, w_cut, m_rank, m_cut)
    )
    if (new.mu_m, new.mu_w, new.o_m, new.o_w) != (inst.mu_m, inst.mu_w, inst.o_m, inst.o_w):
        raise OptimaMoved("clean-suffix drops changed the stable optima")
    return new, partial(_suffix_rows, m_rank, w_rank, inst.men, inst.women, m_cut, w_cut)


def restrict_matched(inst: Instance):
    """Restrict to the people matched by every stable matching."""
    men = [m for m, w in enumerate(inst.mu_m.by_man) if w >= 0]
    women = [w for w, m in enumerate(inst.mu_m.by_woman) if m >= 0]
    if len(men) == len(inst.men) and len(women) == len(inst.women):
        return None
    gone = [inst.men[m] for m, w in enumerate(inst.mu_m.by_man) if w < 0]
    gone += [inst.women[w] for w, m in enumerate(inst.mu_m.by_woman) if m < 0]
    new = _kept(inst, men, women)
    if (new.o_m, new.o_w) != (inst.o_m, inst.o_w):
        raise OptimaMoved("restricting to the matched people changed an optimal cost")
    return new, (tuple(gone),)


def bound_sad(inst: Instance, k: int):
    """More than 2t sad people on one side already forces the answer to be no."""
    bound = 2 * (k - min(inst.o_m, inst.o_w))
    if len(inst.sad_men) > bound or len(inst.sad_women) > bound:
        return TRIVIAL_NO, ((),)
    return None


def no_sad(inst: Instance, k: int):
    """With no sad people the man-optimal matching is the only stable one.

    It is also the woman-optimal one, so its balance is max(O_M, O_W).
    Inside ``kernelize`` only the yes is reached: every round opens with
    bound_check, which already answers no whenever k < max(O_M, O_W).
    """
    if inst.sad_men or inst.sad_women:
        return None
    return (TRIVIAL_YES if max(inst.o_m, inst.o_w) <= k else TRIVIAL_NO), ((),)


def _remove_happy(inst: Instance, pairs):
    """Remove the given happy pairs, moving their rank contributions onto sad people.

    Every pair's ranks are added to every rank of the first sad man and
    the first sad woman, so every stable matching keeps the same balance
    while the instance shrinks.  Rows are (man, woman, sad man, sad woman).
    """
    if not pairs:
        return None
    if not inst.sad_men or not inst.sad_women:
        m_h, w_h = pairs[0]
        raise NoSadPerson(f"cannot transfer the cost of ({inst.men[m_h]}, {inst.women[w_h]})")
    m_s, w_s = inst.sad_men[0], inst.sad_women[0]
    shift = m_s, sum(inst.m_rank[m][w] for m, w in pairs), w_s, sum(inst.w_rank[w][m] for m, w in pairs)
    gone_men, gone_women = {m for m, _ in pairs}, {w for _, w in pairs}
    men = [m for m in range(len(inst.men)) if m not in gone_men]
    women = [w for w in range(len(inst.women)) if w not in gone_women]
    rows = tuple((inst.men[m], inst.women[w], inst.men[m_s], inst.women[w_s]) for m, w in pairs)
    return _kept(inst, men, women, shift), rows, men, women


def remove_happy_pair(inst: Instance):
    """Remove every happy pair, in canonical order, with one rebuild.

    Removing one pair at a time and restarting makes the same removals in
    the same order.  A removal keeps k, t, the sad people and the order of
    the other happy pairs, so every pair moves its cost onto the same first
    sad man and first sad woman; their shifts add up.  Every other man
    keeps his partner in both optima, and a removed woman is nobody's
    partner.
    """
    hit = _remove_happy(inst, inst.happy_pairs)
    if hit is None:
        return None
    new, rows, men, women = hit
    new_w = {w: j for j, w in enumerate(women)} | {-1: -1}
    expect = [[new_w.get(mu.by_man[m]) for m in men] for mu in (inst.mu_m, inst.mu_w)]
    if (new.o_m, new.o_w, [new.mu_m.by_man, new.mu_w.by_man]) != (inst.o_m, inst.o_w, expect):
        raise OptimaMoved("happy-pair removals changed the stable optima")
    return new, rows


def truncate(inst: Instance, k: int):
    """Delete one pair too far beyond its owner's optimal partner to fit under k.

    Men are checked first against the man-optimal matching, then women
    against the woman-optimal one.  The first owner, in index order, with
    a partner ranked past the cutoff (the slack plus the rank of their
    anchor) loses the best such partner.
    """
    for tables, anchors, owners, partners, flip in _sides(inst, inst.mu_m.by_man, inst.mu_w.by_woman):
        slack = k - (inst.o_w if flip else inst.o_m)
        for a, anchor in enumerate(anchors):
            if anchor >= 0:
                table = tables[a]
                cutoff = slack + table[anchor]
                if next(reversed(table.values())) > cutoff:  # tables are in rank order
                    b = next(b for b, r in table.items() if r > cutoff)  # the best
                    pair = (b, a) if flip else (a, b)
                    return _without_pairs(inst, [pair]), ((owners[a], partners[b]),)
    return None


def _shrink_units(inst: Instance) -> list[tuple[int, int]]:
    """One (man, woman) per unit shift, pairing the men's and the women's excess in order.

    Each man contributes one entry per unit by which his man-optimal
    partner ranks above 1, each woman likewise for her woman-optimal one.
    """
    man_units = [
        m for m, w in enumerate(inst.mu_m.by_man) if w >= 0 for _ in range(inst.m_rank[m][w] - 1)
    ]
    woman_units = [
        w for w, m in enumerate(inst.mu_w.by_woman) if m >= 0 for _ in range(inst.w_rank[w][m] - 1)
    ]
    return list(zip(man_units, woman_units))


def _shift(inst: Instance, units: list[tuple[int, int]]):
    """Lower each listed person's whole rank function by one per listing; one row per unit."""
    if not units:
        return None
    m_rank, w_rank = list(inst.m_rank), list(inst.w_rank)
    for tables, side_units in ((m_rank, [m for m, _ in units]), (w_rank, [w for _, w in units])):
        for p, d in Counter(side_units).items():
            tables[p] = {q: r - d for q, r in tables[p].items()}
    rows = tuple((inst.men[m], inst.women[w]) for m, w in units)
    return Instance(inst.men, inst.women, m_rank, w_rank), rows


def shrink(inst: Instance):
    """Shift whole rank functions down, one man's and one woman's by 1 per unit, with one rebuild.

    Each unit lowers k by 1 (the table's k step).  Shifting one unit at a
    time and restarting makes the same shifts in the same order: a shift
    moves no optimum pair, slack, sad or happy person, so no earlier rule
    can fire between two shifts and each one goes to the first man and the
    first woman whose optimal partner still ranks above 1.
    """
    hit = _shift(inst, _shrink_units(inst))
    if hit is None:
        return None
    new, rows = hit
    total = len(rows)
    if (new.o_m, new.o_w, new.mu_m, new.mu_w) != (inst.o_m - total, inst.o_w - total, inst.mu_m, inst.mu_w):
        raise OptimaMoved("shrink shifts changed the stable optima")
    return hit


def _keep(inst: Instance, make):
    """``make(inst)``, made on the first call for this instance and kept in
    its store under ``make``."""
    store = inst._store
    if make not in store:
        store[make] = make(inst)
    return store[make]


# (name, rule, k step): k step None for a rule that reads k (module docstring).
RULES = (
    ("bound_check", bound_check, None),
    ("clean_suffix", clean_suffix, 0),
    ("restrict_matched", restrict_matched, 0),
    ("bound_sad", bound_sad, None),
    ("no_sad", no_sad, None),
    ("remove_happy_pair", remove_happy_pair, 0),
    ("truncate", truncate, None),
    ("shrink", shrink, 1),
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


def fill_gaps(inst: Instance, k: int):
    """Add t mutually-first dummy pairs and use them to plug every rank gap.

    The target grows by exactly t, once; afterwards every rank image is an
    unbroken range starting at 1, or ``DummyExhausted`` is raised.  Returns
    the padded instance, which carries the new target as ``target_k``, the
    dummy men, the dummy women and the trace entries.
    """
    t = k - min(inst.o_m, inst.o_w)
    entries: list[TraceEntry] = []
    fill_rows: list[tuple[Person, Person]] = []
    taken = {p.name for p in inst.men + inst.women}
    xs = tuple(Person(MAN, _fresh(f"x{i + 1}", taken)) for i in range(t))
    ys = tuple(Person(WOMAN, _fresh(f"y{i + 1}", taken)) for i in range(t))
    men, women = inst.men + xs, inst.women + ys
    m_rank = list(inst.m_rank) + [{len(inst.women) + i: 1} for i in range(len(xs))]
    w_rank = list(inst.w_rank) + [{len(inst.men) + i: 1} for i in range(len(ys))]
    if t > 0:
        entries.append(TraceEntry("add_dummies", (xs + ys,), k, -t, t, t))
        k += t

    def fill(own, other, owners, partners) -> None:
        # A real person's table holds no dummy yet, so their j-th gap takes
        # the j-th dummy; a dummy's ranks stay 1..len, so p gets len + 1.
        first = len(other) - len(xs)
        for p in range(len(own) - len(xs)):
            gaps = _gaps(own[p])
            if not gaps:
                continue
            table = dict(own[p])
            for j, gap in enumerate(gaps):
                if j == len(xs):
                    raise DummyExhausted(f"no free dummy for the gap of {owners[p]} at {gap}")
                dummy = first + j
                table[dummy] = gap
                other[dummy][p] = len(other[dummy]) + 1
                fill_rows.append((owners[p], partners[dummy]))
            own[p] = dict(sorted(table.items(), key=lambda item: item[1]))

    fill(m_rank, w_rank, men, women)
    fill(w_rank, m_rank, women, men)
    if fill_rows:
        entries.append(TraceEntry("fill_gap", tuple(fill_rows), k, 0, t, t))
    padded = Instance(men, women, m_rank, w_rank, k)
    if k - min(padded.o_m, padded.o_w) != t:
        raise DummyExhausted("dummy insertion changed the parameter")
    if not padded.contiguous:
        raise DummyExhausted("dummy insertion left a gap in the ranks")
    return padded, xs, ys, entries


# --- the pipeline -----------------------------------------------------------

def require_lists(inst: Instance) -> None:
    """Raise ``ValidationError`` unless every person's ranks are 1, 2, 3, ..."""
    if not inst.contiguous:
        raise ValidationError(
            "the instance has gaps in its ranks; kernelize and solve need "
            "preference lists ranked 1, 2, 3, ... for every person"
        )


def kernelize(inst: Instance, k: int) -> KernelResult:
    """Run the whole reduction on a list-form instance.

    Returns either a trivial yes (with an input-level witness), a trivial
    no, or an equivalent functional kernel whose people count is linear in
    the parameter; the result pads it to a list-form one when that is
    first read.  The rules that read no k reuse their outcomes on this
    instance from earlier decisions (module docstring).
    """
    require_lists(inst)
    t = t_input = k - min(inst.o_m, inst.o_w)
    entries: list[TraceEntry] = []
    verdict = None
    while verdict is None:
        for name, rule, k_step in RULES:
            hit = rule(inst, k) if k_step is None else _keep(inst, rule)
            if hit is not None:
                break
        else:
            break
        nxt, rows = hit
        if isinstance(nxt, str):
            entries.append(TraceEntry(name, rows, k, 0, t, t))
            verdict = nxt
        else:
            step = k_step or 0  # a rule that reads k moves none
            k_after = k - step * len(rows) if step else k
            t_after = k_after - min(nxt.o_m, nxt.o_w)
            entries.append(TraceEntry(name, rows, k, step, t, t_after))
            inst, k, t = nxt, k_after, t_after

    removed_happy = tuple(row[:2] for e in entries if e.rule == "remove_happy_pair" for row in e.rows)
    rule_trace = KernelTrace(tuple(entries), "reduced" if verdict is None else verdict)
    if verdict is None:
        return KernelResult(OUTCOME_KERNEL, rule_trace, t_input, None, inst, k, removed_happy)
    witness = None
    if verdict == TRIVIAL_YES:
        witness = Matching.of([*inst.matching_from_arrays(inst.mu_m.by_man).pairs, *removed_happy])
    return KernelResult(verdict, rule_trace, t_input, witness, None, None, removed_happy)
