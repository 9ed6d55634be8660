"""Data model, validation, parsing and serialization for stable marriage instances.

An instance consists of a set of men, a set of women, and one injective
rank function per person over that person's acceptable partners (lower
rank = more preferred).  When every rank image is exactly {1..len} the
instance is an ordinary preference-list instance; otherwise the ranks
form a preference function with gaps.  Both are carried by the same
``Instance`` type, told apart by its derived ``contiguous`` flag.

An instance is stored as integer rank tables, ``Instance.m_rank`` and
``Instance.w_rank``, which the parsers and ``make_instance`` write
directly.  ``Person`` objects name people at the boundary: in matchings,
in ``serialize`` and in the people-keyed view ``Instance.prefs``, which
no code in this package builds.  A ``Person`` is a ``NamedTuple`` and
equals its plain ``(side, name)`` tuple.  A side's people are a tuple, or a
``Roster`` that names them only when they are first read.  The algorithms start from the two
extreme stable matchings, ``Instance.mu_m`` and ``Instance.mu_w``, which
deferred acceptance finds here, and the facts read off them: the optimal
costs ``o_m`` and ``o_w``, each a side's ``cost``, and the sad and happy
people.  Each is derived once per instance, on first use.
``Instance.matching_from_arrays`` turns partner arrays into a matching of
people; ``gs.validate_matching`` checks such a matching and turns it back.

Each reader proves what it reads, so the per-entry checks run only where
it cannot.  Every key either reader writes is an int: a partner's index,
or ``~i`` for a name of the owner's own side.  The text reader reads its
lines in two passes, the name and k lines before the person lines, and
fills each list-form row in a plain loop over its tokens.  The list form
ranks each row's partners 1..len, so those ranks are distinct, positive
and in rank order; a functional row's ranks are ints.  The JSON reader
proves every rank a non-bool int.  What is left is tested once per
table: distinct ranks of at least 1 in the rows not in list form, no
partner of the owner's own side, and mutual acceptability.  Only when that
test fails does the ordered scan ``_check_rows`` run, to name the first
fault.  Each reader also records ``contiguous`` from those rows alone.
``make_instance``, whose keys and ranks may be anything, always runs the
scan, and its instances derive ``contiguous`` on first read.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import eq, itemgetter
from typing import NamedTuple

MAN = "M"
WOMAN = "W"

_NAME_RE = re.compile(r"[^\s:=#]+\Z")
_RESERVED_NAMES = frozenset({"men", "women", "k"})


class _derived:
    """``functools.cached_property`` without the lock that CPython 3.11 takes on every first read.

    The lock costs about 1 µs, and the kernel rules read seven derived
    values of an instance.  Two threads that race compute a value twice.
    """

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class ParseError(ValueError):
    """Input text or JSON is syntactically malformed."""


class ValidationError(ValueError):
    """A table violates mutuality, injectivity or the person model."""


class Person(NamedTuple):
    """A side-qualified participant; ``side`` is MAN or WOMAN.

    As a tuple it equals, hashes and orders as its ``(side, name)`` tuple.
    """

    side: str
    name: str

    def __repr__(self):
        return f"{self.side}:{self.name}"


class Roster:
    """One side's n people, named on first read by ``list_names()``, which
    lists their names in index order.

    Deferred acceptance and the rotation chain read only how many people a
    side has, so a reduction that is only verified names no one.
    ``serialize`` reads only the names; the first reader of people (a
    matching of people, a kernel) builds the ``Person`` tuple.  The roster
    keeps both as ``_derived`` keeps a value: two threads that race name
    the people twice.  A roster equals the tuple of its people, and adding
    a sequence of people to it gives a tuple.
    """

    def __init__(self, side: str, n: int, list_names):
        self.side, self._n, self._list_names = side, n, list_names

    @_derived
    def names(self) -> list[str]:
        return self._list_names()

    @_derived
    def people(self) -> tuple[Person, ...]:
        return _people(self.side, self.names)

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        return self.people[i]

    def __iter__(self):
        return iter(self.people)

    def __eq__(self, other):
        return self.people == other

    def __add__(self, other):
        return self.people + tuple(other)


class Partners(NamedTuple):
    """A matching as partner indices: ``by_man[m]`` is man m's woman, -1 if single."""

    by_man: list[int]
    by_woman: list[int]


class PeopleView(NamedTuple):
    """The rank tables keyed by people: ``ranks[a][b]`` is a's rank of b, in rank order."""

    ranks: dict[Person, dict[Person, int]]


def _deferred_acceptance(order, responder_rank, n_resp):
    """Proposer-optimal matching as (each proposer's partner, each responder's partner), -1 for none.

    Iterating ``order[p]`` gives responder indices from best to worst, as
    a table of ``Instance.m_rank`` does; ``responder_rank[r]`` maps
    proposer index to rank value.
    """
    choices = [iter(c) for c in order]
    holds = [-1] * n_resp
    matched = [-1] * len(order)
    pending = deque(range(len(order)))
    while pending:
        p = pending.popleft()
        for r in choices[p]:
            current = holds[r]
            if current < 0:
                holds[r] = p
                matched[p] = r
                break
            rank = responder_rank[r]
            if rank[p] < rank[current]:
                holds[r] = p
                matched[p] = r
                matched[current] = -1
                pending.append(current)
                break
    return matched, holds


def _contiguous(tables) -> bool:
    """Whether each table's n ranks are 1..n.

    A table's ranks are distinct, positive and stored in rank order, so
    they are 1..n when the last is n; each last rank is read in C.
    """
    return all(map(eq, map(next, map(reversed, map(dict.values, tables)), repeat(0)), map(len, tables)))


def cost(tables, partner) -> int:
    """One side's cost of a matching: each matched person's rank of their
    partner, summed over ``partner``, a partner index array (-1 if single).

    A single adds 0, as table keys are partner indices, never -1.  So does
    an unacceptable pair: every caller passes acceptable pairs only (the
    two optima, the rotation chain's partners, the solver's certificates
    and a matching ``validate_matching`` has passed).
    """
    return sum(map(dict.get, tables, partner, repeat(0)))


@dataclass(frozen=True)
class Instance:
    """Two person sets, their rank tables and an optional target value.

    Men and women are numbered by position in ``men`` and ``women``.
    ``m_rank[m]`` maps the index of each woman man m accepts to his rank
    of her, in rank order, best first; ``w_rank`` does the same for the
    women.  The tables are never mutated.  Building an instance checks
    nothing: ``make_instance`` and the parsers check their input first.
    Everything else an instance offers is derived from these fields on
    first use and kept.
    """

    men: tuple[Person, ...] | Roster
    women: tuple[Person, ...] | Roster
    m_rank: list[dict[int, int]]
    w_rank: list[dict[int, int]]
    target_k: int | None = None

    @_derived
    def contiguous(self) -> bool:
        """True when each person's n ranks are 1..n.  A reader sets it as it builds the instance."""
        return _contiguous(self.m_rank) and _contiguous(self.w_rank)

    @_derived
    def people(self) -> tuple[Person, ...]:
        return self.men + self.women

    @_derived
    def man_index(self) -> dict[Person, int]:
        return {p: i for i, p in enumerate(self.men)}

    @_derived
    def woman_index(self) -> dict[Person, int]:
        return {p: i for i, p in enumerate(self.women)}

    @_derived
    def prefs(self) -> PeopleView:
        """The tables keyed by people, built on first use, for callers that want people."""
        ranks = {}
        for owners, tables, partners in ((self.men, self.m_rank, self.women), (self.women, self.w_rank, self.men)):
            for p, table in zip(owners, tables):
                ranks[p] = {partners[q]: r for q, r in table.items()}
        return PeopleView(ranks)

    @_derived
    def mu_m(self) -> Partners:
        """The man-optimal stable matching, by deferred acceptance on first use.

        Every caller shares these arrays: copy one before editing it.
        """
        return Partners(*_deferred_acceptance(self.m_rank, self.w_rank, len(self.women)))

    @_derived
    def mu_w(self) -> Partners:
        """The woman-optimal stable matching, as ``mu_m`` is the man-optimal one."""
        by_woman, by_man = _deferred_acceptance(self.w_rank, self.m_rank, len(self.men))
        return Partners(by_man, by_woman)

    @_derived
    def o_m(self) -> int:
        """O_M, the men's cost of ``mu_m``: the least men's cost of any stable matching."""
        return cost(self.m_rank, self.mu_m.by_man)

    @_derived
    def o_w(self) -> int:
        """O_W, the women's cost of ``mu_w``: the least women's cost of any stable matching."""
        return cost(self.w_rank, self.mu_w.by_woman)

    @_derived
    def sad_men(self) -> tuple[int, ...]:
        """The men whose partner differs between ``mu_m`` and ``mu_w``, in index order."""
        by_man = self.mu_w.by_man
        return tuple(m for m, w in enumerate(self.mu_m.by_man) if w != by_man[m])

    @_derived
    def sad_women(self) -> tuple[int, ...]:
        """The women whose partner differs between ``mu_m`` and ``mu_w``, in index order."""
        by_woman = self.mu_w.by_woman
        return tuple(w for w, m in enumerate(self.mu_m.by_woman) if m != by_woman[w])

    @_derived
    def happy_pairs(self) -> tuple[tuple[int, int], ...]:
        """The (man, woman) pairs of both ``mu_m`` and ``mu_w``, in man order."""
        by_man = self.mu_w.by_man
        return tuple((m, w) for m, w in enumerate(self.mu_m.by_man) if w >= 0 and w == by_man[m])

    @_derived
    def _store(self) -> dict:
        """The values that decisions on this instance keep for later ones, by
        key (``kernel._keep``); empty on first read."""
        return {}

    def matching_from_arrays(self, partner_of_man: list[int]) -> "Matching":
        return Matching.of(
            (self.men[m], self.women[w])
            for m, w in enumerate(partner_of_man)
            if w >= 0
        )


@dataclass(frozen=True)
class Matching:
    """A partial injective assignment of men to women over acceptable pairs."""

    pairs: frozenset[tuple[Person, Person]]

    @staticmethod
    def of(pairs) -> "Matching":
        return Matching(frozenset(pairs))

    @_derived
    def by_man(self) -> dict[Person, Person]:
        """Each matched man's woman; ``perfbench/make_optimize_pool.py`` reads it."""
        return {m: w for m, w in self.pairs}

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(sorted(self.pairs))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValidationError(f"bad person name {name!r}")
    if name in _RESERVED_NAMES:
        raise ValidationError(f"person name {name!r} is reserved")
    return name


# ---------------------------------------------------------------------------
# The parsers and ``make_instance`` read each person's partners into a row:
# partner key to rank, in input order.  A key is the partner's index on the
# other side, ``~i`` for person i of the owner's own side, and not an int
# for someone outside the instance.

def make_instance(men, women, ranks: dict[Person, dict[Person, int]], k: int | None = None) -> Instance:
    """Build a validated ``Instance`` from people-keyed rank maps; people missing from ``ranks`` get empty sets."""
    men = tuple(men)
    women = tuple(women)
    man_at = {p: i for i, p in enumerate(men)}
    woman_at = {p: j for j, p in enumerate(women)}

    def row(p: Person, partner_at, same_at) -> dict:
        """p's row: a partner keyed by index, a person of p's side by ~index, anyone else by (b,)."""
        keyed = {}
        for b, r in ranks.get(p, {}).items():
            if b in partner_at:
                keyed[partner_at[b]] = r
            else:
                keyed[~same_at[b] if b in same_at else (b,)] = r
        return keyed

    m_rows = [row(p, woman_at, man_at) for p in men]
    w_rows = [row(p, man_at, woman_at) for p in women]
    _check_people(men, women)
    for p in ranks:
        if p not in man_at and p not in woman_at:
            raise ValidationError(f"preferences given for unknown person {p}")
    return _build(men, women, m_rows, w_rows, k)


def _check_people(men, women) -> None:
    """Raise the first bad, reserved or repeated name, then the first person on the wrong side."""
    seen: set[str] = set()
    for p in men + women:
        _check_name(p.name)
        if p.name in seen:
            raise ValidationError(f"duplicate person name {p.name!r}")
        seen.add(p.name)
    for p in men:
        if p.side != MAN:
            raise ValidationError(f"{p} listed among men")
    for p in women:
        if p.side != WOMAN:
            raise ValidationError(f"{p} listed among women")


def _build(men, women, m_rows, w_rows, k, loose=None) -> Instance:
    """Check k and the rows, then store each row in rank order, sorting only those that are not.

    ``make_instance`` proves nothing about its rows, so each is scanned
    entry by entry.  A reader has proven that every key is an int and
    every rank a non-bool int, and passes ``loose``: the rows whose ranks
    it has not proven to be 1..len in order.  Its rows are scanned only
    when ``_rows_hold`` finds a fault, so that the scan names it, and the
    instance's ``contiguous`` is read off the loose rows alone.
    """
    if k is not None and (not _is_int(k) or k < 0):
        raise ValidationError(f"target k must be a non-negative integer, got {k!r}")
    if loose is None or not _rows_hold(m_rows, w_rows, loose):
        _check_rows(men, women, m_rows, w_rows)
    for row in m_rows + w_rows if loose is None else loose:
        ranks = list(row.values())
        if ranks != sorted(ranks):
            items = sorted(row.items(), key=itemgetter(1))
            row.clear()
            row.update(items)
    inst = Instance(men, women, m_rows, w_rows, k)
    if loose is not None:
        vars(inst)["contiguous"] = not loose or _contiguous(loose)
    return inst


def _rows_hold(m_rows, w_rows, loose) -> bool:
    """Whether ``_check_rows`` finds no fault in rows whose keys and ranks are ints.

    Each row not in ``loose`` ranks its partners 1..len, so only the loose
    rows need their ranks tested: distinct and at least 1.  Each man's key
    must be a woman (a negative key is someone of his own side) whose row
    holds him.  Keys are unique, so when the two sides hold as many
    entries, the women's rows hold exactly the men's pairs, and no key of
    a woman's own side.
    """
    for row in loose:
        ranks = row.values()
        if ranks and (min(ranks) < 1 or len(set(ranks)) != len(row)):
            return False
    for m, row in enumerate(m_rows):
        for w in row:
            if w < 0 or m not in w_rows[w]:
                return False
    return sum(map(len, m_rows)) == sum(map(len, w_rows))


def _check_rows(men, women, m_rows, w_rows) -> None:
    """Raise the first fault in the rows, men before women, each row in input order.

    This is the one place that names a fault in the rows, and the slow
    path that ``_rows_hold`` stands in for when it finds none.
    """
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


def _names(m_names: list[str], w_names: list[str]) -> tuple[dict, dict]:
    """Per side, the row key of each name: ``keys[0]`` for the men's rows, ``keys[1]`` for the women's.

    So ``keys[0]`` also tells an owner's side and position: a woman's
    index, or ``~i`` for man i.  Raises ``ValidationError`` when a name repeats.
    """
    n_m, n_w = len(m_names), len(w_names)
    keys = (dict(zip(w_names, range(n_w))), dict(zip(m_names, range(n_m))))
    keys[0].update(zip(m_names, range(-1, -n_m - 1, -1)))
    keys[1].update(zip(w_names, range(-1, -n_w - 1, -1)))
    if len(keys[0]) != n_m + n_w:
        raise ValidationError("person names must be unique")
    return keys


# ---------------------------------------------------------------------------
# Text format
#
#   # comment
#   men: m1 m2
#   women: w1 w2
#   k: 4
#   m1: w1 w2            (list form: ranks 1, 2, ...)
#   m2: w2=1 w1=3        (functional form: explicit ranks, gaps allowed)
#
# A person line may be omitted for an empty acceptance set.

def parse_instance(text: str, fmt: str = "text") -> Instance:
    """Parse an instance from ``text`` in the given format ("text" or "json")."""
    fmt = fmt.lower()
    if fmt == "text":
        return _parse_text(text)
    if fmt == "json":
        return _parse_json(text)
    raise ParseError(f"unknown format {fmt!r}")


def _parse_text(text: str) -> Instance:
    """Read the text format in two passes over its lines.

    The first pass reads the shape of each line and the men, women and k
    lines, and keeps the person lines; the second reads the person lines
    in line order.  So faults come in this order: a fault in the shape of a
    line or in a men, women or k line, by line; a missing name line; a
    repeated name; then the first fault of a person line, by line.

    Comments are cut only from a text that holds a ``#``.  A list-form row
    is filled by a plain loop, token by token: on rows of a few partners
    CPython runs it faster than a ``map``/``zip`` pipeline, which builds its
    iterators anew for every row.  When the loop meets an unknown partner,
    or fills fewer entries than the row has tokens (a repeated partner),
    ``_token_row`` reads the row again to name its first fault.
    """
    m_names: list[str] | None = None
    w_names: list[str] | None = None
    k: int | None = None
    person_lines: list[tuple[int, str, str]] = []
    comments = "#" in text
    for lineno, line in enumerate(text.splitlines(), start=1):
        if comments:
            line = line.partition("#")[0]
        head, sep, rest = line.partition(":")
        if not sep:
            if line and not line.isspace():
                raise ParseError(f"line {lineno}: expected 'name: ...'")
            continue
        head = head.strip()
        if head == "men":
            if m_names is not None:
                raise ParseError(f"line {lineno}: duplicate 'men:' line")
            m_names = _read_names(rest, lineno)
        elif head == "women":
            if w_names is not None:
                raise ParseError(f"line {lineno}: duplicate 'women:' line")
            w_names = _read_names(rest, lineno)
        elif head == "k":
            if k is not None:
                raise ParseError(f"line {lineno}: duplicate 'k:' line")
            try:
                k = int(rest.strip())  # str.strip() drops a \x1f, which int() refuses
            except ValueError:
                raise ParseError(f"line {lineno}: k must be an integer") from None
        else:
            person_lines.append((lineno, head, rest))
    if m_names is None or w_names is None:
        raise ParseError("missing 'men:' or 'women:' line")
    keys = _names(m_names, w_names)
    rows: tuple[list, list] = ([None] * len(m_names), [None] * len(w_names))
    loose = []  # the functional rows: a list-form row ranks its partners 1..len in order
    for lineno, name, rest in person_lines:
        key = keys[0].get(name)
        if key is None:
            raise ValidationError(f"line {lineno}: unknown person {name!r}")
        side, i = (0, ~key) if key < 0 else (1, key)
        if rows[side][i] is not None:
            raise ParseError(f"line {lineno}: duplicate preference line for {name!r}")
        partners, tokens = keys[side], rest.split()
        if "=" in rest:
            rows[side][i] = row = _token_row(tokens, partners, lineno, True)
            loose.append(row)
            continue
        rows[side][i] = row = {}
        rank = 0
        try:
            for token in tokens:
                rank += 1
                row[partners[token]] = rank
        except KeyError:  # an unknown partner
            pass
        if len(row) != len(tokens):  # an unknown or repeated partner, which _token_row names
            _token_row(tokens, partners, lineno, False)
    # The names were checked as they were read, and each side holds its own people.
    m_rows, w_rows = ([row if row is not None else {} for row in side_rows] for side_rows in rows)
    return _build(_people(MAN, m_names), _people(WOMAN, w_names), m_rows, w_rows, k, loose)


def _people(side: str, names) -> tuple[Person, ...]:
    """``Person(side, name)`` for each name, built in C."""
    return tuple(map(tuple.__new__, repeat(Person), zip(repeat(side), names)))


def _read_names(rest: str, lineno: int) -> list[str]:
    """The names on a ``men:`` or ``women:`` line after its ``:``.

    A name split off the line holds no whitespace, and no ``#`` once
    comments are cut, so only a line that holds a ``:`` or ``=``, or a
    reserved name, needs ``_check_name``'s regex.
    """
    names = rest.split()
    if ":" in rest or "=" in rest or not _RESERVED_NAMES.isdisjoint(names):
        for name in names:
            try:
                _check_name(name)
            except ValidationError as e:
                raise ParseError(f"line {lineno}: {e}") from None
    return names


def _token_row(tokens: list[str], keys: dict, lineno: int, functional: bool) -> dict:
    """A row read token by token, raising at the first bad token."""
    row: dict = {}
    for pos, token in enumerate(tokens, start=1):
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


def _is_int(value) -> bool:
    """A JSON integer; ``true`` and ``false`` are not, though Python's bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _object_without_repeats(pairs) -> dict:
    """A JSON object, refusing a key it repeats: ``json`` alone keeps the last silently."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"duplicate key {key!r} in a JSON object")
        doc[key] = value
    return doc


def _parse_json(text: str) -> Instance:
    try:
        doc = json.loads(text, object_pairs_hook=_object_without_repeats)
    except ParseError:  # a repeated key
        raise
    except (ValueError, RecursionError) as e:  # also an integer past the digit limit, or deep nesting
        raise ParseError(f"bad JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("JSON instance must be an object")
    for key in ("men", "women"):
        if not isinstance(doc.get(key), list):
            raise ParseError(f"JSON instance needs a {key!r} array")
        for name in doc[key]:
            if not isinstance(name, str):
                raise ParseError(f"names in {key!r} must be strings, got {type(name).__name__}")
    men, women = _people(MAN, doc["men"]), _people(WOMAN, doc["women"])
    keys = _names(doc["men"], doc["women"])
    prefs = doc.get("prefs", {})
    if not isinstance(prefs, dict):
        raise ParseError("'prefs' must be an object")
    rows: tuple[list, list] = ([{} for _ in men], [{} for _ in women])
    for name, entries in prefs.items():
        key = keys[0].get(name)
        if key is None:
            raise ValidationError(f"unknown person {name!r} in prefs")
        if not isinstance(entries, list):
            raise ParseError(f"prefs of {name!r} must be an array")
        side, i = (0, ~key) if key < 0 else (1, key)
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
    return _build(men, women, *rows, k, rows[0] + rows[1])


def serialize(inst: Instance, fmt: str = "text") -> str:
    """Serialize so that ``parse_instance(serialize(x)) == x``."""
    fmt = fmt.lower()
    if fmt == "text":
        return _serialize_text(inst)
    if fmt == "json":
        return _serialize_json(inst)
    raise ParseError(f"unknown format {fmt!r}")


def _side_names(side) -> list[str]:
    """A side's names in index order; a ``Roster`` lists them without naming its people."""
    return side.names if isinstance(side, Roster) else [p.name for p in side]


def _serialize_text(inst: Instance) -> str:
    m_names, w_names = _side_names(inst.men), _side_names(inst.women)
    lines = [("men: " + " ".join(m_names)).rstrip(), ("women: " + " ".join(w_names)).rstrip()]
    if inst.target_k is not None:
        lines.append(f"k: {inst.target_k}")
    contiguous = inst.contiguous  # a table lists its partners in rank order
    for owners, tables, partners in ((m_names, inst.m_rank, w_names), (w_names, inst.w_rank, m_names)):
        for a, t in zip(owners, tables):
            row = [a + ":"]
            if contiguous:
                for q in t:
                    row.append(partners[q])
            else:
                for q, r in t.items():
                    row.append(f"{partners[q]}={r}")
            lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def _serialize_json(inst: Instance) -> str:
    m_names, w_names = _side_names(inst.men), _side_names(inst.women)
    prefs = {}
    for owners, tables, partners in ((m_names, inst.m_rank, w_names), (w_names, inst.w_rank, m_names)):
        prefs.update((a, [[partners[q], r] for q, r in t.items()]) for a, t in zip(owners, tables))
    doc = {"men": m_names, "women": w_names, "prefs": prefs, "k": inst.target_k}
    return json.dumps(doc, indent=2) + "\n"
