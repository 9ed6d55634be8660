"""Data model, validation, parsing and serialization for stable marriage instances.

An instance consists of a set of men, a set of women, and one injective
rank function per person over that person's acceptable partners (lower
rank = more preferred).  When every rank image is exactly {1..len} the
instance is an ordinary preference-list instance; otherwise the ranks
form a preference function with gaps.  Both are carried by the same
``Instance`` type, distinguished by the ``contiguous`` flag.  The
algorithms run on ``Instance.index``, built once per instance, and start
from its two extreme stable matchings, ``Instance.mu_m`` and
``Instance.mu_w``, also built once.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

MAN = "M"
WOMAN = "W"

_NAME_RE = re.compile(r"[^\s:=#]+\Z")
_RESERVED_NAMES = frozenset({"men", "women", "k"})


class ParseError(ValueError):
    """Input text or JSON is syntactically malformed."""


class ValidationError(ValueError):
    """A table violates mutuality, injectivity or the person model."""


@dataclass(frozen=True, order=True)
class Person:
    """A side-qualified participant; ``side`` is MAN or WOMAN.

    The hash, ``hash((side, name))``, is computed once at construction:
    people are dict keys in every inner loop.
    """

    side: str
    name: str

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.side, self.name)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never copy, the hash.
        return Person, (self.side, self.name)

    def __repr__(self):
        return f"{self.side}:{self.name}"


@dataclass(frozen=True)
class PreferenceTable:
    """Per-person rank maps plus the list-form flag.

    ``ranks[a][b]`` is the rank person ``a`` assigns to acceptable partner
    ``b``.  ``contiguous`` is true when every person's rank image equals
    {1..number of partners}.  The dicts are never mutated after
    construction.
    """

    ranks: dict[Person, dict[Person, int]]
    contiguous: bool

    @staticmethod
    def from_ranks(ranks: dict[Person, dict[Person, int]]) -> "PreferenceTable":
        contiguous = all(
            sorted(m.values()) == list(range(1, len(m) + 1)) for m in ranks.values()
        )
        return PreferenceTable(ranks, contiguous)


class Partners(NamedTuple):
    """A matching as partner indices: ``by_man[m]`` is man m's woman, -1 if single."""

    by_man: list[int]
    by_woman: list[int]


@dataclass(frozen=True)
class Instance:
    """Two person sets, a preference table and an optional target value."""

    men: tuple[Person, ...]
    women: tuple[Person, ...]
    prefs: PreferenceTable
    target_k: int | None = None

    @property
    def contiguous(self) -> bool:
        return self.prefs.contiguous

    @cached_property
    def people(self) -> tuple[Person, ...]:
        return self.men + self.women

    @cached_property
    def index(self) -> "Index":
        """The integer index, built on first use; the preference dicts never change."""
        return Index(self)

    @cached_property
    def mu_m(self) -> Partners:
        """The man-optimal stable matching over ``index``, by deferred acceptance on first use.

        Every caller shares these arrays: copy one before editing it.
        """
        return gs._mu_m(self.index.m_rank, self.index.w_rank)

    @cached_property
    def mu_w(self) -> Partners:
        """The woman-optimal stable matching, as ``mu_m`` is the man-optimal one."""
        return gs._mu_w(self.index.m_rank, self.index.w_rank)

    def acceptable(self, person: Person) -> dict[Person, int]:
        return self.prefs.ranks[person]

    def rank(self, a: Person, b: Person) -> int:
        return self.prefs.ranks[a][b]


@dataclass(frozen=True)
class Matching:
    """A partial injective assignment of men to women over acceptable pairs."""

    pairs: frozenset[tuple[Person, Person]]

    @staticmethod
    def of(pairs) -> "Matching":
        return Matching(frozenset(pairs))

    @cached_property
    def by_man(self) -> dict[Person, Person]:
        return {m: w for m, w in self.pairs}

    @cached_property
    def by_woman(self) -> dict[Person, Person]:
        return {w: m for m, w in self.pairs}

    def partner(self, person: Person) -> Person | None:
        table = self.by_man if person.side == MAN else self.by_woman
        return table.get(person)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(sorted(self.pairs))


class Index:
    """Integer-indexed view of an instance for the inner algorithm loops.

    Men and women are numbered in instance order.  ``m_rank[m]`` maps each
    acceptable woman's index to man m's rank of her, in rank order, best
    first; ``w_rank`` does the same for women.  Get it as
    ``Instance.index``, which builds it once.
    """

    __slots__ = ("men", "women", "man_index", "woman_index", "m_rank", "w_rank")

    def __init__(self, inst: Instance):
        self.men = inst.men
        self.women = inst.women
        self.man_index = {p: i for i, p in enumerate(inst.men)}
        self.woman_index = {p: i for i, p in enumerate(inst.women)}
        ranks = inst.prefs.ranks

        def side(people, partner_index):
            return [
                {partner_index[q]: r for q, r in sorted(ranks[p].items(), key=lambda item: item[1])}
                for p in people
            ]

        self.m_rank = side(inst.men, self.woman_index)
        self.w_rank = side(inst.women, self.man_index)

    def matching_from_arrays(self, partner_of_man: list[int]) -> Matching:
        return Matching.of(
            (self.men[m], self.women[w])
            for m, w in enumerate(partner_of_man)
            if w >= 0
        )

    def arrays_from_matching(self, mu: Matching) -> tuple[list[int], list[int]]:
        man_to = [-1] * len(self.men)
        woman_to = [-1] * len(self.women)
        for man, woman in mu.pairs:
            man_to[self.man_index[man]] = self.woman_index[woman]
            woman_to[self.woman_index[woman]] = self.man_index[man]
        return man_to, woman_to


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValidationError(f"bad person name {name!r}")
    if name in _RESERVED_NAMES:
        raise ValidationError(f"person name {name!r} is reserved")
    return name


def make_instance(
    men,
    women,
    ranks: dict[Person, dict[Person, int]],
    k: int | None = None,
    *,
    validate: bool = True,
) -> Instance:
    """Build a validated ``Instance``; people missing from ``ranks`` get empty sets.

    ``validate=False`` skips the structural checks; it is used internally on
    tables that are valid by construction.
    """
    men = tuple(men)
    women = tuple(women)
    full = {p: ranks.get(p, {}) for p in men + women}
    if validate:
        _validate(men, women, full, k)
    return Instance(men, women, PreferenceTable.from_ranks(full), k)


def _validate(men, women, ranks, k):
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
    people = set(men) | set(women)
    if set(ranks) - people:
        extra = sorted(set(ranks) - people)[0]
        raise ValidationError(f"preferences given for unknown person {extra}")
    if k is not None and (not isinstance(k, int) or k < 0):
        raise ValidationError(f"target k must be a non-negative integer, got {k!r}")
    for a, table in ranks.items():
        values = list(table.values())
        if len(set(values)) != len(values):
            raise ValidationError(f"duplicate rank value in the list of {a}")
        for b, r in table.items():
            if b not in people:
                raise ValidationError(f"{a} ranks unknown person {b}")
            if b.side == a.side:
                raise ValidationError(f"{a} ranks {b} on the same side")
            if not isinstance(r, int) or r < 1:
                raise ValidationError(f"rank of {b} in list of {a} must be a positive integer")
            if a not in ranks.get(b, {}):
                raise ValidationError(f"mutual acceptability violated for ({a}, {b})")


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
    men: list[Person] | None = None
    women: list[Person] | None = None
    k: int | None = None
    raw_lines: list[tuple[int, str, str]] = []
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
            men = [Person(MAN, _parse_name(t, lineno)) for t in rest.split()]
        elif head == "women":
            if women is not None:
                raise ParseError(f"line {lineno}: duplicate 'women:' line")
            women = [Person(WOMAN, _parse_name(t, lineno)) for t in rest.split()]
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

    by_name = {p.name: p for p in men + women}
    if len(by_name) != len(men) + len(women):
        raise ValidationError("person names must be unique")
    ranks: dict[Person, dict[Person, int]] = {}
    for lineno, name, rest in raw_lines:
        if name not in by_name:
            raise ValidationError(f"line {lineno}: unknown person {name!r}")
        owner = by_name[name]
        if owner in ranks:
            raise ParseError(f"line {lineno}: duplicate preference line for {name!r}")
        ranks[owner] = _parse_pref_tokens(rest.split(), by_name, lineno)
    return make_instance(men, women, ranks, k)


def _parse_name(token: str, lineno: int) -> str:
    try:
        return _check_name(token)
    except ValidationError as e:
        raise ParseError(f"line {lineno}: {e}") from None


def _parse_pref_tokens(tokens, by_name, lineno) -> dict[Person, int]:
    functional = any("=" in t for t in tokens)
    table: dict[Person, int] = {}
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
        if name not in by_name:
            raise ValidationError(f"line {lineno}: unknown person {name!r}")
        partner = by_name[name]
        if partner in table:
            raise ValidationError(f"line {lineno}: duplicate partner {name!r}")
        table[partner] = rank
    return table


def _is_int(value) -> bool:
    """A JSON integer; ``true`` and ``false`` are not, though Python's bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_json(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("JSON instance must be an object")
    for key in ("men", "women"):
        if not isinstance(doc.get(key), list):
            raise ParseError(f"JSON instance needs a {key!r} array")
        for name in doc[key]:
            if not isinstance(name, str):
                raise ParseError(f"names in {key!r} must be strings, got {name!r}")
    men = [Person(MAN, n) for n in doc["men"]]
    women = [Person(WOMAN, n) for n in doc["women"]]
    by_name = {p.name: p for p in men + women}
    if len(by_name) != len(men) + len(women):
        raise ValidationError("person names must be unique")
    prefs = doc.get("prefs", {})
    if not isinstance(prefs, dict):
        raise ParseError("'prefs' must be an object")
    ranks: dict[Person, dict[Person, int]] = {}
    for name, entries in prefs.items():
        if name not in by_name:
            raise ValidationError(f"unknown person {name!r} in prefs")
        if not isinstance(entries, list):
            raise ParseError(f"prefs of {name!r} must be an array")
        table: dict[Person, int] = {}
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ParseError(f"prefs of {name!r} must be [partner, rank] pairs")
            partner_name, rank = entry
            if not isinstance(partner_name, str):
                raise ParseError(f"partner names in prefs of {name!r} must be strings")
            if partner_name not in by_name:
                raise ValidationError(f"unknown person {partner_name!r} in prefs of {name!r}")
            partner = by_name[partner_name]
            if partner in table:
                raise ValidationError(f"duplicate partner {partner_name!r} in prefs of {name!r}")
            if not _is_int(rank):
                raise ParseError(f"rank of {partner_name!r} in prefs of {name!r} must be an integer")
            table[partner] = rank
        ranks[by_name[name]] = table
    k = doc.get("k")
    if k is not None and not _is_int(k):
        raise ParseError("k must be an integer or null")
    return make_instance(men, women, ranks, k)


def serialize(inst: Instance, fmt: str = "text") -> str:
    """Serialize so that ``parse_instance(serialize(x)) == x``."""
    fmt = fmt.lower()
    if fmt == "text":
        return _serialize_text(inst)
    if fmt == "json":
        return _serialize_json(inst)
    raise ParseError(f"unknown format {fmt!r}")


def _sorted_partners(inst: Instance, p: Person) -> list[tuple[Person, int]]:
    return sorted(inst.prefs.ranks[p].items(), key=lambda item: item[1])


def _serialize_text(inst: Instance) -> str:
    lines = [
        ("men: " + " ".join(p.name for p in inst.men)).rstrip(),
        ("women: " + " ".join(p.name for p in inst.women)).rstrip(),
    ]
    if inst.target_k is not None:
        lines.append(f"k: {inst.target_k}")
    for p in inst.people:
        entries = _sorted_partners(inst, p)
        if inst.contiguous:
            body = " ".join(b.name for b, _ in entries)
        else:
            body = " ".join(f"{b.name}={r}" for b, r in entries)
        lines.append(f"{p.name}: {body}".rstrip())
    return "\n".join(lines) + "\n"


def _serialize_json(inst: Instance) -> str:
    doc = {
        "men": [p.name for p in inst.men],
        "women": [p.name for p in inst.women],
        "prefs": {
            p.name: [[b.name, r] for b, r in _sorted_partners(inst, p)]
            for p in inst.people
        },
        "k": inst.target_k,
    }
    return json.dumps(doc, indent=2) + "\n"


# Last, as gs imports this module: by now every name gs needs from it is defined.
from . import gs  # noqa: E402
