import json
import pickle
import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from bsm.generate import planted_instance, random_instance
from bsm.hardness import Graph, reduce_clique
from bsm.instance import (
    MAN,
    WOMAN,
    Matching,
    ParseError,
    Person,
    Roster,
    ValidationError,
    _rows_hold,
    cost,
    make_instance,
    parse_instance,
    serialize,
)
from helpers import (
    INT_DIGITS,
    empty_instance,
    functional_instance,
    pool_entries,
    reference_contiguous,
    reference_parse,
    reference_serialize_text,
    sad_2x2,
    single_pair,
    verify_cases,
)


def test_parse_list_form():
    inst = sad_2x2()
    assert [p.name for p in inst.men] == ["m1", "m2"]
    assert [p.name for p in inst.women] == ["w1", "w2"]
    assert inst.target_k == 4
    assert inst.contiguous
    m1, m2 = inst.men
    w1, w2 = inst.women
    ranks = inst.prefs.ranks
    assert ranks[m1][w1] == 1 and ranks[m1][w2] == 2
    assert ranks[w1][m2] == 1 and ranks[w1][m1] == 2


def test_parse_duplicate_partner_rejected():
    bad = """
men: m1 m2
women: w1 w2
m1: w2 w2
m2: w2 w1
w1: m2
w2: m1 m2
"""
    with pytest.raises(ValidationError, match="duplicate"):
        parse_instance(bad)


def test_parse_functional_form():
    text = """
men: m1
women: w1 w2
m1: w1=1 w2=3
w1: m1=1
w2: m1=1
"""
    inst = parse_instance(text)
    assert not inst.contiguous
    m1 = inst.men[0]
    assert sorted(inst.prefs.ranks[m1].values()) == [1, 3]


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_instance("men m1\nwomen: w1\n")
    with pytest.raises(ParseError):
        parse_instance("men: m1\nwomen: w1\nk: x\n")
    with pytest.raises(ValidationError, match="unknown"):
        parse_instance("men: m1\nwomen: w1\nm1: w9\nw1: m1\n")
    with pytest.raises(ValidationError, match="mutual"):
        parse_instance("men: m1\nwomen: w1\nm1: w1\n")
    with pytest.raises(ValidationError, match="unique"):
        parse_instance("men: a\nwomen: a\n")
    with pytest.raises(ParseError, match="reserved"):
        parse_instance("men: k\nwomen: w1\n")
    with pytest.raises(ValidationError, match="duplicate rank"):
        parse_instance("men: m1 m2\nwomen: w1\nm1: w1=1\nm2: w1=1\nw1: m1=2 m2=2\n")


def test_make_instance_refuses_preferences_of_unknown_people():
    m, w, x = Person(MAN, "m"), Person(WOMAN, "w"), Person(MAN, "x")
    with pytest.raises(ValidationError, match="^preferences given for unknown person M:x$"):
        make_instance((m,), (w,), {m: {w: 1}, w: {m: 1}, x: {w: 1}})
    # A known name on the other side is someone else.
    with pytest.raises(ValidationError, match="^preferences given for unknown person W:m$"):
        make_instance((m,), (w,), {m: {w: 1}, w: {m: 1}, Person(WOMAN, "m"): {}})
    # Checked after the names and sides, before the rows and k.
    with pytest.raises(ValidationError, match="reserved"):
        make_instance((Person(MAN, "k"),), (w,), {x: {w: 1}})
    with pytest.raises(ValidationError, match="listed among men"):
        make_instance((Person(WOMAN, "z"),), (w,), {x: {w: 1}})
    with pytest.raises(ValidationError, match="unknown person M:x"):
        make_instance((m,), (w,), {m: {w: 1}, x: {w: 1}}, k=-1)  # m's row is not mutual, k is negative


@pytest.mark.parametrize(
    "text, fmt, first",
    [
        # Line order would report w1's rank first: men come before women.
        ("men: m1 m2\nwomen: w1\nw1: m1=0\nm2: w1\n", "text", "mutual acceptability violated for (M:m2, W:w1)"),
        # Rank order would report w1's rank first: each list is checked in input order.
        ("men: m1\nwomen: w1 w2\nm1: w2=3 w1=0\nw1: m1\n", "text", "mutual acceptability violated for (M:m1, W:w2)"),
        (
            '{"men": ["m1"], "women": ["w1", "w2"], "prefs": {"m1": [["w2", 3], ["w1", 0]], "w1": [["m1", 1]]}}',
            "json",
            "mutual acceptability violated for (M:m1, W:w2)",
        ),
        # Parse-time faults come in line order, before any validation fault.
        ("men: m1\nwomen: w1\nm1: w1=0\nw1: zz\nm1: w1\n", "text", "line 4: unknown person 'zz'"),
    ],
)
def test_the_first_of_two_faults_is_reported(text, fmt, first):
    with pytest.raises(ValueError) as raised:
        parse_instance(text, fmt)
    assert str(raised.value) == first


def test_json_booleans_are_not_integers():
    # JSON true would come back from serialize as "k: True", which no parser reads.
    pair = '"men": ["m1"], "women": ["w1"], "prefs": {"m1": [["w1", RANK]], "w1": [["m1", 1]]}'
    parse_instance("{" + pair.replace("RANK", "1") + ', "k": 1}', "json")
    with pytest.raises(ParseError, match="k must be"):
        parse_instance("{" + pair.replace("RANK", "1") + ', "k": true}', "json")
    with pytest.raises(ParseError, match="rank of"):
        parse_instance("{" + pair.replace("RANK", "true") + "}", "json")


def test_json_shapes_are_checked():
    with pytest.raises(ParseError, match="'prefs' must be an object"):
        parse_instance('{"men": ["a"], "women": ["b"], "prefs": [1]}', "json")
    with pytest.raises(ParseError, match="must be an array"):
        parse_instance('{"men": ["a"], "women": ["b"], "prefs": {"a": 5}}', "json")
    with pytest.raises(ParseError, match="must be strings"):
        parse_instance('{"men": [1], "women": ["b"]}', "json")
    with pytest.raises(ParseError, match="must be strings"):
        parse_instance('{"men": ["a"], "women": ["b"], "prefs": {"a": [[["b"], 1]]}}', "json")
    # JSON alone keeps the last of a repeated key; the parser refuses it at any level.
    repeated = (
        '{"men": ["m1"], "women": ["w1", "w2"], "prefs": {"m1": [["w1", 1]], "m1": [["w2", 1]], "w2": [["m1", 1]]}}',
        '{"men": ["m1"], "men": [], "women": ["w1"]}',
    )
    for text in repeated:
        with pytest.raises(ParseError, match="duplicate key '(m1|men)' in a JSON object"):
            parse_instance(text, "json")


def test_missing_person_line_means_empty_list():
    inst = parse_instance("men: m1 m2\nwomen: w1\nm1: w1\nw1: m1\n")
    m2 = inst.men[1]
    assert inst.prefs.ranks[m2] == {}


def test_gap_filling_gives_a_list_form_kernel():
    import random

    from bsm.generate import random_instance
    from bsm.kernel import OUTCOME_KERNEL, kernelize

    rng = random.Random(11)
    for _ in range(40):
        inst = random_instance(rng, 4, 4)
        from bsm.gs import optima

        opt = optima(inst)
        result = kernelize(inst, max(opt.o_m, opt.o_w) + 2)
        if result.outcome == OUTCOME_KERNEL:
            assert result.kernel.contiguous
            return
    pytest.skip("no kernel outcome in the sample")


def test_round_trip_canned():
    for inst in (sad_2x2(), single_pair(), empty_instance()):
        assert parse_instance(serialize(inst)) == inst
        assert parse_instance(serialize(inst, "json"), "json") == inst


def test_empty_instance_serializes_to_trivial_yes_form():
    text = serialize(empty_instance(0))
    reparsed = parse_instance(text)
    assert reparsed.men == () and reparsed.women == () and reparsed.target_k == 0


def test_text_writer_matches_the_pairwise_reference_byte_for_byte():
    # verify_cases() holds 7v5e to 10v10e reductions, planted and triangle-free, and two fallbacks.
    arts = [reduce_clique(graph, k) for _, graph, k in verify_cases()]
    assert {len(art.inst.men) for art in arts} >= {181, 1573} and any(art.fallback for art in arts)
    for art in arts:
        text = serialize(art.inst)  # a full reduction's Roster sides are written by name, never named as people
        assert art.fallback or not any("people" in vars(side) for side in (art.inst.men, art.inst.women))
        assert text == reference_serialize_text(art.inst)
    insts = [random_instance(random.Random(seed), n, n, 1.0) for n, seed, *_ in pool_entries()]
    gapped = functional_instance(
        {"m1": {"w1": 1, "w2": 3}, "m2": {"w2": 2}}, {"w1": {"m1": 4}, "w2": {"m2": 1, "m1": 5}, "w3": {}}, k=5
    )
    insts += [gapped, empty_instance(None), sad_2x2()]
    assert not gapped.contiguous and sum(inst.contiguous for inst in insts) == len(insts) - 1
    for inst in insts:
        assert serialize(inst) == reference_serialize_text(inst)


def test_contiguous_is_the_largest_rank_test_on_reductions_and_parsed_instances():
    # Every table is stored in rank order, so its last rank is its largest.  A
    # reader records the flag as it builds; everyone else derives it on first read.
    insts = [reduce_clique(graph, k).inst for _, graph, k in verify_cases()]
    # Gapped: fewer than two dummies.
    insts += [reduce_clique(Graph.build("abcd", []), 1).inst, reduce_clique(Graph.build("abcdefg", [("c", "f")]), 2).inst]
    assert {inst.contiguous for inst in insts} == {True, False}
    for inst in insts:
        assert inst.contiguous == reference_contiguous(inst)
        for fmt in ("text", "json"):
            parsed = parse_instance(serialize(inst, fmt), fmt)
            assert "contiguous" in vars(parsed) and parsed.contiguous == inst.contiguous
    assert "contiguous" not in vars(make_instance(sad_2x2().men, sad_2x2().women, {}))


def test_functional_round_trip_preserves_explicit_ranks():
    gapped = functional_instance(
        {"m1": {"w1": 1, "w2": 3}}, {"w1": {"m1": 1}, "w2": {"m1": 1}}, k=5
    )
    text = serialize(gapped)
    assert "w2=3" in text
    assert parse_instance(text) == gapped


@st.composite
def people_ranks(draw):
    """(men, women, people-keyed ranks, k); with gaps, each list comes out of rank order."""
    n_men = draw(st.integers(0, 4))
    n_women = draw(st.integers(0, 4))
    men = [Person(MAN, f"m{i}") for i in range(n_men)]
    women = [Person(WOMAN, f"w{i}") for i in range(n_women)]
    accept = {
        (m, w): draw(st.booleans()) for m in men for w in women
    }
    gapped = draw(st.booleans())

    def table(mine):
        order = draw(st.permutations(mine))
        if not gapped:
            return {q: i for i, q in enumerate(order, start=1)}
        values = sorted(draw(st.sets(st.integers(1, 9), min_size=len(order), max_size=len(order))))
        return dict(draw(st.permutations(list(zip(order, values)))))

    ranks = {}
    for m in men:
        ranks[m] = table([w for w in women if accept[(m, w)]])
    for w in women:
        ranks[w] = table([m for m in men if accept[(m, w)]])
    k = draw(st.one_of(st.none(), st.integers(0, 30)))
    return men, women, ranks, k


@st.composite
def instances(draw):
    return make_instance(*draw(people_ranks()))


@settings(max_examples=60, deadline=None)
@given(instances())
def test_round_trip_property(inst):
    assert parse_instance(serialize(inst)) == inst
    assert parse_instance(serialize(inst, "json"), "json") == inst


@settings(max_examples=80, deadline=None)
@given(people_ranks())
def test_people_and_table_constructors_build_equal_instances(case):
    men, women, ranks, k = case
    # The reference: each list keyed by partner position, sorted by rank.
    position = {p: i for side in (men, women) for i, p in enumerate(side)}
    want = [
        [(position[q], r) for q, r in sorted(ranks[p].items(), key=lambda item: item[1])]
        for p in men + women
    ]
    contiguous = all(sorted(t.values()) == list(range(1, len(t) + 1)) for t in ranks.values())
    inst = make_instance(men, women, ranks, k)
    for built in (inst, parse_instance(serialize(inst)), parse_instance(serialize(inst, "json"), "json")):
        assert [list(t.items()) for t in built.m_rank + built.w_rank] == want
        assert (built.contiguous, built.target_k) == (contiguous, k)
        assert built == inst
    assert inst.prefs.ranks == ranks


def test_matching_partner_lookup():
    inst = sad_2x2()
    m1, m2 = inst.men
    w1, w2 = inst.women
    mu = Matching.of([(m1, w1), (m2, w2)])
    assert mu.by_man == dict(mu.pairs) == {m1: w1, m2: w2}
    assert {w: m for m, w in mu.pairs}[w2] == m2
    assert Person(MAN, "m3") not in mu.by_man
    assert len(mu) == 2


def test_person_hash_is_the_hash_of_side_and_name():
    a, b = Person(MAN, "a"), Person(MAN, "a")
    assert hash(a) == hash(b) == hash((MAN, "a"))
    assert a == b and a != Person(WOMAN, "a") and a < Person(MAN, "b")
    assert repr(a) == "M:a" and list(Person._fields) == ["side", "name"]
    copied = pickle.loads(pickle.dumps(a))
    assert copied == a and hash(copied) == hash(a)
    assert a._replace(name="b") == Person(MAN, "b")
    assert hash(a._replace(name="b")) == hash((MAN, "b"))


def test_a_roster_names_its_people_on_first_read_and_acts_as_their_tuple():
    calls = []
    roster = Roster(WOMAN, 2, lambda: calls.append(1) or ["a", "b"])
    people = (Person(WOMAN, "a"), Person(WOMAN, "b"))
    assert len(roster) == 2 and not calls
    assert roster == people and people == roster and roster != people[:1] and roster == Roster(WOMAN, 2, "a b".split)
    assert roster[1] == people[1] and roster[:1] == people[:1] and list(roster) == list(people)
    assert roster + people[:1] == people + people[:1] and roster + roster == people + people
    assert people[1] in roster and calls == [1]
    copied = pickle.loads(pickle.dumps(Roster(WOMAN, 2, "a b".split)))
    assert len(copied) == 2 and copied == people


_M, _W, _M2, _Z = Person(MAN, "m"), Person(WOMAN, "w"), Person(MAN, "m2"), Person(WOMAN, "z")
@pytest.mark.parametrize("build, error, message", [
    # The text parser, one fault per input.
    pytest.param(lambda: parse_instance("men: m1\nmen: m2\nwomen: w1\n"), ParseError,
                 "line 2: duplicate 'men:' line", id="text-duplicate-men"),
    pytest.param(lambda: parse_instance("men: m1\nwomen: w1\nwomen: w2\n"), ParseError,
                 "line 3: duplicate 'women:' line", id="text-duplicate-women"),
    pytest.param(lambda: parse_instance("men: m1\nwomen: w1\nk: 1\nk: 2\n"), ParseError,
                 "line 4: duplicate 'k:' line", id="text-duplicate-k"),
    pytest.param(lambda: parse_instance("women: w1\n"), ParseError,
                 "missing 'men:' or 'women:' line", id="text-missing-men"),
    pytest.param(lambda: parse_instance("men: m1\n"), ParseError,
                 "missing 'men:' or 'women:' line", id="text-missing-women"),
    pytest.param(lambda: parse_instance("men: m1\nwomen: w1\nz9: w1\n"), ValidationError,
                 "line 3: unknown person 'z9'", id="text-unknown-owner"),
    pytest.param(lambda: parse_instance("men: m1\nwomen: w1\nm1: w1\nm1: w1\nw1: m1\n"), ParseError,
                 "line 4: duplicate preference line for 'm1'", id="text-duplicate-line"),
    pytest.param(lambda: parse_instance("men: m1\nwomen: w1 w2\nm1: w1=1 w2\n"), ParseError,
                 "line 3: mixed list and functional tokens", id="text-mixed-tokens"),
    pytest.param(lambda: parse_instance("men: m1\nwomen: w1\nm1: w1=x\n"), ParseError,
                 "line 3: bad rank 'x'", id="text-bad-rank"),
    # The JSON parser.
    pytest.param(lambda: parse_instance("{bad json", "json"), ParseError,
                 "bad JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
                 id="json-bad"),
    pytest.param(lambda: parse_instance('{"women": []}', "json"), ParseError,
                 "JSON instance needs a 'men' array", id="json-missing-men"),
    # The fault names the value's type: the value itself may be nested far and long.
    pytest.param(lambda: parse_instance('{"men": [["a"]], "women": []}', "json"), ParseError,
                 "names in 'men' must be strings, got list", id="json-name-not-a-string"),
    pytest.param(lambda: parse_instance('{"men": [], "women": [], "prefs": {"z": []}}', "json"),
                 ValidationError, "unknown person 'z' in prefs", id="json-unknown-owner"),
    pytest.param(lambda: parse_instance('{"men": ["a"], "women": ["b"], "prefs": {"a": [["b"]]}}', "json"),
                 ParseError, "prefs of 'a' must be [partner, rank] pairs", id="json-not-a-pair"),
    pytest.param(lambda: parse_instance('{"men": ["a"], "women": ["b"], "prefs": {"a": [["c", 1]]}}', "json"),
                 ValidationError, "unknown person 'c' in prefs of 'a'", id="json-unknown-partner"),
    pytest.param(
        lambda: parse_instance('{"men": ["a"], "women": ["b"], "prefs": {"a": [["b", 1], ["b", 2]]}}', "json"),
        ValidationError, "duplicate partner 'b' in prefs of 'a'", id="json-duplicate-partner"),
    pytest.param(lambda: parse_instance('{"men": [], "men": [], "women": []}', "json"), ParseError,
                 "duplicate key 'men' in a JSON object", id="json-duplicate-key"),
    # json.loads raises a plain ValueError for these, not a JSONDecodeError.
    pytest.param(lambda: parse_instance('{"men": [], "women": [], "k": %s}' % ("9" * (INT_DIGITS + 1)), "json"),
                 ParseError, f"bad JSON: Exceeds the limit ({INT_DIGITS} digits) for integer string conversion: "
                 f"value has {INT_DIGITS + 1} digits; use sys.set_int_max_str_digits() to increase the limit",
                 id="json-too-many-digits", marks=pytest.mark.skipif(not INT_DIGITS, reason="no digit limit")),
    pytest.param(lambda: parse_instance('{"men": %s, "women": []}' % ("[" * 100_000 + "]" * 100_000), "json"),
                 ParseError, "bad JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string",
                 id="json-too-deep"),
    # Formats.
    pytest.param(lambda: parse_instance("", "yaml"), ParseError, "unknown format 'yaml'", id="parse-format"),
    pytest.param(lambda: serialize(sad_2x2(), "yaml"), ParseError, "unknown format 'yaml'", id="serialize-format"),
    # make_instance.
    pytest.param(lambda: make_instance((Person(MAN, "a b"),), (), {}), ValidationError,
                 "bad person name 'a b'", id="make-bad-name"),
    pytest.param(lambda: make_instance((_M,), (Person(WOMAN, "m"),), {}), ValidationError,
                 "duplicate person name 'm'", id="make-duplicate-name"),
    pytest.param(lambda: make_instance((), (Person(MAN, "z"),), {}), ValidationError,
                 "M:z listed among women", id="make-man-among-women"),
    pytest.param(lambda: make_instance((_M,), (_W,), {_M: {_W: 1}, _W: {_M: 1}}, k=-1), ValidationError,
                 "target k must be a non-negative integer, got -1", id="make-bad-k"),
    pytest.param(lambda: make_instance((_M,), (_W,), {_M: {_Z: 1}}), ValidationError,
                 "M:m ranks unknown person W:z", id="make-unknown-partner"),
    # An int key is not a person, not an index into the other side.
    pytest.param(lambda: make_instance((_M,), (_W,), {_M: {0: 1}, _W: {_M: 1}}), ValidationError,
                 "M:m ranks unknown person 0", id="make-int-partner-in-range"),
    pytest.param(lambda: make_instance((_M,), (_W,), {_M: {5: 1}}), ValidationError,
                 "M:m ranks unknown person 5", id="make-int-partner-out-of-range"),
    pytest.param(lambda: make_instance((_M,), (_W,), {_M: {-1: 1}}), ValidationError,
                 "M:m ranks unknown person -1", id="make-negative-int-partner"),
    pytest.param(lambda: make_instance((_M, _M2), (_W,), {_M: {_M2: 1}}), ValidationError,
                 "M:m ranks M:m2 on the same side", id="make-same-side"),
    pytest.param(lambda: make_instance((_M,), (_W,), {_M: {_W: 0}, _W: {_M: 1}}), ValidationError,
                 "rank of W:w in list of M:m must be a positive integer", id="make-non-positive-rank"),
    pytest.param(lambda: make_instance((_M,), (_W,), {_M: {_W: 1}, _W: {_M: 1}}, k=True), ValidationError,
                 "target k must be a non-negative integer, got True", id="make-bool-k"),
    pytest.param(lambda: make_instance((_M,), (_W, _Z), {_M: {_W: True, _Z: 3}, _W: {_M: 1}, _Z: {_M: 1}}),
                 ValidationError, "rank of W:w in list of M:m must be a positive integer", id="make-bool-rank"),
])
def test_each_input_error_names_its_fault(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message


# --- the readers against the reference reader -------------------------------

def reads_alike(text: str, fmt: str) -> bool:
    """Assert that ``parse_instance`` reads ``text`` as the reference reader does; True if it is valid.

    A fault must come with the same class and message.  A valid input must
    give the reference's instance, equal, rows in the same order, to
    ``make_instance`` of the same tables.
    """
    try:
        want = reference_parse(text, fmt)
    except (ParseError, ValidationError) as fault:
        with pytest.raises(type(fault)) as raised:
            parse_instance(text, fmt)
        assert type(raised.value) is type(fault) and str(raised.value) == str(fault)
        return False
    got = parse_instance(text, fmt)
    assert got.contiguous == reference_contiguous(got)
    # Valid rows pass the whole-table test: the ordered scan runs only to name a fault.
    assert _rows_hold(got.m_rank, got.w_rank, got.m_rank + got.w_rank)
    rebuilt = make_instance(want.men, want.women, want.prefs.ranks, want.target_k)
    assert got == want == rebuilt
    assert [list(t.items()) for t in got.m_rank + got.w_rank] == [
        list(t.items()) for t in rebuilt.m_rank + rebuilt.w_rank
    ]
    return True


MUTATIONS = (
    "unknown-partner", "unknown-owner", "repeated-partner", "same-side", "women-only-pair",
    "rank-0", "rank-minus-1", "repeated-rank", "mixed-rows", "negative-k",
)


@st.composite
def read_cases(draw, fmt: str, mutation: str | None) -> str:
    """A serialized instance in ``fmt``, with ``mutation`` and maybe one more applied.

    Rows are [owner, [[partner, rank], ...], functional]; a row in list form
    is written without its ranks, so its partners rank 1..len in order.
    Half the texts are written in list form throughout, and half the text
    ones carry comments: a ``#`` line anywhere and a trailing ``# ...`` on
    some lines.
    """
    men, women, ranks, k = draw(people_ranks())
    m_names, w_names = [p.name for p in men], [p.name for p in women]
    rows = [
        [p.name, [[q.name, r] for q, r in sorted(ranks[p].items(), key=lambda item: item[1])], False]
        for p in men + women
    ]
    for row in rows:
        row[2] = [r for _, r in row[1]] != list(range(1, len(row[1]) + 1))
    mutations = [mutation, *draw(st.lists(st.sampled_from(MUTATIONS), max_size=1))] if mutation else []
    for mutation in mutations:
        pick = draw(st.integers(0, max(len(rows) - 1, 0)))
        row = rows[pick] if rows else None
        if mutation == "unknown-partner" and row:
            row[1].insert(draw(st.integers(0, len(row[1]))), ["z9", len(row[1]) + 1])
        elif mutation == "unknown-owner":
            rows.insert(pick, ["z9", [], False])
        elif mutation == "repeated-partner" and row and row[1]:
            partner = draw(st.sampled_from(row[1]))[0]
            row[1].insert(draw(st.integers(0, len(row[1]))), [partner, len(row[1]) + 1])
        elif mutation == "same-side" and row:
            # A list-form row after clean ones: the first row read stays clean.
            pick = max(pick, 1) if len(rows) > 1 else pick
            row = rows[pick]
            own = m_names if row[0] in m_names else w_names if row[0] in w_names else []
            if own:
                row[1].append([draw(st.sampled_from(own)), len(row[1]) + 1])
        elif mutation == "women-only-pair":
            free = [(m, w) for m in m_names for w in w_names if all(b != w for b, _ in rows[m_names.index(m)][1])]
            if free:
                m, w = draw(st.sampled_from(free))
                entries = next(r for r in rows if r[0] == w)[1]
                entries.append([m, max((r for _, r in entries), default=0) + 1])
        elif mutation in ("rank-0", "rank-minus-1", "repeated-rank") and row and row[1]:
            row[2] = True
            at = draw(st.integers(0, len(row[1]) - 1))
            if mutation == "repeated-rank":
                row[1][at][1] = draw(st.sampled_from(row[1]))[1] if len(row[1]) > 1 else row[1][at][1]
            else:
                row[1][at][1] = 0 if mutation == "rank-0" else -1
        elif mutation == "mixed-rows":
            for row in rows:
                if draw(st.booleans()):
                    row[2] = True
                    row[1] = draw(st.permutations(row[1]))
        elif mutation == "negative-k":
            k = -1
    if draw(st.booleans()):
        for row in rows:
            row[2] = False
    if fmt == "json":
        prefs = {}
        for owner, entries, _ in rows:
            prefs.setdefault(owner, []).extend(entries)
        return json.dumps({"men": m_names, "women": w_names, "prefs": prefs, "k": k})
    colon = draw(st.sampled_from([": ", ":", " : "]))
    heads = [f"men{colon}{' '.join(m_names)}", f"women{colon}{' '.join(w_names)}"]
    heads += [] if k is None else [f"k{colon}{k}"]
    body = [
        f"{owner}{colon}" + " ".join(f"{b}={r}" if functional else b for b, r in entries)
        for owner, entries, functional in rows
    ]
    # The name lines may come anywhere: person lines are read in a second pass.
    lines = draw(st.permutations(heads + body)) if draw(st.booleans()) else heads + body
    lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " \t", "\x1f"])))
    if draw(st.booleans()):
        # A comment may hold any of ':', '=' and a header, which must not be read.
        lines = [line + draw(st.sampled_from(["", "", " # c", "#x: y=1", "\t# men: z"])) for line in lines]
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["# comment", "  # k: 1", "#"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


@pytest.mark.parametrize("text", [
    "men: m1\nwomen: w1\nm1: w1\nw1: m1\n",
    # Person lines before the name lines, faults among them.
    "m1: w1\nmen: m1\nwomen: w1\nw1: m1\n",
    "w1: zz\nm1: yy\nmen: m1\nwomen: w1\n",
    "m1: zz\nmen: m1\nwomen: w1\nk: 1\nk: 2\n",
    "men: m1\nm1: w1\nm1: w1\nwomen: w1\nbad line\n",
    "m1: zz\nmen: m1\n",
    "m1: w1\nm1: w1\nmen: m1\nwomen: w1\nk: x\n",
    # A fault of a line's shape, or of a name, k or repeated name line, beats an earlier person line's.
    "men: m1\nwomen: w1\nm1: zz\nbad line\n",
    "men: m1\nwomen: w1\nm1: w1=x\nwomen: w2\n",
    "men: m1\nwomen: w1\nw1: m1 m1\nk: x\n",
    "men: a\nwomen: a\na: b\n",
    "men: a\nwomen: a\nk: x\n",
    "men: a\nwomen: a\nmen: b\n",
    "men: a\nwomen: a\nbad line\n",
    "men: m1\nwomen: w1\nm1: zz\nmen: m2\n",
    # Names: a ':' or '=' inside, reserved ones, other whitespace.
    "men: a:b\nwomen: w\n",
    "men: x=1 y\nwomen: w\n",
    "men: a k\nwomen: w\n",
    "men: a b c\nwomen: w\nb: w\nw: b\n",
    "men: m1 # men: m2\nwomen: w1 #\nm1 : w1\nw1 :m1\n",
    "men: m1\nwomen: w1\nk:\x1f3\nm1:\n",
    # Rows: same side after clean rows, a pair only the women list, bad functional ranks.
    "men: m1 m2\nwomen: w1\nm1: w1\nm2: w1 m1\nw1: m1 m2\n",
    "men: m1 m2\nwomen: w1 w2\nm1: w1\nm2: w2\nw1: m1 w2\nw2: m2\n",
    "men: m1 m2\nwomen: w1\nm1: w1\nw1: m1 m2\n",
    # Two faults that keep the entry counts equal: the row check must still find them.
    "men: m0 m1\nwomen: w0 w1\nm0: w0 m1\nw0: m0\nw1: m0\n",
    "men: m0\nwomen: w0 w1\nm0: w0\nw1: m0\n",
    "men: m0 m1\nwomen: w0\nm0: m1\n",
    "men: m1\nwomen: w1 w2\nm1: w1=0 w2=1\nw1: m1\nw2: m1\n",
    "men: m1\nwomen: w1 w2\nm1: w1=2 w2=-1\nw1: m1\nw2: m1\n",
    "men: m1\nwomen: w1 w2\nm1: w1=2 w2=2\nw1: m1\nw2: m1\n",
    "men: m1\nwomen: w1\nm1: w1=1 w1=2\nw1: m1\n",
    "men: m1\nwomen: w1 w2\nm1: w1=1 w2\nw1: m1\n",
    # List-form and functional rows mixed, functional ones out of rank order.
    "men: m1 m2\nwomen: w1 w2\nm1: w2=2 w1=1\nm2: w1 w2\nw1: m1 m2\nw2: m2=1 m1=5\n",
    "men: m1 m2\nwomen: w1 w2\nk: 7\nm1: w2=9 w1=4\nm2: w2 w1\nw1: m2=3 m1=1\nw2: m1 m2\n",
    "men: m1 m2\nwomen: w1 w2\nk: -1\nm1: w2 w1\nm2: w1 w2\nw1: m1\nw2: m1 m2\n",
    # List form: person lines shuffled or missing, blank lines, spaces around
    # ':', CRLF ends, k after the person lines.
    "men: m1 m2\nwomen: w1 w2\nw2: m1 m2\nm2: w2 w1\nw1: m2 m1\nm1: w1 w2\n",
    "men: m1 m2\nwomen: w1 w2\nm1: w1\nw1: m1\n",
    "\nmen: m1\n   \nwomen: w1\n\t\nm1: w1\n\n\x1f\nw1: m1\n \n",
    "men : m1 m2\n women:w1\nm1 : w1\n  w1 :m1 \nm2:\n",
    "men: m1 m2\r\nwomen: w1 w2\r\nm1: w2 w1\r\nm2: w1\r\nw1: m1 m2\r\nw2: m1\r\n",
    "men: m1\nwomen: w1\nm1: w1\nw1: m1\nk: 3\n",
    "men: m1\nwomen: w1\nm1: w1\nw1: m1\nk: 3",
    # List form with a fault in a line.
    "",
    " \n\n",
    "men: m1\nwomen: w1\nm1: w1\nw1: m1\nm1 w1\n",
    "men: m1\nwomen: w1\nm1: w1: w1\nw1: m1\n",
    "men: m1\nwomen: w1\nm1: w1\nm1 : w1\nw1: m1\n",
    "men: m1\nmen : m2\nwomen: w1\n",
    "men: m1\nwomen: w1\nk: 1\n k :2\n",
    "men: m1\nwomen: w1\nm1: w1\nw1: m1\nk: 1.5\n",
    "men: m1\nwomen: w1\nk: 99999999999999999999999\nm1: w1\nw1: m1\n",
    "men: k\nwomen: w1\n",
    "men: m1 women\nwomen: w1\n",
    "men: m1 m1\nwomen: w1\n",
    "men: m1\nwomen: w1\n: w1\n",
    "men: m1\nwomen: w1 w2\nm1: w1 w2 w1\nw1: m1\nw2: m1\n",
    "men: m1\nwomen: w1\nm1: w1 w2\nw1: m1\n",
    "men: m1\nwomen: w1\nm 1: w1\n",
    "women: w1\nm1: w1\n",
    # List form that ``_build`` finds at fault.
    "men: m1\nwomen: w1\nk: -3\nm1: w1\nw1: m1\n",
    "men: m1 m2\nwomen: w1\nm1: m2\nw1: m1\n",
    "men: m1\nwomen: w1 w2\nm1: w1\nw1: m1\nw2: m1\n",
    # A list-form row's unknown or repeated partner, in texts with comments or functional rows.
    "# c\nmen: m1\nwomen: w1 w2\nm1: w1 w1\nw1: m1\n",
    "men: m1\nwomen: w1 w2\nm1: w2=1 w1=2\nw1: m1 zz\n",
    "men: m1 # c\nwomen: w1\nm1: w1 # c\nw1: m1 m1\n",
    "men: a=b # c\nwomen: w\n",
])
def test_text_reader_matches_the_reference_reader_on_hand_cases(text):
    reads_alike(text, "text")


@pytest.mark.parametrize("text", [
    '{"men": ["m1"], "women": ["w1", "w2"], "prefs": {"m1": [["w2", 2], ["w1", 1]], "w1": [["m1", 1]],'
    ' "w2": [["m1", 4]]}, "k": 3}',
    '{"men": ["m1", "m2"], "women": ["w1"], "prefs": {"m1": [["w1", 1]], "m2": [["w1", 1], ["m1", 2]],'
    ' "w1": [["m1", 1], ["m2", 2]]}}',
    '{"men": ["m1", "m2"], "women": ["w1"], "prefs": {"m1": [["w1", 1]], "w1": [["m1", 1], ["m2", 2]]}}',
    '{"men": ["m1"], "women": ["w1"], "prefs": {"m1": [["w1", 0]], "w1": [["m1", 1]]}}',
    '{"men": ["m1"], "women": ["w1", "w2"], "prefs": {"m1": [["w1", 3], ["w2", 3]], "w1": [["m1", 1]],'
    ' "w2": [["m1", 1]]}}',
    '{"men": ["m1"], "women": ["w1"], "prefs": {"w1": [["m1", -1]]}, "k": -2}',
    '{"men": ["a b"], "women": ["w"], "prefs": {"w": [["a b", 1]]}}',
])
def test_json_reader_matches_the_reference_reader_on_hand_cases(text):
    reads_alike(text, "json")


@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
@pytest.mark.parametrize("fmt", ["text", "json"])
# No shrink phase: a failing draw is reported as drawn, so a broken reader
# fails this test in seconds rather than shrinking for minutes.
@settings(max_examples=25, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_readers_match_the_reference_reader(fmt, mutation, data):
    valid = reads_alike(data.draw(read_cases(fmt, mutation)), fmt)
    assert valid or mutation is not None  # a serialized instance, lines in any order, reads


def test_the_text_reader_reads_back_corpus_draws_full_lists_and_reductions():
    insts = [random_instance(random.Random(seed), max_side=7) for seed in range(200)]
    # Full lists, the long rows of the ``large`` workload.
    insts += [random_instance(random.Random(seed), n, n, 1.0) for seed, n in enumerate((20, 30, 40))]
    insts += [reduce_clique(graph, k).inst for _, graph, k in verify_cases()]
    assert all(inst.contiguous for inst in insts)
    texts = [serialize(inst) for inst in insts]
    others = [
        "# a comment\n" + texts[0],
        texts[0] + "w99: m1\n",
        "men: m1\nwomen: w1\nm1: w1=2\nw1: m1=1\n",
    ]
    for inst, text in zip(insts, texts):
        assert parse_instance(text) == inst
    for text in others:
        reads_alike(text, "text")


def test_cost_sums_each_matched_persons_rank_of_their_partner_and_nothing_for_a_single():
    insts = [random_instance(random.Random(seed), max_side=7) for seed in range(200)]
    insts += [random_instance(random.Random(seed), n, n, 1.0) for n, seed, *_ in pool_entries()]
    insts += [planted_instance(random.Random(seed), 200, 3, 5) for seed in range(2)]
    insts += [reduce_clique(graph, k).inst for _, graph, k in verify_cases()]
    singles = 0
    for inst in insts:
        for mu in (inst.mu_m, inst.mu_w):
            for tables, partner in ((inst.m_rank, mu.by_man), (inst.w_rank, mu.by_woman)):
                assert cost(tables, partner) == sum(tables[p][q] for p, q in enumerate(partner) if q >= 0)
                singles += list(partner).count(-1)
    assert singles > 0
