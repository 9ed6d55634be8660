import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsm.instance import (
    MAN,
    WOMAN,
    Matching,
    ParseError,
    Person,
    ValidationError,
    make_instance,
    parse_instance,
    serialize,
)
from helpers import empty_instance, functional_instance, sad_2x2, single_pair


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
    assert mu.partner(m1) == w1
    assert mu.partner(w2) == m2
    assert mu.partner(Person(MAN, "m3")) is None
    assert len(mu) == 2


def test_person_hash_is_the_hash_of_side_and_name():
    a, b = Person(MAN, "a"), Person(MAN, "a")
    assert hash(a) == hash(b) == hash((MAN, "a"))
    assert a == b and a != Person(WOMAN, "a") and a < Person(MAN, "b")
    assert repr(a) == "M:a" and [f.name for f in dataclasses.fields(a)] == ["side", "name"]
    copied = pickle.loads(pickle.dumps(a))
    assert copied == a and hash(copied) == hash(a)
    assert dataclasses.replace(a, name="b") == Person(MAN, "b")
    assert hash(dataclasses.replace(a, name="b")) == hash((MAN, "b"))


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
    pytest.param(lambda: parse_instance('{"men": [], "women": [], "prefs": {"z": []}}', "json"),
                 ValidationError, "unknown person 'z' in prefs", id="json-unknown-owner"),
    pytest.param(lambda: parse_instance('{"men": ["a"], "women": ["b"], "prefs": {"a": [["b"]]}}', "json"),
                 ParseError, "prefs of 'a' must be [partner, rank] pairs", id="json-not-a-pair"),
    pytest.param(lambda: parse_instance('{"men": ["a"], "women": ["b"], "prefs": {"a": [["c", 1]]}}', "json"),
                 ValidationError, "unknown person 'c' in prefs of 'a'", id="json-unknown-partner"),
    pytest.param(
        lambda: parse_instance('{"men": ["a"], "women": ["b"], "prefs": {"a": [["b", 1], ["b", 2]]}}', "json"),
        ValidationError, "duplicate partner 'b' in prefs of 'a'", id="json-duplicate-partner"),
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
    pytest.param(lambda: make_instance((_M, _M2), (_W,), {_M: {_M2: 1}}), ValidationError,
                 "M:m ranks M:m2 on the same side", id="make-same-side"),
    pytest.param(lambda: make_instance((_M,), (_W,), {_M: {_W: 0}, _W: {_M: 1}}), ValidationError,
                 "rank of W:w in list of M:m must be a positive integer", id="make-non-positive-rank"),
])
def test_each_input_error_names_its_fault(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message
