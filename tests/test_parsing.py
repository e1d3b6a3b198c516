import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsp import (
    Atom,
    ConstraintLanguage,
    ParseError,
    Relation,
    gamma_star,
    parse_language,
    parse_sentence,
    serialize_language,
    serialize_sentence,
)
from qcsp.parsing import (
    language_from_dict,
    language_to_dict,
    load_language,
    load_sentence,
    sentence_from_dict,
    sentence_to_dict,
)
from helpers import lang_dom3, lang_mixed2, random_sentence

XOR0_DOC = """\
domain 2
relation XOR0 3
0 0 0
0 1 1
1 0 1
1 1 0
end
"""


def test_parse_language_basic():
    lang = parse_language(XOR0_DOC)
    assert lang.domain.size == 2
    assert len(lang.relations["XOR0"]) == 4


def test_parse_language_not():
    lang = parse_language("domain 2\nrelation NOT 2\n0 1\n1 0\nend\n")
    assert lang.relations["NOT"].tuples == frozenset({(0, 1), (1, 0)})


def test_parse_language_comments_and_blanks():
    lang = parse_language("# header\n\ndomain 2\nrelation R 1\n0  # zero\nend\n")
    assert lang.relations["R"].tuples == frozenset({(0,)})


def test_row_length_mismatch_is_error():
    with pytest.raises(ParseError) as err:
        parse_language("domain 2\nrelation R 2\n0 1 0\nend\n")
    assert err.value.line == 3


def test_out_of_range_element_reports_position():
    with pytest.raises(ParseError) as err:
        parse_language("domain 2\nrelation R 2\n0 3\nend\n")
    assert err.value.line == 3
    assert err.value.column == 3


@pytest.mark.parametrize(
    "doc, line, column",
    [
        ("domain 1_0\nrelation R 1\n0\nend\n", 1, 8),
        ("domain 10\nrelation R 1\n+9\nend\n", 3, 1),
        ("domain 2\nrelation R 1\n\u0661\nend\n", 3, 1),
    ],
    ids=["underscore", "plus-sign", "arabic-indic-digit"],
)
def test_integer_tokens_are_ascii_digits_only(doc, line, column):
    with pytest.raises(ParseError, match="expected an integer") as err:
        parse_language(doc)
    assert (err.value.line, err.value.column) == (line, column)


def test_duplicate_relation_name():
    doc = "domain 2\nrelation R 1\n0\nend\nrelation R 1\n1\nend\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_language(doc)


def test_unterminated_block():
    with pytest.raises(ParseError, match="not terminated"):
        parse_language("domain 2\nrelation R 1\n0\n")


def test_missing_domain():
    with pytest.raises(ParseError):
        parse_language("relation R 1\n0\nend\n")


def test_nullary_relation_round_trip():
    lang = parse_language("domain 2\nrelation T 0\n()\nend\nrelation F 0\nend\n")
    assert lang.relations["T"].tuples == frozenset({()})
    assert lang.relations["F"].tuples == frozenset()
    assert parse_language(serialize_language(lang)) == lang


def test_parse_sentence_basic():
    lang = parse_language("domain 2\nrelation NOT 2\n0 1\n1 0\nend\n")
    s = parse_sentence("forall x\nexists y\nconstraint NOT x y\n", lang)
    assert s.prefix == (("forall", "x"), ("exists", "y"))
    assert s.matrix == (Atom("NOT", ("x", "y")),)


def test_parse_sentence_unquantified():
    lang = parse_language("domain 2\nrelation NOT 2\n0 1\n1 0\nend\n")
    with pytest.raises(ParseError, match="not quantified"):
        parse_sentence("exists y\nconstraint NOT x y\n", lang)


def test_parse_sentence_unknown_relation():
    lang = parse_language("domain 2\nrelation NOT 2\n0 1\n1 0\nend\n")
    with pytest.raises(ParseError, match="unknown relation"):
        parse_sentence("forall x\nexists y\nconstraint NOPE x y\n", lang)


def test_parse_sentence_repeated_quantifier():
    lang = parse_language("domain 2\nrelation NOT 2\n0 1\n1 0\nend\n")
    with pytest.raises(ParseError, match="quantified twice"):
        parse_sentence("forall x\nexists x\n", lang)


def test_parse_sentence_arity_mismatch():
    lang = parse_language("domain 2\nrelation NOT 2\n0 1\n1 0\nend\n")
    with pytest.raises(ParseError, match="arity"):
        parse_sentence("forall x\nconstraint NOT x\n", lang)


def test_reserved_variables_rejected_by_default():
    lang = parse_language("domain 2\nrelation NOT 2\n0 1\n1 0\nend\n")
    with pytest.raises(ParseError, match="reserved"):
        parse_sentence("forall x$1\n", lang)
    s = parse_sentence("forall x$1\nexists y\nconstraint NOT x$1 y\n", lang, allow_reserved=True)
    assert s.prefix[0] == ("forall", "x$1")


def test_quantifier_after_constraint_rejected():
    lang = parse_language("domain 2\nrelation NOT 2\n0 1\n1 0\nend\n")
    with pytest.raises(ParseError, match="after the first constraint"):
        parse_sentence("forall x\nconstraint NOT x x\nexists y\n", lang)


def test_language_round_trip():
    lang = lang_mixed2()
    assert parse_language(serialize_language(lang)) == lang
    assert language_from_dict(language_to_dict(lang)) == lang
    star = gamma_star(lang)
    assert parse_language(serialize_language(star)) == star


def test_sentence_round_trip():
    lang = lang_mixed2()
    s = parse_sentence(
        "forall x\nexists y\nconstraint NOT x y\nconstraint XOR0 x y y\n", lang
    )
    assert parse_sentence(serialize_sentence(s), lang) == s
    assert sentence_from_dict(sentence_to_dict(s), lang) == s


def test_transformed_sentence_round_trips_with_reserved_names():
    from qcsp import eliminate_universals

    lang = lang_mixed2()
    s = parse_sentence("forall x\nexists y\nconstraint NOT x y\n", lang)
    inst = eliminate_universals(s)
    doc = serialize_sentence(inst.as_sentence())
    back = parse_sentence(doc, inst.language, allow_reserved=True)
    assert back == inst.as_sentence()


def test_json_loading_by_extension(tmp_path):
    lang = lang_mixed2()
    lpath = tmp_path / "lang.json"
    lpath.write_text(json.dumps(language_to_dict(lang)))
    assert load_language(lpath) == lang

    s = parse_sentence("forall x\nexists y\nconstraint NOT x y\n", lang)
    spath = tmp_path / "sentence.json"
    spath.write_text(json.dumps(sentence_to_dict(s)))
    assert load_sentence(spath, lang) == s

    tpath = tmp_path / "lang.txt"
    tpath.write_text(serialize_language(lang))
    assert load_language(tpath) == lang


def test_json_mirror_errors():
    with pytest.raises(ParseError):
        language_from_dict({"relations": []})
    with pytest.raises(ParseError):
        language_from_dict({"domain": 2, "relations": [{"relation": "R", "arity": 1, "rows": [[2]]}]})


@pytest.mark.parametrize(
    "doc",
    [
        {"domain": True},
        {"domain": False},
        {"domain": 2, "relations": [{"relation": "R", "arity": True, "rows": [[0]]}]},
        {"domain": 2, "relations": [{"relation": "R", "arity": 1, "rows": [[True]]}]},
        {"domain": 2, "relations": [{"relation": "R", "arity": 1, "rows": [[0.0]]}]},
        {"domain": 2, "relations": 5},
        {"domain": 2, "relations": {"relation": "R"}},
        {"domain": 2, "relations": [5]},
        {"domain": 2, "relations": [["R", 1]]},
        {"domain": 2, "relations": [{"relation": "R", "arity": 1, "rows": 0}]},
        {"domain": 2, "relations": [{"relation": "R", "arity": 1, "rows": {"0": 1}}]},
        {"domain": 2, "relations": [{"relation": "R\n", "arity": 1, "rows": []}]},
        # a key outside the format, which would read as a missing list
        {"domain": 2, "relation": [{"relation": "R", "arity": 1, "rows": [[0]]}]},
        {"domain": 2, "relations": [], "language": {}},
        {"domain": 2, "relations": [{"relation": "R", "arity": 1, "row": [[0]]}]},
    ],
)
def test_language_from_dict_rejects_malformed(doc):
    with pytest.raises(ParseError):
        language_from_dict(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"domain": 2, "relation": []}, "language JSON: unknown key 'relation'"),
        ({"domain": 2, "relations": [], "language": {}}, "language JSON: unknown key 'language'"),
        (
            {"domain": 2, "relations": [{"relation": "R", "arity": 1, "rows": [[0]]}, {"relation": "S", "row": []}]},
            "relations entry 1: unknown key 'row'",
        ),
    ],
)
def test_language_from_dict_names_an_unknown_key(doc, message):
    with pytest.raises(ParseError, match=f"^{message}; expected one of "):
        language_from_dict(doc)


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"prefix": 5}, "'prefix' must be a list"),
        ({"prefix": [], "constraints": "NOT x y"}, "'constraints' must be a list"),
        (
            {"prefix": [["forall", "x"], ["exists", "y"]], "constraints": [["NOT", "x y"]]},
            "constraints entry 0",
        ),
        ({"prefix": [["forall", "x"], ["exists", "y"]], "constraints": [["NOT", "x", "y"], ["NOT", "x", 5]]},
         "constraints entry 1"),
        ({"prefix": [["forall", "x # junk"]]}, "prefix entry 0"),
        ({"prefix": [["forall", "x"], ["exists", 5]]}, "prefix entry 1"),
        ({"prefix": [["forall", "x"], ["some", "y"]]}, "prefix entry 1"),
        ({"prefix": [["forall", "x"], ["exists", "x"]]}, "prefix entry 1"),
        ({"prefix": [["forall", "x"], ["exists", "y\n"]]}, "prefix entry 1"),
        ({"prefix": [["forall", "x", "y"]]}, "prefix entry 0"),
        ({"prefix": [["forall", "x$1"]]}, "prefix entry 0"),
        ({"prefix": [["forall", "x"]], "constraints": [["NOT", "x", "z"]]}, "constraints entry 0"),
        ({"prefix": [["forall", "x"]], "constraints": [["NOPE", "x"]]}, "constraints entry 0"),
        ({"prefix": [["forall", "x"]], "constraints": [[]]}, "constraints entry 0"),
        ({"prefix": [["exists", "x"]], "constraint": [["NOT", "x", "x"]]}, "unknown key 'constraint'"),
        ({"sentence": {"prefix": [], "constraints": []}}, "unknown key 'sentence'"),
    ],
)
def test_sentence_from_dict_rejects_malformed(doc, where):
    with pytest.raises(ParseError, match=where):
        sentence_from_dict(doc, lang_mixed2())


def test_sentence_from_dict_reads_reserved_names_when_allowed():
    doc = {"prefix": [["forall", "x$1"], ["exists", "y"]], "constraints": [["NOT", "x$1", "y"]]}
    s = sentence_from_dict(doc, lang_mixed2(), allow_reserved=True)
    assert s.matrix == (Atom("NOT", ("x$1", "y")),)


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=4)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["forall", "exists", "NOT", "XOR0", "x", "y", "x y", "x$1", ""])
    | st.text(max_size=3)
)
_JSON_KEYS = st.sampled_from(["domain", "relations", "relation", "arity", "rows", "prefix", "constraints"])
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_KEYS | st.text(max_size=3), inner, max_size=4),
    max_leaves=24,
)
_RELATION_DICTS = st.fixed_dictionaries({}, optional={"relation": _JSON, "arity": _JSON, "rows": _JSON})


@given(
    _JSON
    | st.fixed_dictionaries(
        {"domain": _JSON_LEAVES}, optional={"relations": _JSON | st.lists(_RELATION_DICTS, max_size=3)}
    )
)
@settings(max_examples=300, deadline=None)
def test_language_from_dict_raises_only_parse_error(doc):
    try:
        lang = language_from_dict(doc)
    except ParseError:
        return
    assert language_from_dict(json.loads(json.dumps(language_to_dict(lang)))) == lang


@given(_JSON | st.fixed_dictionaries({}, optional={"prefix": _JSON, "constraints": _JSON}))
@settings(max_examples=300, deadline=None)
def test_sentence_from_dict_raises_only_parse_error(doc):
    try:
        s = sentence_from_dict(doc, lang_mixed2())
    except ParseError:
        return
    assert sentence_from_dict(sentence_to_dict(s), lang_mixed2()) == s


@st.composite
def languages(draw):
    size = draw(st.integers(min_value=1, max_value=3))
    name = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)
    names = draw(st.lists(name, max_size=3, unique=True))
    relations = []
    for name in names:
        arity = draw(st.integers(min_value=0, max_value=3))
        rows = draw(st.frozensets(st.tuples(*[st.integers(0, size - 1)] * arity), max_size=6))
        relations.append(Relation(name, arity, rows))
    return ConstraintLanguage.of(size, *relations)


@given(languages())
@settings(max_examples=100, deadline=None)
def test_language_dict_round_trip(lang):
    doc = json.loads(json.dumps(language_to_dict(lang)))
    assert language_from_dict(doc) == lang


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(["mixed", "dom3"]))
@settings(max_examples=100, deadline=None)
def test_sentence_dict_round_trip(seed, which):
    lang = lang_mixed2() if which == "mixed" else lang_dom3()
    s = random_sentence(random.Random(seed), lang, max_vars=6, max_atoms=5)
    doc = json.loads(json.dumps(sentence_to_dict(s)))
    assert sentence_from_dict(doc, lang) == s
    assert parse_sentence(serialize_sentence(s), lang) == s


_TEXT_TOKENS = st.sampled_from(
    [
        "domain", "relation", "end", "forall", "exists", "constraint", "NOT", "XOR0",
        "x", "y", "x$1", "()", "0", "1", "2", "-1", "+1", "\u0663", "1_0", "1e3", "0x1",
        "99999999999999999999", "#", " ", "\t", "\n", "\r\n", "\x0b", "\x1c", "\u2028", "\u00a0",
    ]
)
_TEXT_LINES = st.lists(
    st.lists(_TEXT_TOKENS | st.text(max_size=3), max_size=5).map(" ".join), max_size=12
).map("\n".join)
_TEXT_SOUP = (
    st.tuples(st.sampled_from(["", "domain 2\n", "forall x\nexists y\n"]), _TEXT_LINES).map("".join)
    | st.text()
)


@given(_TEXT_SOUP)
@settings(max_examples=300, deadline=None)
def test_parse_language_raises_only_parse_error(text):
    try:
        lang = parse_language(text)
    except ParseError:
        return
    assert parse_language(serialize_language(lang)) == lang


@given(_TEXT_SOUP, st.booleans())
@settings(max_examples=300, deadline=None)
def test_parse_sentence_raises_only_parse_error(text, allow_reserved):
    lang = lang_mixed2()
    try:
        s = parse_sentence(text, lang, allow_reserved=allow_reserved)
    except ParseError:
        return
    assert parse_sentence(serialize_sentence(s), lang, allow_reserved=allow_reserved) == s


def test_parsed_sentences_keep_an_ok_report(monkeypatch):
    # the reader of both formats checks every invariant invariant_report
    # checks, so each sentence it returns keeps an ok report and is not
    # walked again; random documents over valid and invalid names,
    # relations and arities either fail to parse or pass a fresh check
    from qcsp import model

    lang = lang_mixed2()
    rnd = random.Random(191)
    names = ["x", "y", "z", "x$1"]
    parsed = refused = 0
    for _ in range(400):
        prefix = [[rnd.choice(["forall", "exists"]), rnd.choice(names)] for _ in range(rnd.randint(0, 4))]
        constraints = [
            [rnd.choice(["NOT", "XOR0", "NOPE"]), *(rnd.choice(names) for _ in range(rnd.randint(0, 3)))]
            for _ in range(rnd.randint(0, 3))
        ]
        text = "".join(f"{q} {v}\n" for q, v in prefix) + "".join(f"constraint {' '.join(c)}\n" for c in constraints)
        allow = rnd.random() < 0.5
        for read in (
            lambda: parse_sentence(text, lang, allow_reserved=allow),
            lambda: sentence_from_dict({"prefix": prefix, "constraints": constraints}, lang, allow_reserved=allow),
        ):
            try:
                s = read()
            except ParseError:
                refused += 1
                continue
            assert model.invariant_report(s.prefix, s.matrix, lang).ok
            with monkeypatch.context() as patch:
                patch.setattr(model, "invariant_report", lambda *a: pytest.fail("a parsed sentence was checked again"))
                assert model.validate_sentence(s).ok
            parsed += 1
    assert parsed > 100 and refused > 100
