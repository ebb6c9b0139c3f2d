import re

import pytest
from hypothesis import given, settings, strategies as st

from ringops.errors import FixtureError, NotInR, ParseFailure
from ringops.indexcat import E, ExtMap
from ringops.parsing import (
    parse_ff_morphism,
    parse_fixture,
    parse_map,
    parse_morphism,
    parse_poly,
    parse_signature,
    parse_term,
    print_ff_morphism,
    print_map,
    print_morphism,
    print_poly,
    print_term,
    serialize_fixture,
)
from ringops.operads import operad_to_table, strict_operad
from ringops.polynomials import TypeSignature, enumerate_R, rpoly, zero_poly
from ringops.terms import ONE, Term, ZERO, plus, times, var
from ringops.wreath import FFMorphism, FFObject


class TestPolyGrammar:
    def test_example(self):
        assert parse_poly("R(2): x1*x2 + x1") == rpoly(2, [(1, 2), (1,)])

    def test_whitespace_insensitive(self):
        assert parse_poly("R(2):x1*x2+x1") == parse_poly("R(2):  x1 * x2  +  x1")

    def test_zero(self):
        assert parse_poly("R(3): 0") == zero_poly(3)
        assert print_poly(zero_poly(3)) == "R(3): 0"

    def test_duplicate_monomial_rejected(self):
        with pytest.raises(NotInR, match="duplicate"):
            parse_poly("R(1): x1 + x1")

    def test_square_rejected(self):
        with pytest.raises(NotInR, match="square"):
            parse_poly("R(2): x1*x1")

    def test_out_of_range_variable(self):
        with pytest.raises(NotInR, match="out of range"):
            parse_poly("R(1): x2")

    def test_syntax_error_position(self):
        with pytest.raises(ParseFailure) as err:
            parse_poly("R(2): x1 +")
        assert err.value.position == 10

    def test_round_trip_over_R2(self):
        for f in enumerate_R(2):
            assert parse_poly(print_poly(f)) == f
            assert print_poly(parse_poly(print_poly(f))) == print_poly(f)


class TestMapGrammar:
    def test_example(self):
        phi = parse_map("{1->e, 2->1, 3->2, 4->1, 5->0}", 5, 2)
        assert phi == ExtMap(5, 2, (E, 1, 2, 1, 0))

    def test_round_trip(self):
        phi = ExtMap(3, 2, (0, E, 2))
        assert parse_map(print_map(phi), 3, 2) == phi

    def test_missing_entry_rejected(self):
        with pytest.raises(ParseFailure, match="exactly the keys"):
            parse_map("{1->1}", 2, 1)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseFailure, match="duplicate"):
            parse_map("{1->1, 1->2}", 1, 2)

    def test_empty(self):
        assert parse_map("{}", 0, 3) == ExtMap(0, 3, ())


class TestMorphismGrammar:
    def test_worked_morphism(self):
        text = "R(5): x5 + x1*x4 + x1*x2*x3 |{1->e, 2->1, 3->2, 4->1, 5->0}| R(2): x1 + x1*x2"
        mor = parse_morphism(text)
        assert print_morphism(mor) == text

    def test_invalid_morphism_rejected(self):
        from ringops.errors import NotAMorphism

        with pytest.raises(NotAMorphism):
            parse_morphism("R(2): x2 + x1 |{1->1, 2->1}| R(1): x1")


class TestTermGrammar:
    def test_precedence(self):
        term = parse_term("(1 + x1) * x2", 2)
        assert term == Term(2, times(plus(ONE, var(1)), var(2)))

    def test_times_binds_tighter(self):
        term = parse_term("x1 + x2 * x3", 3)
        assert term == Term(3, plus(var(1), times(var(2), var(3))))

    def test_fully_parenthesized_output(self):
        term = Term(2, times(plus(ONE, var(1)), var(2)))
        assert print_term(term) == "((1 + x1) * x2)"

    def test_zero_one(self):
        assert parse_term("0", 1) == Term(1, ZERO)
        assert parse_term("1", 0) == Term(0, ONE)

    @settings(max_examples=400, deadline=None)
    @given(
        st.recursive(
            st.sampled_from([ZERO, ONE, var(1), var(2), var(3)]),
            lambda children: st.tuples(
                st.sampled_from(["+", "*"]), children, children
            ).map(tuple),
            max_leaves=14,
        )
    )
    def test_round_trip_random(self, node):
        term = Term(3, node)
        assert parse_term(print_term(term), 3) == term


class TestSignatureGrammar:
    def test_parse(self):
        assert parse_signature("(3; 1,2,3)") == TypeSignature(3, (1, 2, 3))
        assert parse_signature("(0;)") == TypeSignature(0, ())


class TestFFGrammar:
    def test_round_trip(self):
        mor = FFMorphism.make(
            FFObject((2, 2)),
            FFObject((2, 1)),
            (1, 1),
            [{(1, 1): 1, (2, 2): 1, (1, 2): 2, (2, 1): 0}, {(): 1}],
        )
        assert parse_ff_morphism(print_ff_morphism(mor)) == mor

    def test_missing_component_map_rejected(self):
        with pytest.raises(ParseFailure, match="component maps"):
            parse_ff_morphism("(1:[1]) -> (2:[1,1]); phi={1->1}; d1={(1)->1}")


PAIR_FIXTURE = """
[additive]
component 0 = az
component 1 = ai
component 2 = a2
identity = ai
gamma ai (ai) = ai
gamma a2 (ai, ai) = a2
sigma 2 (2 1) : a2 -> a2
[multiplicative]
component 0 = mz
component 1 = mi
component 2 = m2
identity = mi
gamma mi (mi) = mi
[lambda]
lambda mi (ai) = ai
"""


class TestPairFixture:
    def test_parse_and_component(self):
        from ringops.parsing import parse_pair_fixture
        from ringops.operad_pair import build_RCG
        from ringops.polynomials import rpoly

        pair = parse_pair_fixture(PAIR_FIXTURE)
        operad = build_RCG(pair, name="pair-table")
        assert operad.component(rpoly(1, [(1,)])) == (("ai", ("mi",)),)
        assert operad.component(rpoly(2, [(1,), (2,)])) == (("a2", ("mi", "mi")),)

    def test_missing_section_rejected(self):
        from ringops.parsing import parse_pair_fixture

        with pytest.raises(FixtureError, match="lambda"):
            parse_pair_fixture("[additive]\nidentity = i\n[multiplicative]\nidentity = j\n")


class TestFixtureFormat:
    def test_round_trip(self):
        table = operad_to_table(strict_operad(), cap=1)
        text = serialize_fixture(table)
        again = serialize_fixture(parse_fixture(text))
        assert again == text

    def test_malformed_row_named(self):
        with pytest.raises(FixtureError, match="unrecognized row"):
            parse_fixture("nonsense here\n")

    def test_unrecognized_row_has_its_line(self):
        with pytest.raises(FixtureError, match="^line 3: unrecognized row: 'bogus row'$"):
            parse_fixture("unit = e\n\nbogus row\n")

    def test_missing_unit_detected(self):
        with pytest.raises(FixtureError, match="unit"):
            parse_fixture("component R(0): 0 = z\n")


@pytest.mark.parametrize(
    "parse, text, position",
    [
        (parse_ff_morphism, "(1:[1]) -> (1:[1]); d1={(1)->1}", 31),
        (parse_ff_morphism, "(1:[1]) -> (2:[1,1]); phi={1->1}; d1={(1)->1}", 45),
        (parse_ff_morphism, "(1:[1]) -> (1:[1]); phi={1->1}; d1={(1)->1}; d3={(1)->1}", 45),
        (parse_ff_morphism, "(2:[1,1]) -> (1:[2]); phi={1->1}; d1={(1)->1,(2)->2}", 32),
        (parse_ff_morphism, "(1:[1]) -> (1:[1]); phi={1-1}; d1={(1)->1}", 26),
        (parse_ff_morphism, "(1:[1]) -> (1:[x]); phi={1->1}; d1={(1)->1}", 15),
        (parse_ff_morphism, "(1:[1]) (1:[1]); phi={1->1}; d1={(1)->1}", 15),
        (parse_ff_morphism, "(1:[1]) -> (1:[1]);  dx={(1)->1}", 21),
        (lambda text: parse_map(text, 2, 1), "{1->1}", 6),
        (parse_morphism, "R(1): x1 |{1->1}| R(1): y1", 24),
        (parse_morphism, "R(1): x1 |{1-1}| R(1): x1", 12),
        (parse_morphism, "R(2): x1 + x2 |{1->1}| R(1): x1", 21),
        (parse_ff_morphism, "(1:[1]) -> (1:[1]); phi={1->1} junk; d1={(1)->1}", 31),
        (parse_ff_morphism, "(1:[1]) -> (1:[1]); phi={1->1, 1->1}; d1={(1)->1}", 35),
        (parse_ff_morphism, "(1:[1]) -> (1:[1]); phi={1->1}; d1={(1)->1, (1)->0}", 50),
        (parse_ff_morphism, "(1:[1]) -> (1:[1]); phi={1->1}; d1={(1)->1} more", 44),
        (parse_ff_morphism, "(1:[1]) -> (1:[1]); phi={1->1}; phi={1->1}; d1={(1)->1}", 32),
        (parse_ff_morphism, "(1:[1]) -> (1:[1]); phi={1->1}; d1={(1)->1};  d1={(1)->0}", 46),
        (parse_signature, "(1;1) junk", 6),
    ],
)
def test_parse_failure_positions_index_the_whole_input(parse, text, position):
    with pytest.raises(ParseFailure) as info:
        parse(text)
    assert info.value.position == position


RING_ROWS = "component R(0): 0 = z\ncomponent R(1): x1 = e\nunit = e\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("unitz = e", "unrecognized row: 'unitz = e'"),
        ("gamma e (e = e", "expected ','"),
        ("gamma e (e)) junk = e", "expected '='"),
        ("gamma e (e) = e junk", "unexpected trailing input"),
        ("unit = e e", "unexpected trailing input"),
        ("component R(1): x1 x = e", "unexpected trailing input"),
        ("act R(1): x1 |{1->1}| R(1): x1 : e -> e junk", "unexpected trailing input (at position 40)"),
        ("act R(1): x1 |{1->1}| R(1): x1 : e", "expected '->' (at position 34)"),
        ("act R(1): x1 |{1->1}| R(1): x1 : -> e", "expected a name (at position 33)"),
        ("act R(1): x1 |{1->1}| R(1): x1 e -> e", "unexpected trailing input"),
        ("component R(0): 0 = y", "repeated row"),
    ],
)
def test_ring_fixture_rows_follow_their_grammar(row, message):
    with pytest.raises(FixtureError, match=f"^line 4: {re.escape(message)}"):
        parse_fixture(RING_ROWS + row + "\n")


@pytest.mark.parametrize(
    "row, after, message",
    [
        ("identityX = ai", "[additive]", "unrecognized row: 'identityX = ai'"),
        ("bogus row", "[additive]", "unrecognized row: 'bogus row'"),
        ("gamma ai (ai = ai", "[additive]", "expected ','"),
        ("gamma ai (ai)) junk = ai", "[additive]", "expected '='"),
        ("sigma 1 (1) junk : ai -> ai", "[additive]", "unexpected trailing input"),
        ("sigma 2 (2 1) : a2 -> a2 a2", "[additive]", "unexpected trailing input (at position 25)"),
        ("sigma 2 (2 1) : a2", "[additive]", "expected '->' (at position 18)"),
        ("sigma 2 (2 1) a2 -> a2", "[additive]", "unexpected trailing input (at position 14)"),
        ("lambda mi (ai = ai", "[lambda]", "expected ','"),
        ("bogus row", "[lambda]", "unrecognized row: 'bogus row'"),
    ],
)
def test_pair_fixture_rows_follow_their_grammar(row, after, message):
    from ringops.parsing import parse_pair_fixture

    lines = PAIR_FIXTURE.split("\n")
    at = lines.index(after) + 1
    text = "\n".join(lines[:at] + [row] + lines[at:])
    with pytest.raises(FixtureError, match=f"^line {at + 1}: {re.escape(message)}"):
        parse_pair_fixture(text)


def test_fixture_rows_keep_every_working_name():
    text = (
        "component R(0): 0 = z\n"
        "component R(1): x1 = e a-b x' e.1 a*b a->b a:b \u03b1 p+q\n"
        "unit=e\n"
        "gamma a-b(x', e.1,a*b)=a->b\n"
        "gamma a:b (\u03b1, p+q) = a:b  # comment\n"
        "gamma e () = z\n"
    )
    table = parse_fixture(text)
    assert table._unit == "e"
    assert table._gamma_rows == {
        ("a-b", ("x'", "e.1", "a*b")): "a->b",
        ("a:b", ("\u03b1", "p+q")): "a:b",
        ("e", ()): "z",
    }


def test_pair_fixture_rows_keep_their_meaning():
    from ringops.parsing import parse_pair_fixture

    pair = parse_pair_fixture(PAIR_FIXTURE.replace("gamma a2 (ai, ai)", "gamma a2(ai,ai)"))
    assert pair.additive._gamma_rows[("a2", ("ai", "ai"))] == "a2"
    assert pair.additive._sigma_rows == {("a2", (2, 1)): "a2"}
    assert pair.additive._identity == "ai"


@pytest.mark.parametrize(
    "text",
    [
        RING_ROWS + "gamma e (e) = e\ngamma e (e) = e\n",
        RING_ROWS + "act R(1): x1 |{1->1}| R(1): x1 : e -> e\n"
        "act R(1): x1 |{1->1}|R(1):x1:e->e\n",
    ],
)
def test_ring_fixture_rows_are_not_repeated(text):
    with pytest.raises(FixtureError, match="^line 5: repeated row$"):
        parse_fixture(text)


@pytest.mark.parametrize(
    "row, after",
    [
        ("sigma 2 (2 1) : a2 -> a2", "sigma 2 (2 1) : a2 -> a2"),
        ("component 2 = b2", "component 2 = a2"),
        ("gamma ai (ai) = ai", "gamma ai (ai) = ai"),
        ("lambda mi (ai) = ai", "lambda mi (ai) = ai"),
    ],
)
def test_pair_fixture_rows_are_not_repeated(row, after):
    from ringops.parsing import parse_pair_fixture

    lines = PAIR_FIXTURE.split("\n")
    at = lines.index(after) + 1
    text = "\n".join(lines[:at] + [row] + lines[at:])
    with pytest.raises(FixtureError, match=f"^line {at + 1}: repeated row$"):
        parse_pair_fixture(text)


def test_motion_names_keep_their_meaning():
    from ringops.parsing import parse_pair_fixture
    from ringops.polynomials import rpoly

    table = parse_fixture(
        "component R(1): x1 = e a->b a:b a|b\n"
        "unit = e\n"
        "act R(1): x1 |{1->1}| R(1): x1 : e -> a->b\n"
        "act R(1): x1 |{1->1}| R(1): x1 :a:b->a:b\n"
        "act R(1): x1 |{1->1}| R(1): x1 : a|b -> a|b  # comment\n"
    )
    x1 = rpoly(1, [(1,)])
    assert table._action_rows == {
        (x1, (1,), x1, "e"): "a->b",
        (x1, (1,), x1, "a:b"): "a:b",
        (x1, (1,), x1, "a|b"): "a|b",
    }
    pair = parse_pair_fixture(PAIR_FIXTURE.replace(
        "sigma 2 (2 1) : a2 -> a2", "sigma 2 (2 1) : a2 -> a->b\nsigma 2 (1 2):a:b->a2"
    ))
    assert pair.additive._sigma_rows == {("a2", (2, 1)): "a->b", ("a:b", (1, 2)): "a2"}
