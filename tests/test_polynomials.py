import itertools
import random

import pytest

from ringops.errors import (
    ArityCapExceeded,
    ArityMismatch,
    InvalidSignature,
    NotInR,
    PreconditionViolation,
)
from ringops.operads import _arity_tuples, _CheckPlan
from ringops.polynomials import (
    IntPoly,
    Monomial,
    TypeSignature,
    UNIT,
    _compose_intpoly,
    canon_str,
    compose,
    enumerate_R,
    extended_compose,
    int_const,
    int_zero,
    is_member,
    is_nondegenerate,
    lambda_of,
    rpoly,
    special_of_type,
    substitute_images,
    to_rpoly,
    type_of,
    unit_poly,
    zero_poly,
)


def from_rpoly(f):
    """f as an IntPoly, with every monomial at coefficient 1."""
    return IntPoly.make(f.arity, {m.support: 1 for m in f.monomials})


def gamma_of(m):
    """The ordered variable support of a monomial."""
    return m.support


def ip(arity, coeffs):
    return IntPoly.make(arity, coeffs)


class TestMembership:
    def test_member_examples(self):
        assert is_member(ip(2, {(1, 2): 1, (1,): 1}))
        assert not is_member(ip(1, {(1,): 2}))
        assert not is_member(ip(1, {(1,): 1, (): 1}))

    def test_square_fails(self):
        assert not is_member(ip(2, {(1, 1): 1}))

    def test_zero_is_member(self):
        assert is_member(ip(3, {}))

    def test_to_rpoly_names_reason(self):
        with pytest.raises(NotInR, match="coefficient"):
            to_rpoly(ip(1, {(1,): 2}))
        with pytest.raises(NotInR, match="square"):
            to_rpoly(ip(2, {(2, 2): 1}))
        with pytest.raises(NotInR, match="constant"):
            to_rpoly(ip(0, {(): 1}))


class TestEnumeration:
    def test_cardinalities(self):
        assert [len(enumerate_R(n)) for n in range(5)] == [1, 2, 8, 128, 32768]

    def test_small_orders(self):
        assert enumerate_R(0) == [zero_poly(0)]
        assert enumerate_R(1) == [zero_poly(1), rpoly(1, [(1,)])]

    def test_no_duplicates(self):
        polys = enumerate_R(3)
        assert len(set(polys)) == len(polys)

    def test_cap(self):
        with pytest.raises(ArityCapExceeded):
            enumerate_R(5)


class TestCompose:
    def test_worked_composition(self):
        f = rpoly(2, [(1,), (1, 2)])
        g1 = rpoly(2, [(1,), (1, 2)])
        g2 = rpoly(2, [(1, 2)])
        assert compose(f, [g1, g2]) == rpoly(
            4, [(1,), (1, 3, 4), (1, 2), (1, 2, 3, 4)]
        )

    def test_unit_laws(self):
        unit = unit_poly()
        for f in enumerate_R(2):
            assert compose(unit, [f]) == f
            assert compose(f, [unit] * f.arity) == f

    def test_zero_argument_kills_monomial(self):
        g = rpoly(2, [(1, 2)])
        assert compose(g, [zero_poly(1), unit_poly()]) == zero_poly(2)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            compose(rpoly(2, [(1, 2)]), [unit_poly()])

    def test_closure_exhaustive_small(self):
        pool = enumerate_R(0) + enumerate_R(1) + enumerate_R(2)
        for k in (1, 2):
            for g in enumerate_R(k):
                for args in itertools.product(pool, repeat=k):
                    composite = compose(g, list(args))
                    assert is_member(from_rpoly(composite))

    def test_associativity_small(self):
        pool = enumerate_R(0) + enumerate_R(1)
        for g in enumerate_R(2):
            for f1, f2 in itertools.product(enumerate_R(1), repeat=2):
                middle = compose(g, [f1, f2])
                for hs in itertools.product(pool, repeat=2):
                    lhs = compose(middle, list(hs))
                    rhs = compose(g, [compose(f1, [hs[0]]), compose(f2, [hs[1]])])
                    assert lhs == rhs


class TestExtendedCompose:
    def test_unit_marker(self):
        g = rpoly(2, [(1, 2)])
        assert extended_compose(g, [unit_poly(), UNIT]) == unit_poly()

    def test_duplicate_collapse_reported(self):
        g = rpoly(3, [(1, 2, 3), (1, 2)])
        with pytest.raises(NotInR):
            extended_compose(g, [rpoly(2, [(1,), (2,)]), unit_poly(), UNIT])

    def test_oracle_on_plain_arguments(self):
        # with no markers this must agree with plain composition
        g = rpoly(2, [(1,), (1, 2)])
        args = [rpoly(1, [(1,)]), rpoly(2, [(1, 2)])]
        assert extended_compose(g, args) == compose(g, args)

    def test_block_layout_with_marker(self):
        outer = rpoly(3, [(1, 3), (2, 3)])
        f1 = rpoly(4, [(1, 3), (2, 4)])
        f2 = rpoly(4, [(1, 4)])
        result = extended_compose(outer, [f1, f2, UNIT])
        assert result == rpoly(8, [(1, 3), (2, 4), (5, 8)])


class TestSubstitute:
    def test_worked_morphism(self):
        f = rpoly(5, [(1, 2, 3), (1, 4), (5,)])
        image = substitute_images((-1, 1, 2, 1, 0), 2, f)
        assert to_rpoly(image) == rpoly(2, [(1, 2), (1,)])

    def test_coefficient_doubling(self):
        f = rpoly(2, [(1,), (2,)])
        image = substitute_images((1, 1), 1, f)
        assert image.coeffs() == {(1,): 2}
        assert not is_member(image)

    def test_singular_part(self):
        f = rpoly(5, [(1, 2, 3), (1, 4), (5,)])
        image = substitute_images((-1, 1, 2, 3, 0), 3, f)
        assert to_rpoly(image) == rpoly(3, [(1, 2), (3,)])

    def test_square_stays_visible(self):
        f = rpoly(2, [(1, 2)])
        image = substitute_images((1, 1), 1, f)
        assert image.coeffs() == {(1, 1): 1}
        assert not is_member(image)


class TestClassification:
    def test_nondegenerate_examples(self):
        assert is_nondegenerate(rpoly(2, [(1, 2), (1,)]))
        assert not is_nondegenerate(rpoly(2, [(1,)]))
        assert is_nondegenerate(zero_poly(0))
        assert not is_nondegenerate(zero_poly(1))

    def test_type_examples(self):
        assert type_of(rpoly(5, [(1, 2, 3), (1, 4), (5,)])) == TypeSignature(
            3, (1, 2, 3)
        )
        assert type_of(zero_poly(3)) == TypeSignature(0, ())
        assert type_of(rpoly(2, [(1,), (2,)])) == TypeSignature(2, (1, 1))

    def test_special_of_type(self):
        assert special_of_type(TypeSignature(2, (1, 2))) == rpoly(3, [(1,), (2, 3)])
        assert special_of_type(TypeSignature(3, (1, 2, 3))) == rpoly(
            6, [(1,), (2, 3), (4, 5, 6)]
        )
        assert special_of_type(TypeSignature(1, (1,))) == unit_poly()

    def test_special_roundtrip(self):
        for f in enumerate_R(3):
            if f.is_zero:
                continue
            special = special_of_type(type_of(f))
            assert type_of(special) == type_of(f)
            assert is_nondegenerate(special)

    def test_invalid_signature(self):
        with pytest.raises(InvalidSignature):
            TypeSignature(2, (2, 1))
        with pytest.raises(InvalidSignature):
            TypeSignature(1, (0,))


class TestLambdaOrder:
    def test_worked_listing(self):
        f = rpoly(5, [(1, 2, 3), (1, 4), (5,)])
        assert [m.support for m in lambda_of(f)] == [(5,), (1, 4), (1, 2, 3)]

    def test_gamma(self):
        assert gamma_of(Monomial(4, (1, 4))) == (1, 4)

    def test_two_variables(self):
        f = rpoly(2, [(1,), (2,)])
        assert [m.support for m in lambda_of(f)] == [(2,), (1,)]

    def test_canonical_string(self):
        f = rpoly(5, [(1, 2, 3), (1, 4), (5,)])
        assert canon_str(f) == "R(5): x5 + x1*x4 + x1*x2*x3"
        assert canon_str(zero_poly(2)) == "R(2): 0"


class TestMonomialInvariants:
    def test_rejects_empty_support(self):
        with pytest.raises(NotInR):
            Monomial(2, ())

    def test_rejects_unsorted(self):
        with pytest.raises(NotInR):
            Monomial(3, (2, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ArityMismatch):
            Monomial(2, (3,))

    def test_duplicate_monomials_rejected(self):
        with pytest.raises(NotInR):
            rpoly(2, [(1,), (1,)])


# ---------------------------------------------------------------------------
# Differential tests: the block kernels against the plain IntPoly loops


def _reference_expansion(g, args):
    """g(args) by IntPoly products and sums; UNIT is the constant 1."""
    widths = [0 if a is UNIT else a.arity for a in args]
    total = sum(widths)
    shifted = []
    for t, a in enumerate(args):
        if a is UNIT:
            shifted.append(int_const(total, 1))
        else:
            offset = sum(widths[:t])
            shifted.append(
                IntPoly.make(
                    total, {tuple(v + offset for v in m.support): 1 for m in a.monomials}
                )
            )
    acc = int_zero(total)
    for mono in g.monomials:
        prod = int_const(total, 1)
        for i in mono.support:
            prod = prod.mul(shifted[i - 1])
        acc = acc.add(prod)
    return acc


def _reference_substitute(images, target_arity, f):
    """Substitution monomial by monomial: 0 kills it, -1 drops the variable."""
    out = {}
    for mono in f.monomials:
        if any(images[i - 1] == 0 for i in mono.support):
            continue
        key = tuple(sorted(images[i - 1] for i in mono.support if images[i - 1] != -1))
        out[key] = out.get(key, 0) + 1
    return IntPoly.make(target_arity, out)


def _nested_shapes(cap):
    """Every (g, args) with g of arity 1..cap and args of total arity at most
    cap: g in `enumerate_R` order, then arity tuple, then product order."""
    return [
        (g, args)
        for k in range(1, cap + 1)
        for g in enumerate_R(k)
        for arities in _arity_tuples(k, cap)
        for args in itertools.product(*map(enumerate_R, arities))
    ]


def _arg_tuples(k, pool, cap):
    for args in itertools.product(pool, repeat=k):
        if sum(0 if a is UNIT else a.arity for a in args) <= cap:
            yield args


class TestKernelDifferential:
    def test_compose_matches_reference_at_cap2(self):
        pool = enumerate_R(0) + enumerate_R(1) + enumerate_R(2)
        shapes = 0
        for k in (1, 2):
            for g in enumerate_R(k):
                for args in _arg_tuples(k, pool, 2):
                    expected = _reference_expansion(g, args)
                    assert compose(g, list(args)) == to_rpoly(expected)
                    shapes += 1
        assert shapes == 222

    def test_compose_matches_reference_on_a_cap3_sample(self):
        for g, args in random.Random(3).sample(_nested_shapes(3), 2000):
            assert compose(g, list(args)) == to_rpoly(_reference_expansion(g, args))

    @pytest.mark.parametrize("cap", [1, 2])
    def test_plan_composites_match_reference(self, cap):
        for g, _, shapes in _CheckPlan(cap).blocks():
            for args, composite in shapes:
                assert composite == to_rpoly(_reference_expansion(g, args))

    def test_plan_composites_match_compose_at_cap3(self):
        before = _compose_intpoly.cache_info()
        plan = _CheckPlan(3)
        shapes = [(g, args, composite) for g, _, block in plan.blocks() for args, composite in block]
        singles = [plan.shapes[tuple(f.arity for f in args)].composite(g, args) for g, args, _ in shapes]
        assert _compose_intpoly.cache_info() == before
        assert len(shapes) == 70750
        composites = [composite for _, _, composite in shapes] + singles
        assert len({id(c) for c in composites}) == len(set(composites)) == 139
        for (g, args, composite), single in zip(shapes, singles):
            assert composite == single == compose(g, args)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_plan_lists_shapes_in_the_nested_order(self, cap):
        plan = _CheckPlan(cap)
        assert [(g, args) for g, _, block in plan.blocks() for args, _ in block] == _nested_shapes(cap)

    @pytest.mark.parametrize("cap, count", [(1, 4), (2, 54), (3, 2648)])
    def test_plan_blocks_are_its_shapes_grouped_by_g_and_arity_tuple(self, cap, count):
        blocks = list(_CheckPlan(cap).blocks())
        assert len(blocks) == count
        assert len({(g, arities) for g, arities, _ in blocks}) == count
        for g, arities, shapes in blocks:
            assert all(tuple(f.arity for f in args) == arities for args, _ in shapes)

    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_plan_argument_tuples_are_the_nested_ones(self, cap):
        plan = _CheckPlan(cap)
        assert list(plan.argument_tuples(0)) == [()]
        for k in range(1, cap + 1):
            nested = [
                args
                for arities in _arity_tuples(k, cap)
                for args in itertools.product(*map(enumerate_R, arities))
            ]
            assert list(plan.argument_tuples(k)) == nested

    def test_extended_compose_matches_reference(self):
        pool = [UNIT] + enumerate_R(0) + enumerate_R(1)
        rejected = set()
        for k in (1, 2, 3):
            for g in enumerate_R(k):
                for args in _arg_tuples(k, pool, 3):
                    if UNIT not in args:
                        continue
                    expected = _reference_expansion(g, args)
                    try:
                        want = to_rpoly(expected)
                    except NotInR as err:
                        with pytest.raises(NotInR) as got:
                            extended_compose(g, list(args))
                        assert str(got.value) == str(err)
                        rejected.add(str(err).split(" has ")[-1])
                        continue
                    assert extended_compose(g, list(args)) == want
        assert "non-zero constant term" in rejected
        assert "coefficient 2" in rejected

    def test_substitute_matches_reference(self):
        pairs = 0
        for m in range(4):
            polys = enumerate_R(m)
            for n in range(4):
                for images in itertools.product([0, -1] + list(range(1, n + 1)), repeat=m):
                    for f in polys:
                        assert substitute_images(images, n, f) == _reference_substitute(
                            images, n, f
                        )
                        pairs += 1
        assert pairs == 29136


# ---------------------------------------------------------------------------
# The packed product against the tuple-key product


def _tuple_key_product(p, q, max_terms=None):
    """(rows of p read, p * q) keyed by sorted variable tuples; the product
    is None when a row leaves more than `max_terms` monomials."""
    out = {}
    for row, (k1, c1) in enumerate(p.terms, 1):
        for k2, c2 in q.terms:
            key = tuple(sorted(k1 + k2))
            out[key] = out.get(key, 0) + c1 * c2
        if max_terms is not None and len(out) > max_terms:
            return row, None
    return len(p.terms), IntPoly.make(p.arity, out)


class _CountedRows(tuple):
    """Terms that record, for each pass over them, how many were read."""

    def __iter__(self):
        self.passes = getattr(self, "passes", []) + [0]
        for term in tuple.__iter__(self):
            self.passes[-1] += 1
            yield term


def _seeded_intpoly(rng, arity):
    """Up to 12 monomials of degree up to 4, squares and constants allowed,
    with coefficients 1..5."""
    coeffs = {}
    for _ in range(rng.randint(0, 12)):
        degree = rng.randint(0, 4) if arity else 0
        key = tuple(sorted(rng.choices(range(1, arity + 1), k=degree)))
        coeffs[key] = rng.randint(1, 5)
    return IntPoly.make(arity, coeffs)


class TestPackedProduct:
    @pytest.mark.parametrize("arity", range(7))
    def test_equals_the_tuple_key_product(self, arity):
        rng = random.Random(arity)
        for _ in range(200):
            p, q = _seeded_intpoly(rng, arity), _seeded_intpoly(rng, arity)
            assert p.mul(q) == _tuple_key_product(p, q)[1]

    def test_a_high_power_keeps_its_exponent(self):
        # 4 + 4 needs four bits per variable: a carry would read x2 here
        p = ip(2, {(1, 1, 1, 1): 1, (2,): 3})
        assert p.mul(p).coeffs() == {(1,) * 8: 1, (1, 1, 1, 1, 2): 6, (2, 2): 9}

    @pytest.mark.parametrize("arity", range(1, 7))
    def test_refuses_after_the_same_row(self, arity):
        rng = random.Random(100 + arity)
        refused = 0
        for _ in range(200):
            p, q = _seeded_intpoly(rng, arity), _seeded_intpoly(rng, arity)
            pairs = len(p.terms) * len(q.terms)
            if not pairs:
                continue
            limit = rng.randrange(pairs)
            row, product = _tuple_key_product(p, q, limit)
            counted = IntPoly(arity, _CountedRows(p.terms))
            if product is not None:
                assert counted.mul(q, limit) == product
                continue
            with pytest.raises(PreconditionViolation) as err:
                counted.mul(q, limit)
            assert str(err.value) == f"a partial expansion has more than {limit} monomials"
            assert counted.terms.passes[-1] == row
            refused += 1
        assert refused > 50
