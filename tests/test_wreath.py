import itertools
import random

import pytest

from ringops.errors import ArityMismatch, NotInR
from ringops.indexcat import E
from ringops.operads import (
    StrictRingOperad,
    boolean_rig_algebra,
    eval_rpoly_bool,
    strict_operad,
)
from ringops.polynomials import (
    UNIT,
    IntPoly,
    enumerate_R,
    int_const,
    int_zero,
    rpoly,
    to_rpoly,
    zero_poly,
)
from ringops.terms import project, sset_operad
from ringops.wreath import (
    FFMorphism,
    FFObject,
    ff_compose,
    fold_composite,
    identity_ff,
    is_pi_wr_pi,
    nu_evaluate,
    polynomial_assignment,
    tilde_compose,
    verify_assignment_functoriality,
)


def demo_pair():
    middle = FFObject((2, 1))
    top = FFObject((1,))
    low = FFObject((2, 2))
    outer = FFMorphism.make(middle, top, (1, 1), [{(1, 1): 1, (2, 1): 1}])
    inner = FFMorphism.make(
        low, middle, (1, 1),
        [{(1, 1): 1, (2, 2): 1, (1, 2): 2, (2, 1): 0}, {(): 1}],
    )
    return outer, inner


def random_morphism(rng, source: FFObject, target: FFObject) -> FFMorphism:
    phi = tuple(rng.randint(0, target.n) for _ in range(source.n))
    ds = []
    for j in range(1, target.n + 1):
        fiber = [i for i in range(1, source.n + 1) if phi[i - 1] == j]
        keys = list(itertools.product(*[range(1, source.sizes[i - 1] + 1) for i in fiber]))
        ds.append({key: rng.randint(0, target.sizes[j - 1]) for key in keys})
    return FFMorphism.make(source, target, phi, ds)


def small_objects():
    shapes = [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]
    return [FFObject(s) for s in shapes]


class TestComposition:
    def test_identity(self):
        outer, inner = demo_pair()
        assert ff_compose(identity_ff(outer.target), outer) == outer
        assert ff_compose(outer, identity_ff(outer.source)) == outer

    def test_worked_composite_map(self):
        outer, inner = demo_pair()
        combined = ff_compose(outer, inner)
        assert combined.phi == (1, 1)
        assert combined.d(1) == {(1, 1): 1, (2, 2): 1, (1, 2): 1, (2, 1): 0}

    def test_associativity_on_random_triples(self):
        rng = random.Random(7)
        objects = small_objects()
        found = 0
        while found < 40:
            a, b, c, d = (rng.choice(objects) for _ in range(4))
            first = random_morphism(rng, a, b)
            second = random_morphism(rng, b, c)
            third = random_morphism(rng, c, d)
            lhs = ff_compose(third, ff_compose(second, first))
            rhs = ff_compose(ff_compose(third, second), first)
            assert lhs == rhs
            found += 1

    def test_object_mismatch(self):
        outer, inner = demo_pair()
        with pytest.raises(ArityMismatch):
            ff_compose(inner, outer)


class TestPiWrPi:
    def test_identity(self):
        assert is_pi_wr_pi(identity_ff(FFObject((2, 1))))

    def test_demo_outer_is_not(self):
        outer, _inner = demo_pair()
        assert not is_pi_wr_pi(outer)

    def test_inner_projection_collapse(self):
        source = FFObject((2,))
        target = FFObject((1,))
        mor = FFMorphism.make(source, target, (1,), [{(1,): 1, (2,): 1}])
        assert not is_pi_wr_pi(mor)

    def test_assignment_shape_on_pi_wr_pi(self):
        rng = random.Random(11)
        objects = small_objects()
        found = 0
        while found < 60:
            a, b = rng.choice(objects), rng.choice(objects)
            mor = random_morphism(rng, a, b)
            if not is_pi_wr_pi(mor):
                continue
            found += 1
            for value in polynomial_assignment(mor).values():
                if value is UNIT:
                    continue
                assert len(value.monomials) <= 1
                for mono in value.monomials:
                    assert len(mono.support) == 1


class TestAssignment:
    def test_worked_values(self):
        outer, inner = demo_pair()
        assert polynomial_assignment(outer)[(1, 1)] == rpoly(3, [(1, 3), (2, 3)])
        inner_map = polynomial_assignment(inner)
        assert inner_map[(1, 1)] == rpoly(4, [(1, 3), (2, 4)])
        assert inner_map[(2, 1)] == rpoly(4, [(1, 4)])
        assert inner_map[(1, 2)] is UNIT

    def test_identity_assignment(self):
        mor = identity_ff(FFObject((1,)))
        assert polynomial_assignment(mor)[(1, 1)] == rpoly(1, [(1,)])

    def test_empty_fiber_zero(self):
        source = FFObject((1,))
        target = FFObject((1, 1))
        mor = FFMorphism.make(source, target, (1,), [{(1,): 1}, {(): 0}])
        assignment = polynomial_assignment(mor)
        assert assignment[(1, 2)] == zero_poly(1)


class TestFunctoriality:
    def test_worked_composite(self):
        outer, inner = demo_pair()
        report = verify_assignment_functoriality(outer, inner)
        assert report.ok
        assert report.composites[(1, 1)] == rpoly(4, [(1, 3), (2, 4), (1, 4)])
        fold = report.folds[(1, 1)]
        assert fold.source_size == 13
        assert fold.images == tuple([1, 2, 3, 4] * 3 + [E])

    def test_expanded_form(self):
        outer, inner = demo_pair()
        outer_assignment = polynomial_assignment(outer)
        inner_assignment = polynomial_assignment(inner)
        family = [inner_assignment[(1, 1)], inner_assignment[(2, 1)], inner_assignment[(1, 2)]]
        folded = fold_composite(outer_assignment[(1, 1)], family, 4)
        assert folded.expanded.coeffs() == {
            (1, 3, 13): 1,
            (2, 4, 13): 1,
            (5, 8, 13): 1,
        }

    def test_identity_composites(self):
        ident = identity_ff(FFObject((2, 1)))
        report = verify_assignment_functoriality(ident, ident)
        assert report.ok

    def test_random_composable_pairs(self):
        rng = random.Random(23)
        objects = small_objects()
        found = 0
        while found < 60:
            a, b, c = (rng.choice(objects) for _ in range(3))
            inner = random_morphism(rng, a, b)
            outer = random_morphism(rng, b, c)
            try:
                report = verify_assignment_functoriality(outer, inner)
            except Exception:
                # assignments with duplicated monomials are reported upstream
                continue
            assert report.ok, (outer, inner, report.details)
            found += 1


class TestTildeCompose:
    def test_strict_is_determined(self):
        outer, inner = demo_pair()
        strict = strict_operad()
        point = StrictRingOperad.POINT
        outer_elements = {coord: point for coord in outer.coordinates()}
        inner_elements = {coord: point for coord in inner.coordinates()}
        result = tilde_compose(strict, outer, inner, outer_elements, inner_elements)
        assert result == {(1, 1): point}

    def test_term_elements_project_onto_composite(self):
        outer, inner = demo_pair()
        operad = sset_operad("sym")
        outer_elements = {}
        inner_elements = {}
        for coord, poly in polynomial_assignment(outer).items():
            if poly is not UNIT:
                outer_elements[coord] = operad.component(poly)[0]
        for coord, poly in polynomial_assignment(inner).items():
            if poly is not UNIT:
                inner_elements[coord] = operad.component(poly)[0]
        result = tilde_compose(operad, outer, inner, outer_elements, inner_elements)
        composite = verify_assignment_functoriality(outer, inner).composites[(1, 1)]
        assert to_rpoly(project(result[(1, 1)])) == composite

    def test_pi_wr_pi_units_act_as_identity(self):
        _outer, inner = demo_pair()
        strict = strict_operad()
        point = StrictRingOperad.POINT
        inner_elements = {c: point for c in inner.coordinates()}
        assignment = polynomial_assignment(inner)
        expected = {
            coord: (UNIT if assignment[coord] is UNIT else point)
            for coord in assignment
        }
        pre = identity_ff(inner.source)
        pre_elements = {c: point for c in pre.coordinates()}
        assert ff_compose(inner, pre) == inner
        assert tilde_compose(strict, inner, pre, inner_elements, pre_elements) == expected
        post = identity_ff(inner.target)
        post_elements = {c: point for c in post.coordinates()}
        assert ff_compose(post, inner) == inner
        assert tilde_compose(strict, post, inner, post_elements, inner_elements) == expected


class TestNuEvaluate:
    def test_identity_map(self):
        mor = identity_ff(FFObject((2, 1)))
        strict = strict_operad()
        algebra = boolean_rig_algebra()
        elements = {c: StrictRingOperad.POINT for c in mor.coordinates()}
        for bits in itertools.product((0, 1), repeat=3):
            assert nu_evaluate(strict, algebra, mor, elements, bits) == bits

    def test_marker_slot_gives_unit_point(self):
        _outer, inner = demo_pair()
        strict = strict_operad()
        algebra = boolean_rig_algebra()
        elements = {c: StrictRingOperad.POINT for c in inner.coordinates()}
        outputs = nu_evaluate(strict, algebra, inner, elements, (0, 0, 0, 0))
        # coordinates in block order: (1,1), (2,1), (1,2); the last is a marker
        assert outputs[2] == algebra.e

    def test_boolean_matches_polynomial(self):
        outer, _inner = demo_pair()
        strict = strict_operad()
        algebra = boolean_rig_algebra()
        elements = {c: StrictRingOperad.POINT for c in outer.coordinates()}
        poly = polynomial_assignment(outer)[(1, 1)]
        for bits in itertools.product((0, 1), repeat=3):
            assert nu_evaluate(strict, algebra, outer, elements, bits) == (
                eval_rpoly_bool(poly, bits),
            )

    def test_functoriality_on_demo(self):
        outer, inner = demo_pair()
        strict = strict_operad()
        algebra = boolean_rig_algebra()
        combined = ff_compose(outer, inner)
        e_out = {c: StrictRingOperad.POINT for c in outer.coordinates()}
        e_in = {c: StrictRingOperad.POINT for c in inner.coordinates()}
        e_all = {c: StrictRingOperad.POINT for c in combined.coordinates()}
        for bits in itertools.product((0, 1), repeat=4):
            direct = nu_evaluate(strict, algebra, combined, e_all, bits)
            staged = nu_evaluate(
                strict, algebra, outer, e_out,
                nu_evaluate(strict, algebra, inner, e_in, bits),
            )
            assert direct == staged

    def test_functoriality_on_random_pairs(self):
        rng = random.Random(5)
        objects = small_objects()
        strict = strict_operad()
        algebra = boolean_rig_algebra()
        found = 0
        while found < 40:
            a, b, c = (rng.choice(objects) for _ in range(3))
            inner = random_morphism(rng, a, b)
            outer = random_morphism(rng, b, c)
            try:
                polynomial_assignment(inner)
                polynomial_assignment(outer)
                combined = ff_compose(outer, inner)
                polynomial_assignment(combined)
            except Exception:
                continue
            e_out = {x: StrictRingOperad.POINT for x in outer.coordinates()}
            e_in = {x: StrictRingOperad.POINT for x in inner.coordinates()}
            e_all = {x: StrictRingOperad.POINT for x in combined.coordinates()}
            for bits in itertools.product((0, 1), repeat=inner.source.total):
                direct = nu_evaluate(strict, algebra, combined, e_all, bits)
                staged = nu_evaluate(
                    strict, algebra, outer, e_out,
                    nu_evaluate(strict, algebra, inner, e_in, bits),
                )
                assert direct == staged
            found += 1


def _reference_fold(outer_poly, family, width):
    """fold_composite by IntPoly products and sums, then the fold taken as
    residues with trailing unit variables dropped; returns (expanded, folded
    or UNIT or the NotInR message)."""
    n = len(family)
    big = n * width + sum(1 for g in family if g is UNIT)
    substituted = []
    rank = 0
    for idx, g in enumerate(family):
        if g is UNIT:
            rank += 1
            substituted.append(IntPoly.make(big, {(n * width + rank,): 1}))
        else:
            substituted.append(IntPoly.make(
                big, {tuple(v + idx * width for v in m.support): 1 for m in g.monomials}
            ))
    acc = int_zero(big)
    for mono in outer_poly.monomials:
        prod = int_const(big, 1)
        for i in mono.support:
            prod = prod.mul(substituted[i - 1])
        acc = acc.add(prod)
    out = {}
    for key, coeff in acc.terms:
        image = tuple(sorted((v - 1) % width + 1 for v in key if v <= n * width))
        out[image] = out.get(image, 0) + coeff
    folded = IntPoly.make(width, out)
    if folded.coeffs() == {(): 1}:
        return acc, UNIT
    try:
        return acc, to_rpoly(folded)
    except NotInR as err:
        return acc, str(err)


class TestFoldDifferential:
    def test_fold_matches_reference(self):
        cases = rejected = 0
        for width, k in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
            pool = [UNIT] + enumerate_R(width)
            for family in itertools.product(pool, repeat=k):
                for outer_poly in enumerate_R(k):
                    if outer_poly.is_zero:
                        continue
                    expanded, want = _reference_fold(outer_poly, family, width)
                    try:
                        got = fold_composite(outer_poly, family, width)
                    except NotInR as err:
                        assert str(err) == want
                        rejected += 1
                        continue
                    assert got.expanded == expanded
                    assert got.folded == want
                    cases += 1
        assert (cases, rejected) == (1983, 2088)
