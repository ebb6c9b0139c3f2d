import copy
import itertools
import pickle

import pytest

from ringops.errors import ArityMismatch, NotAMorphism, NotSpecial, PreconditionViolation, SearchBudgetExceeded
from ringops.indexcat import (
    E,
    ExtMap,
    all_factorizations,
    argument_collation,
    automorphisms,
    block_sum,
    canonical_decompose,
    connected_components,
    component_objects,
    enumerate_hom,
    filtration,
    has_effective_hom,
    induced_lambda_maps,
    is_morphism,
    psi_tilde,
    special_rep_morphism,
    substitute,
    validate,
)
from ringops.indexcat import _size_preserving_bijections, _support_assignments
from ringops.operads import _all_morphisms
from ringops.polynomials import (
    Monomial,
    enumerate_R,
    is_nondegenerate,
    rpoly,
    special_of_type,
    to_rpoly,
    type_of,
    unit_poly,
    zero_poly,
)

F535 = rpoly(5, [(1, 2, 3), (1, 4), (5,)])
PHI535 = ExtMap(5, 2, (E, 1, 2, 1, 0))
G535 = rpoly(2, [(1, 2), (1,)])


def _checked_candidates(f, g):
    """The structural candidates with a dedup set and a morphism check."""
    if type_of(f) != type_of(g):
        return []
    free = [i for i in range(1, f.arity + 1) if not any(m >> (i - 1) & 1 for m in f.masks)]
    found, seen = [], set()
    for matching in _size_preserving_bijections(f.masks, g.masks):
        for assignment in _support_assignments(matching):
            for extra in itertools.product(range(1, g.arity + 1), repeat=len(free)):
                full = {**assignment, **dict(zip(free, extra))}
                phi = ExtMap(f.arity, g.arity, tuple(full[i] for i in range(1, f.arity + 1)))
                if phi.images not in seen and is_morphism(f, phi, g):
                    found.append(phi.images)
                seen.add(phi.images)
    return found


def all_maps(m, n):
    values = [0, E] + list(range(1, n + 1))
    for images in itertools.product(values, repeat=m):
        yield ExtMap(m, n, images)


class TestValidate:
    def test_worked_morphism(self):
        mor = validate(F535, PHI535, G535)
        assert not mor.is_effective
        assert not mor.is_singular

    def test_identity_is_effective_and_singular(self):
        mor = validate(unit_poly(), ExtMap.identity(1), unit_poly())
        assert mor.is_effective and mor.is_singular

    def test_coefficient_violation(self):
        f = rpoly(2, [(1,), (2,)])
        with pytest.raises(NotAMorphism):
            validate(f, ExtMap(2, 1, (1, 1)), unit_poly())


class TestTupleValues:
    """ExtMap and RMorphism are tuples of their fields: the hash, equality,
    repr, pickling and the constructor checks are those of the frozen
    dataclasses they replace."""

    MOR = validate(F535, PHI535, G535)

    @pytest.mark.parametrize("value", [PHI535, ExtMap(0, 3, ()), MOR])
    def test_hash_is_the_hash_of_the_fields(self, value):
        fields = (
            (value.source_size, value.target_size, value.images)
            if isinstance(value, ExtMap) else (value.source, value.map, value.target)
        )
        assert tuple(value) == fields
        assert hash(value) == hash(tuple(value)) == hash(fields)

    def test_repr_is_the_dataclass_text(self):
        assert repr(ExtMap(1, 1, (1,))) == "ExtMap(source_size=1, target_size=1, images=(1,))"
        mor = validate(unit_poly(), ExtMap(1, 1, (1,)), unit_poly())
        assert repr(mor) == (
            "RMorphism(source=RPoly('R(1): x1'), "
            "map=ExtMap(source_size=1, target_size=1, images=(1,)), "
            "target=RPoly('R(1): x1'))"
        )
        assert str(mor) == "R(1): x1 |{1->1}| R(1): x1"

    @pytest.mark.parametrize("value", [PHI535, MOR])
    def test_pickle_and_copy_round_trip(self, value):
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert twin == value and type(twin) is type(value)
            assert hash(twin) == hash(value)

    def test_keyword_construction(self):
        assert ExtMap(source_size=2, target_size=1, images=(1, E)) == ExtMap(2, 1, (1, E))

    def test_constructor_checks_keep_their_messages(self):
        with pytest.raises(ArityMismatch, match="^images length differs from source size$"):
            ExtMap(2, 1, (1,))
        with pytest.raises(ArityMismatch, match=r"^image 3 out of range 0\.\.2$"):
            ExtMap(1, 2, (3,))
        with pytest.raises(ArityMismatch, match=r"^image -2 out of range 0\.\.2$"):
            ExtMap(1, 2, (-2,))

    @pytest.mark.parametrize("value, field", [
        (PHI535, "images"), (PHI535, "source_size"), (MOR, "map"), (MOR, "source"),
    ])
    def test_fields_are_read_only(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_a_map_never_equals_a_morphism(self):
        for mor in _all_morphisms(1):
            assert mor != mor.map and mor.map != mor
        assert len({mor.map for mor in _all_morphisms(1)} & set(_all_morphisms(1))) == 0


class TestHomEnumeration:
    def test_counts(self):
        a1 = unit_poly()
        assert len(enumerate_hom(a1, a1, "all")) == 1
        s2 = rpoly(2, [(1,), (2,)])
        assert len(enumerate_hom(s2, s2, "all")) == 2
        m2 = rpoly(2, [(1, 2)])
        assert len(enumerate_hom(m2, m2, "all")) == 2

    def test_effective_agrees_with_brute_force(self):
        # Every structural candidate is a morphism and no two are the same
        # map, so the enumeration needs no dedup set and no re-check: the
        # list equals the filtered brute force and the deduplicated, checked
        # candidates, in their order.  Pairs of different types have none.
        polys = [f for n in range(4) for f in enumerate_R(n)]
        candidates = 0
        for f in polys:
            for g in polys:
                if type_of(f) != type_of(g) and max(f.arity, g.arity) > 2:
                    continue
                effective = [m.map.images for m in enumerate_hom(f, g, "effective")]
                brute = [m.map.images for m in enumerate_hom(f, g, "all") if m.is_effective]
                assert sorted(effective, key=repr) == sorted(brute, key=repr)
                assert effective == _checked_candidates(f, g)
                candidates += len(effective)
        assert candidates == 1322

    def test_guard(self):
        wide = rpoly(12, [tuple(range(1, 13))])
        with pytest.raises(SearchBudgetExceeded):
            enumerate_hom(wide, rpoly(3, [(1, 2, 3)]), "all")

    def test_an_unknown_kind_is_a_precondition_violation(self):
        # The CLI turns only a RingopsError into an exit code and an error line.
        s2 = rpoly(2, [(1,), (2,)])
        with pytest.raises(PreconditionViolation, match="^unknown hom class 'bogus'$"):
            enumerate_hom(s2, s2, "bogus")

    def test_nondegenerate_class_is_surjective(self):
        f3 = rpoly(3, [(1,), (2, 3)])
        g2 = rpoly(2, [(1,), (1, 2)])
        homs = enumerate_hom(f3, g2, "nondegenerate")
        assert homs and all(m.map.is_surjective for m in homs)


class TestDecomposition:
    def test_worked_decomposition(self):
        sigma, p = canonical_decompose(PHI535)
        assert sigma.images == (E, 1, 2, 3, 0)
        assert p.images == (1, 2, 1)
        assert p.compose(sigma) == PHI535

    def test_effective_map_decomposes_trivially(self):
        phi = ExtMap(2, 2, (2, 1))
        sigma, p = canonical_decompose(phi)
        assert sigma == ExtMap.identity(2)
        assert p == phi

    def test_singular_map_decomposes_trivially(self):
        phi = ExtMap(3, 1, (E, 1, 0))
        sigma, p = canonical_decompose(phi)
        assert sigma == phi
        assert p == ExtMap.identity(1)

    def test_uniqueness_small(self):
        for m in range(4):
            for n in range(3):
                for phi in all_maps(m, n):
                    pairs = all_factorizations(phi)
                    assert len(pairs) == 1
                    sigma, p = pairs[0]
                    assert (sigma, p) == canonical_decompose(phi)


class TestBlockSumAndPsiTilde:
    def test_block_sum_identity(self):
        ident = ExtMap.identity(1)
        assert block_sum([ident, ident]) == ExtMap.identity(2)

    def test_block_sum_basepoints_unshifted(self):
        lhs = ExtMap(1, 1, (0,))
        rhs = ExtMap(1, 1, (1,))
        assert block_sum([lhs, rhs]) == ExtMap(2, 2, (0, 2))

    def test_block_sum_with_e(self):
        lhs = ExtMap(2, 1, (E, 1))
        rhs = ExtMap(1, 1, (1,))
        assert block_sum([lhs, rhs]) == ExtMap(3, 2, (E, 1, 2))

    def test_psi_tilde_identity(self):
        psi = ExtMap.identity(2)
        assert psi_tilde(psi, (2, 1)) == ExtMap.identity(3)

    def test_psi_tilde_collapse_first(self):
        psi = ExtMap(2, 1, (E, 1))
        assert psi_tilde(psi, (2,)) == ExtMap(3, 2, (E, 1, 2))

    def test_psi_tilde_collapse_second(self):
        psi = ExtMap(2, 1, (1, E))
        assert psi_tilde(psi, (1,)) == ExtMap(2, 1, (1, E))

    def test_collation_swap(self):
        psi = ExtMap(2, 2, (2, 1))
        chi = argument_collation(psi, (2, 1))
        assert chi == ExtMap(3, 3, (3, 1, 2))


class TestInducedMaps:
    def test_worked_example(self):
        mor = validate(F535, PHI535, G535)
        maps = induced_lambda_maps(mor)
        j1 = Monomial(2, (1,))
        j12 = Monomial(2, (1, 2))
        assert maps.phi_prime[j1] == Monomial(5, (1, 4))
        assert maps.phi_prime[j12] == Monomial(5, (1, 2, 3))
        assert maps.per_monomial[j1] == {1: 4}
        assert maps.per_monomial[j12] == {1: 2, 2: 3}
        assert maps.phi_tilde is None

    def test_identity(self):
        f = rpoly(2, [(1,), (1, 2)])
        mor = validate(f, ExtMap.identity(2), f)
        maps = induced_lambda_maps(mor)
        for mono in f.monomials:
            assert maps.phi_prime[mono] == mono
        assert maps.phi_tilde == {m: m for m in f.monomials}

    def test_swap_exchanges_monomials(self):
        f = rpoly(2, [(1,), (2,)])
        mor = validate(f, ExtMap(2, 2, (2, 1)), f)
        maps = induced_lambda_maps(mor)
        m1, m2 = Monomial(2, (1,)), Monomial(2, (2,))
        assert maps.phi_tilde == {m1: m2, m2: m1}

    def test_contravariant_functoriality(self):
        f3 = rpoly(3, [(1,), (2, 3)])
        g2 = rpoly(2, [(1,), (1, 2)])
        for first in enumerate_hom(f3, g2, "effective"):
            for second in enumerate_hom(g2, g2, "effective"):
                combined = first.then(second)
                inner = induced_lambda_maps(first)
                outer = induced_lambda_maps(second)
                total = induced_lambda_maps(combined)
                for mono in combined.target.monomials:
                    assert total.phi_prime[mono] == inner.phi_prime[
                        outer.phi_prime[mono]
                    ]


class TestSpecialRepresentatives:
    def test_worked_example(self):
        mor = special_rep_morphism(F535)
        assert mor.source == rpoly(6, [(1,), (2, 3), (4, 5, 6)])
        assert mor.map.images == (5, 1, 4, 1, 2, 3)

    def test_special_maps_to_itself(self):
        f = rpoly(3, [(1,), (2, 3)])
        mor = special_rep_morphism(f)
        assert mor.source == f

    def test_second_example(self):
        f = rpoly(2, [(1, 2), (1,)])
        mor = special_rep_morphism(f)
        assert mor.source == rpoly(3, [(1,), (2, 3)])
        assert mor.map.images == (1, 1, 2)

    def test_zero(self):
        mor = special_rep_morphism(zero_poly(4))
        assert mor.source == zero_poly(0)

    def test_exactly_one_special_admits_hom(self):
        specials = {special_of_type(type_of(f)) for f in enumerate_R(2) if not f.is_zero}
        for f in enumerate_R(2):
            if f.is_zero:
                continue
            admitting = {g for g in specials if has_effective_hom(g, f)}
            assert admitting == {special_of_type(type_of(f))}


class TestComponentsAndFiltration:
    def test_components_arity1(self):
        blocks = {frozenset(b) for b in connected_components(1)}
        assert blocks == {
            frozenset({zero_poly(1)}),
            frozenset({rpoly(1, [(1,)])}),
        }

    def test_components_are_type_fibers(self):
        for n in (2, 3):
            for block in connected_components(n):
                assert len({type_of(f) for f in block}) == 1

    def test_separates_sum_and_product(self):
        blocks = connected_components(2)
        s2 = rpoly(2, [(1,), (2,)])
        m2 = rpoly(2, [(1, 2)])
        home = {f: block for block in blocks for f in block}
        assert home[s2] != home[m2]

    def test_filtration_levels(self):
        f = rpoly(3, [(1,), (2, 3)])
        top = filtration(f, f.arity + 1)
        assert top == frozenset()
        level2 = filtration(f, 2)
        assert rpoly(2, [(1,), (1, 2)]) in level2
        assert rpoly(2, [(2,), (1, 2)]) in level2
        previous = None
        for level in range(f.arity + 1, -1, -1):
            current = filtration(f, level)
            if previous is not None:
                assert previous <= current
            previous = current

    def test_filtration_fixed_points(self):
        f = rpoly(2, [(1,), (2,)])
        assert filtration(f, 2) == frozenset({f})

    def test_filtration_requires_special(self):
        with pytest.raises(NotSpecial):
            filtration(rpoly(2, [(1, 2), (1,)]), 0)


class TestNondegeneracyLemma:
    def test_surjectivity_criterion(self):
        for m in (1, 2, 3):
            for f in enumerate_R(m):
                if not is_nondegenerate(f):
                    continue
                for n in (1, 2, 3):
                    for images in itertools.product(range(1, n + 1), repeat=m):
                        phi = ExtMap(m, n, images)
                        image = substitute(phi, f)
                        if image.coeffs() != {
                            mono: 1 for mono in _supports(image)
                        }:
                            continue
                        try:
                            target = to_rpoly(image)
                        except Exception:
                            continue
                        surjective = phi.is_surjective
                        assert is_nondegenerate(target) == surjective
                        if surjective:
                            assert m >= n

    def test_self_maps_in_nondegenerate_class_are_bijections(self):
        for m in (1, 2):
            for f in enumerate_R(m):
                if not is_nondegenerate(f):
                    continue
                for images in itertools.product(range(1, m + 1), repeat=m):
                    phi = ExtMap(m, m, images)
                    image = substitute(phi, f)
                    try:
                        target = to_rpoly(image)
                    except Exception:
                        continue
                    in_class = phi.is_effective and is_nondegenerate(target)
                    assert in_class == (len(set(images)) == m)


def _supports(intpoly):
    return [key for key, _ in intpoly.terms]


class TestSpecialPullback:
    def test_two_morphisms_differ_by_automorphism(self):
        specials = [
            rpoly(2, [(1,), (2,)]),
            rpoly(3, [(1,), (2, 3)]),
            rpoly(3, [(1,), (2,), (3,)]),
            rpoly(3, [(1, 2, 3)]),
        ]
        for f in specials:
            auts = automorphisms(f)
            for n in (1, 2, 3):
                for h in enumerate_R(n):
                    homs = enumerate_hom(f, h, "effective")
                    for m1, m2 in itertools.product(homs, repeat=2):
                        assert any(
                            m1.map.compose(sigma.map) == m2.map for sigma in auts
                        )


class TestInjectionReflection:
    def test_injective_image_in_R_reflects_membership(self):
        # over two source variables, try every 0/1/2-coefficient multilinear
        # shape plus squares, along every injective map into three indices
        from ringops.polynomials import IntPoly

        keys = [(), (1,), (2,), (1, 2), (1, 1)]
        injections = [
            images
            for images in itertools.permutations(range(1, 4), 2)
        ]
        for coeffs in itertools.product((0, 1, 2), repeat=len(keys)):
            p = IntPoly.make(2, dict(zip(keys, coeffs)))
            for images in injections:
                moved = {}
                for key, coeff in p.terms:
                    new_key = tuple(sorted(images[i - 1] for i in key))
                    moved[new_key] = moved.get(new_key, 0) + coeff
                image = IntPoly.make(3, moved)
                from ringops.polynomials import is_member

                if is_member(image):
                    assert is_member(p)

    def test_singular_part_lands_in_R(self):
        for f in enumerate_R(2):
            for phi in all_maps(2, 2):
                image = substitute(phi, f)
                try:
                    to_rpoly(image)
                except Exception:
                    continue
                sigma, _p = canonical_decompose(phi)
                assert to_rpoly(substitute(sigma, f)) is not None


class TestSubstituteFunctoriality:
    def test_composition_of_maps(self):
        for f in enumerate_R(2):
            for psi in all_maps(2, 2):
                inner = substitute(psi, f)
                try:
                    middle = to_rpoly(inner)
                except Exception:
                    continue
                for phi in all_maps(2, 1):
                    direct = substitute(phi.compose(psi), f)
                    staged = substitute(phi, middle)
                    assert direct.coeffs() == staged.coeffs()


class TestComponentObjects:
    def test_orbit_of_special(self):
        f = rpoly(3, [(1,), (2, 3)])
        arity3 = component_objects(f, 3)
        assert sorted(map(str, arity3)) == sorted(
            str(rpoly(3, supports))
            for supports in ([(1,), (2, 3)], [(2,), (1, 3)], [(3,), (1, 2)])
        )


class TestComponentsAreTypeClasses:
    """The two facts that make the components of R(n) its type classes."""

    def test_effective_morphisms_keep_the_type(self):
        morphisms = _all_morphisms(3)
        effective = [mor for mor in morphisms if mor.is_effective]
        assert (len(effective), len(morphisms)) == (1322, 11806)
        for mor in effective:
            assert type_of(mor.source) == type_of(mor.target)

    def test_special_rep_morphism_joins_f_to_its_special(self):
        for n in range(4):
            for f in enumerate_R(n):
                mor = special_rep_morphism(f)
                assert mor.is_effective and mor.target == f
                assert mor.source == special_of_type(type_of(f))

    def test_components_are_whole_type_classes(self):
        for n, count in enumerate((1, 2, 6, 32)):
            blocks = connected_components(n)
            assert len(blocks) == count
            for block in blocks:
                sig = type_of(next(iter(block)))
                assert block == {f for f in enumerate_R(n) if type_of(f) == sig}

    def test_component_objects_match_the_hom_definition(self):
        for n in range(4):
            for f in enumerate_R(n):
                special = special_of_type(type_of(f))
                for arity in range(4):
                    assert component_objects(f, arity) == [
                        g for g in enumerate_R(arity)
                        if is_nondegenerate(g) and has_effective_hom(special, g)
                    ]

    @pytest.mark.slow
    def test_component_objects_match_the_hom_definition_at_arity4(self):
        """One f per type of R(0..3); the test above runs every f at arity <= 3."""
        candidates = [g for g in enumerate_R(4) if is_nondegenerate(g)]
        by_type = {type_of(f): f for n in range(4) for f in enumerate_R(n)}
        for sig, f in by_type.items():
            special = special_of_type(sig)
            assert component_objects(f, 4) == [
                g for g in candidates if has_effective_hom(special, g)
            ]
