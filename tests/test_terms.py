import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ringops.errors import NotReduced
from ringops.indexcat import E, ExtMap, validate
from ringops.operads import check_axioms
from ringops.polynomials import (
    enumerate_R,
    rpoly,
    to_rpoly,
    unit_poly,
    zero_poly,
)
from ringops.terms import (
    ONE,
    Term,
    ZERO,
    act_map,
    compose_terms,
    connectivity_check,
    default_bound,
    enumerate_fiber,
    fiber_member,
    generator_moves,
    is_canonical,
    is_reduced,
    normalize_biperm,
    plus,
    project,
    reduce_A,
    section_s,
    sset_operad,
    terminal_representative,
    times,
    var,
)


def t(arity, node):
    return Term(arity, node)


def node_strategy(arity, max_depth=4):
    leaves = st.sampled_from([ZERO, ONE] + [var(i) for i in range(1, arity + 1)])
    return st.recursive(
        leaves,
        lambda children: st.tuples(
            st.sampled_from(["+", "*"]), children, children
        ).map(tuple),
        max_leaves=12,
    )


class TestReduce:
    def test_unit_relation(self):
        assert reduce_A(t(1, times(ONE, var(1)))) == t(1, var(1))

    def test_nullity(self):
        assert reduce_A(t(1, plus(ZERO, times(var(1), ZERO)))) == t(1, ZERO)

    def test_one_under_plus_is_canonical(self):
        node = times(plus(ONE, var(1)), var(2))
        assert reduce_A(t(2, node)) == t(2, node)
        assert is_canonical(node)

    def test_zero_only_as_whole_term(self):
        assert not is_canonical(plus(ZERO, var(1)))
        assert is_canonical(ZERO)


class TestProject:
    def test_expansion(self):
        node = times(plus(ONE, var(1)), var(2))
        assert project(t(2, node)).coeffs() == {(2,): 1, (1, 2): 1}

    def test_leaves(self):
        assert project(t(1, var(1))).coeffs() == {(1,): 1}
        assert project(t(0, ONE)).coeffs() == {(): 1}
        assert project(t(0, ZERO)).coeffs() == {}

    def test_reduction_preserves_projection(self):
        node = plus(times(var(1), ONE), times(ZERO, var(2)))
        term = t(2, node)
        assert project(reduce_A(term)).coeffs() == project(term).coeffs()


class TestActMap:
    def test_collapse_to_unit_doubles(self):
        term = t(2, plus(var(2), times(var(1), var(2))))
        phi = ExtMap(2, 1, (E, 1))
        moved = act_map(phi, term)
        assert moved == t(1, plus(var(1), var(1)))
        assert project(moved).coeffs() == {(1,): 2}

    def test_identity(self):
        term = t(2, plus(var(1), var(2)))
        assert act_map(ExtMap.identity(2), term) == term

    def test_zero_kills(self):
        term = t(2, times(var(1), var(2)))
        assert act_map(ExtMap(2, 2, (1, 0)), term) == t(2, ZERO)

    def test_commutes_with_projection(self):
        values = [0, E, 1, 2]
        fibers = [
            term
            for f in enumerate_R(2)
            for term in enumerate_fiber(f, "sym").terms
        ]
        for term in fibers:
            for images in itertools.product(values, repeat=2):
                phi = ExtMap(2, 2, images)
                via_term = project(act_map(phi, term))
                via_poly = _substitute_int(phi, project(term))
                assert via_term.coeffs() == via_poly.coeffs()


def _substitute_int(phi, p):
    out = {}
    for key, coeff in p.terms:
        hit = []
        dead = False
        for i in key:
            image = phi(i)
            if image == 0:
                dead = True
                break
            if image == E:
                continue
            hit.append(image)
        if dead:
            continue
        new_key = tuple(sorted(hit))
        out[new_key] = out.get(new_key, 0) + coeff
    from ringops.polynomials import IntPoly

    return IntPoly.make(phi.target_size, out)


class TestComposeTerms:
    def test_block_shift(self):
        g = t(2, plus(var(1), var(2)))
        args = [t(1, var(1)), t(1, var(1))]
        assert compose_terms(g, args) == t(2, plus(var(1), var(2)))

    def test_unit(self):
        inner = t(2, times(var(1), var(2)))
        assert compose_terms(t(1, var(1)), [inner]) == inner

    def test_no_rewrite_after_substitution(self):
        g = t(2, times(var(1), var(2)))
        args = [t(2, times(plus(ONE, var(1)), var(2))), t(1, var(1))]
        expected = t(3, times(times(plus(ONE, var(1)), var(2)), var(3)))
        assert compose_terms(g, args) == expected

    def test_projection_commutes_with_composition(self):
        from ringops.polynomials import compose

        for g_poly in enumerate_R(1) + enumerate_R(2):
            for g_term in enumerate_fiber(g_poly, "sym").terms:
                for arg_polys in itertools.product(enumerate_R(1), repeat=g_poly.arity):
                    pools = [enumerate_fiber(p, "sym").terms for p in arg_polys]
                    for arg_terms in itertools.product(*pools):
                        combined = compose_terms(g_term, list(arg_terms))
                        assert to_rpoly(project(combined)) == compose(
                            g_poly, list(arg_polys)
                        )


class TestNormalizeBiperm:
    def test_right_distribute(self):
        term = t(3, times(plus(var(1), var(2)), var(3)))
        assert normalize_biperm(term) == t(
            3, plus(times(var(1), var(3)), times(var(2), var(3)))
        )

    def test_right_associate(self):
        term = t(3, times(times(var(1), var(2)), var(3)))
        assert normalize_biperm(term) == t(3, times(var(1), times(var(2), var(3))))

    def test_left_distribution_not_applied(self):
        term = t(3, times(var(1), plus(var(2), var(3))))
        assert normalize_biperm(term) == term
        assert is_reduced(term)

    def test_sum_right_nesting(self):
        term = t(3, plus(plus(var(1), var(2)), var(3)))
        assert normalize_biperm(term) == t(3, plus(var(1), plus(var(2), var(3))))

    def test_projection_preserved_exhaustively(self):
        leaves = [ZERO, ONE, var(1), var(2)]
        nodes = {1: list(leaves)}
        for k in (2, 3, 4):
            acc = []
            for k1 in range(1, k):
                for left in nodes[k1]:
                    for right in nodes[k - k1]:
                        acc.append(plus(left, right))
                        acc.append(times(left, right))
            nodes[k] = acc
        for k, pool in nodes.items():
            for node in pool:
                term = t(2, node)
                reduced = normalize_biperm(term)
                assert normalize_biperm(reduced) == reduced
                assert is_reduced(reduced) or reduced.node == ZERO
                assert project(reduced).coeffs() == project(term).coeffs()

    @settings(max_examples=300, deadline=None)
    @given(node_strategy(3))
    def test_idempotent_random(self, node):
        term = t(3, node)
        once = normalize_biperm(term)
        assert normalize_biperm(once) == once
        assert project(once).coeffs() == project(term).coeffs()
        canonical = reduce_A(term)
        assert reduce_A(canonical) == canonical
        assert project(canonical).coeffs() == project(term).coeffs()

    @settings(max_examples=300, deadline=None)
    @given(node_strategy(3))
    def test_confluence_witness(self, node):
        # rewrites by the strict-quotient relations (associativity either way,
        # right distributivity) may not change the normal form
        relation_moves = {
            "assoc-times",
            "assoc-times-inv",
            "assoc-plus",
            "assoc-plus-inv",
            "dist-right",
        }
        term = reduce_A(t(3, node))
        direct = normalize_biperm(term)
        for name, _path, moved in generator_moves(term):
            if name in relation_moves:
                assert normalize_biperm(moved) == direct

    @settings(max_examples=300, deadline=None)
    @given(node_strategy(2))
    def test_section_inverts_normalization(self, node):
        reduced = normalize_biperm(t(2, node))
        if reduced.node == ZERO:
            return
        included = section_s(reduced)
        assert normalize_biperm(included) == reduced


class TestSection:
    def test_inclusion(self):
        term = t(3, plus(times(var(1), var(3)), times(var(2), var(3))))
        assert section_s(term) == term

    def test_rejects_non_reduced(self):
        with pytest.raises(NotReduced):
            section_s(t(3, times(plus(var(1), var(2)), var(3))))


class TestFiberMembership:
    def test_examples(self):
        term = t(2, times(plus(ONE, var(1)), var(2)))
        f = rpoly(2, [(2,), (1, 2)])
        assert fiber_member(term, f, "sym")
        assert not fiber_member(term, f, "biperm")
        assert fiber_member(t(1, var(1)), unit_poly(), "sym")


class TestFiberEnumeration:
    def test_unit_fiber(self):
        result = enumerate_fiber(unit_poly(), "sym")
        assert result.terms == frozenset({t(1, var(1))})
        assert result.stable

    def test_zero_fiber(self):
        result = enumerate_fiber(zero_poly(2), "sym")
        assert result.terms == frozenset({t(2, ZERO)})

    def test_known_members(self):
        f = rpoly(2, [(2,), (1, 2)])
        result = enumerate_fiber(f, "sym", bound=8)
        expected_members = {
            t(2, times(plus(ONE, var(1)), var(2))),
            t(2, plus(var(2), times(var(1), var(2)))),
            t(2, times(var(2), plus(ONE, var(1)))),
            t(2, plus(var(2), times(var(2), var(1)))),
            t(2, times(plus(var(1), ONE), var(2))),
        }
        assert expected_members <= result.terms

    def test_biperm_product_fiber(self):
        result = enumerate_fiber(rpoly(2, [(1, 2)]), "biperm")
        assert result.terms == {
            t(2, times(var(1), var(2))),
            t(2, times(var(2), var(1))),
        }

    def test_every_member_projects_correctly(self):
        for f in enumerate_R(2):
            for mode in ("sym", "biperm"):
                result = enumerate_fiber(f, mode)
                assert result.stable
                for term in result.terms:
                    assert fiber_member(term, f, mode)

    def test_biperm_subset_of_sym(self):
        for f in enumerate_R(2):
            sym = enumerate_fiber(f, "sym").terms
            biperm = enumerate_fiber(f, "biperm").terms
            assert biperm <= sym


class TestGeneratorMoves:
    def test_distribute_at_root(self):
        term = t(3, times(var(1), plus(var(2), var(3))))
        results = {
            (name, path): moved for name, path, moved in generator_moves(term)
        }
        assert results[("dist-left", ())] == t(
            3, plus(times(var(1), var(2)), times(var(1), var(3)))
        )

    def test_commutativity(self):
        term = t(2, plus(var(1), var(2)))
        moves = {(name, moved) for name, _path, moved in generator_moves(term)}
        assert ("comm-plus", t(2, plus(var(2), var(1)))) in moves

    def test_no_inverse_distribution(self):
        term = t(3, plus(times(var(1), var(2)), times(var(1), var(3))))
        names = {name for name, _path, _res in generator_moves(term)}
        assert "dist-left" not in names
        assert "dist-right" not in names
        assert {"comm-plus", "comm-times"} <= names

    def test_moves_preserve_projection(self):
        f = rpoly(2, [(2,), (1, 2)])
        for term in enumerate_fiber(f, "sym").terms:
            for _name, _path, moved in generator_moves(term):
                assert project(moved).coeffs() == project(term).coeffs()


class TestConnectivity:
    def test_terminal_representative_shape(self):
        f = rpoly(2, [(1,), (2,)])
        assert terminal_representative(f) == t(2, plus(var(1), var(2)))
        g = rpoly(3, [(1, 2), (3,)])
        assert terminal_representative(g) == t(
            3, plus(times(var(1), var(2)), var(3))
        )

    def test_connected_for_r2(self):
        for f in enumerate_R(2):
            report = connectivity_check(f)
            assert report.connected, (str(f), report.unreachable)

    def test_single_vertex(self):
        report = connectivity_check(unit_poly())
        assert report.connected and report.fiber_size == 1

    def test_three_variable_case(self):
        report = connectivity_check(rpoly(3, [(1, 2), (3,)]))
        assert report.connected


class TestTermOperads:
    def test_components(self):
        for mode in ("sym", "biperm"):
            operad = sset_operad(mode)
            assert operad.component(unit_poly()) == (t(1, var(1)),)
            assert len(operad.component(zero_poly(2))) == 1

    def test_axioms_cap1(self):
        for mode in ("sym", "biperm"):
            report = check_axioms(sset_operad(mode), cap=1)
            assert report.ok, report.failure

    def test_action_lands_in_component(self):
        operad = sset_operad("sym")
        f = rpoly(2, [(2,), (1, 2)])
        mor = validate(f, ExtMap(2, 2, (2, 1)), rpoly(2, [(1,), (1, 2)]))
        for element in operad.component(f):
            assert operad.act(mor, element) in operad.component(mor.target)


def _fiber_is_a_prefix(f, mode):
    """The fiber at each bound B is the part with <= B leaves of the fiber at
    B + 4, and B is stable exactly when that larger fiber has nothing with
    B + 1 or B + 2 leaves."""
    bound = default_bound(f)
    beyond = enumerate_fiber(f, mode, bound + 4).terms
    for b in range(1, bound + 1):
        result = enumerate_fiber(f, mode, b)
        assert result.bound == b
        assert result.terms == {term for term in beyond if term.leaves <= b}
        assert result.stable == all(term.leaves <= b for term in beyond if term.leaves <= b + 2)


def _up_to_relabelling(polys):
    """One polynomial of each orbit under permutations of the variables."""
    seen = set()
    for f in polys:
        orbit = {
            frozenset(tuple(sorted(perm[i - 1] for i in m.support)) for m in f.monomials)
            for perm in itertools.permutations(range(1, f.arity + 1))
        }
        if not orbit & seen:
            seen |= orbit
            yield f


R3_SMALL = [f for f in enumerate_R(3) if len(f) <= 3]


class TestOneFiberRun:
    @pytest.mark.parametrize("mode", ["sym", "biperm"])
    def test_fiber_at_each_bound_is_a_prefix(self, mode):
        for f in enumerate_R(2) + list(_up_to_relabelling(R3_SMALL)):
            _fiber_is_a_prefix(f, mode)

    @pytest.mark.slow
    @pytest.mark.parametrize("mode", ["sym", "biperm"])
    def test_fiber_at_each_bound_is_a_prefix_over_every_small_R3(self, mode):
        for f in R3_SMALL:
            _fiber_is_a_prefix(f, mode)
