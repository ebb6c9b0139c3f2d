import itertools

import pytest

from ringops.errors import PreconditionViolation
from ringops.indexcat import E, ExtMap, validate
from ringops.operads import (
    boolean_rig_algebra,
    check_axioms,
    strict_operad,
    validate_algebra,
)
from ringops.operad_pair import (
    TerminalOperad,
    build_RCG,
    component_signature,
    composition_plan,
    permutation_operad,
    restriction,
    terminal_operad,
    terminal_pair,
    terminal_sigma_pair,
)
from ringops.polynomials import enumerate_R, rpoly, zero_poly

F535 = rpoly(5, [(1, 2, 3), (1, 4), (5,)])


def additive_poly(j):
    """x1 + x2 + ... + xj in j variables."""
    return rpoly(j, [(i,) for i in range(1, j + 1)])


def multiplicative_poly(j):
    """x1*x2*...*xj in j variables."""
    return rpoly(j, [tuple(range(1, j + 1))])


def word_restriction(word, u):
    """Independent oracle: keep letters in the image of u, relabel by u."""
    rank = {value: index + 1 for index, value in enumerate(u)}
    return tuple(rank[letter] for letter in word if letter in rank)


class TestPermutationOperad:
    def test_identity_and_units(self):
        operad = permutation_operad()
        ident = operad.identity_element()
        for j in (1, 2, 3):
            for word in operad.component(j):
                assert operad.gamma(word, [(1, ident)] * j) == word
        for word in operad.component(3):
            assert operad.gamma(ident, [(3, word)]) == word

    def test_action_laws(self):
        operad = permutation_operad()
        for j in (2, 3):
            perms = list(itertools.permutations(range(1, j + 1)))
            for word in operad.component(j):
                assert operad.act(j, word, tuple(range(1, j + 1))) == word
                for sigma in perms:
                    for tau in perms:
                        stepwise = operad.act(j, operad.act(j, word, sigma), tau)
                        combined = tuple(tau[sigma[i - 1] - 1] for i in range(1, j + 1))
                        assert stepwise == operad.act(j, word, combined)

    def test_gamma_associativity_small(self):
        operad = permutation_operad()
        sigma2 = operad.component(2)
        for outer in sigma2:
            for mid1 in sigma2:
                for mid2 in sigma2:
                    step = operad.gamma(outer, [(2, mid1), (2, mid2)])
                    for leaves in itertools.product(sigma2, repeat=4):
                        lhs = operad.gamma(step, [(2, leaf) for leaf in leaves])
                        inner1 = operad.gamma(mid1, [(2, leaves[0]), (2, leaves[1])])
                        inner2 = operad.gamma(mid2, [(2, leaves[2]), (2, leaves[3])])
                        rhs = operad.gamma(outer, [(4, inner1), (4, inner2)])
                        assert lhs == rhs

    def test_zero_ary_is_point(self):
        assert permutation_operad().zero_ary() == ()


class TestRestriction:
    def test_identity_injection(self):
        operad = permutation_operad()
        restrict = restriction(operad, (1, 2, 3), 3)
        for word in operad.component(3):
            assert restrict(word) == word

    def test_collapse_to_point(self):
        operad = permutation_operad()
        restrict = restriction(operad, (2,), 2)
        assert {restrict(word) for word in operad.component(2)} == {(1,)}

    def test_terminal(self):
        operad = terminal_operad()
        restrict = restriction(operad, (1, 3), 4)
        assert restrict(TerminalOperad.POINT) == TerminalOperad.POINT

    def test_matches_word_oracle(self):
        operad = permutation_operad()
        for m in (2, 3):
            for k in range(1, m + 1):
                for u in itertools.permutations(range(1, m + 1), k):
                    restrict = restriction(operad, u, m)
                    for word in operad.component(m):
                        assert restrict(word) == word_restriction(word, u)


class TestComponents:
    def test_worked_signature(self):
        pair = terminal_sigma_pair()
        assert component_signature(pair, F535) == "C(3) x G(1) x G(2) x G(3)"
        operad = build_RCG(pair)
        # factor sizes 1 * 1! * 2! * 3!
        assert len(operad.component(F535)) == 12

    def test_terminal_terminal_matches_strict(self):
        operad = build_RCG(terminal_pair())
        strict = strict_operad()
        for n in range(3):
            for f in enumerate_R(n):
                assert len(operad.component(f)) == len(strict.component(f)) == 1

    def test_zero_component_is_point(self):
        operad = build_RCG(terminal_sigma_pair())
        for n in range(3):
            assert len(operad.component(zero_poly(n))) == 1


class TestMorphismAction:
    def test_worked_action_shapes(self):
        pair = terminal_sigma_pair()
        operad = build_RCG(pair)
        g = rpoly(2, [(1, 2), (1,)])
        phi = ExtMap(5, 2, (E, 1, 2, 1, 0))
        mor = validate(F535, phi, g)
        for element in operad.component(F535):
            moved = operad.act(mor, element)
            assert moved in operad.component(g)

    def test_swap_exchanges_factors(self):
        pair = terminal_sigma_pair()
        operad = build_RCG(pair)
        f = rpoly(2, [(1, 2)])
        swap = validate(f, ExtMap(2, 2, (2, 1)), f)
        for c, gs in operad.component(f):
            moved_c, moved_gs = operad.act(swap, (c, gs))
            assert moved_gs == (word_restriction(gs[0], (2, 1)),)

    def test_identity_action(self):
        operad = build_RCG(terminal_sigma_pair())
        f = rpoly(2, [(1,), (1, 2)])
        ident = validate(f, ExtMap.identity(2), f)
        for element in operad.component(f):
            assert operad.act(ident, element) == element

    def test_action_functorial_on_samples(self):
        operad = build_RCG(terminal_sigma_pair())
        f3 = rpoly(3, [(1,), (2, 3)])
        f2 = rpoly(2, [(1,), (1, 2)])
        first = validate(f3, ExtMap(3, 2, (1, 1, 2)), f2)
        swap = validate(f2, ExtMap(2, 2, (2, 1)), rpoly(2, [(2,), (1, 2)]))
        combined = first.then(swap)
        for element in operad.component(f3):
            assert operad.act(swap, operad.act(first, element)) == operad.act(
                combined, element
            )


class TestComposition:
    def test_worked_plan(self):
        f = rpoly(2, [(1,), (1, 2)])
        g1 = rpoly(2, [(1,), (1, 2)])
        g2 = rpoly(2, [(1, 2)])
        plan = composition_plan(f, [g1, g2])
        assert plan["multiplicative"] == [
            "G(1) x G(1) -> G(1)",
            "G(2) x G(1) x G(2) -> G(3)",
            "G(1) x G(2) -> G(2)",
            "G(2) x G(2) x G(2) -> G(4)",
        ]
        assert plan["additive"] == "C(2) x C(2) x C(2) -> C(4)"
        assert plan["composite"] == rpoly(4, [(1,), (1, 3, 4), (1, 2), (1, 2, 3, 4)])

    def test_axioms_terminal_terminal(self):
        report = check_axioms(build_RCG(terminal_pair()), cap=2)
        assert report.ok, report.failure

    def test_axioms_terminal_sigma_cap1(self):
        report = check_axioms(build_RCG(terminal_sigma_pair()), cap=1)
        assert report.ok, report.failure

    def test_gamma_lands_in_component(self):
        operad = build_RCG(terminal_sigma_pair())
        f = rpoly(2, [(1,), (1, 2)])
        g1 = rpoly(1, [(1,)])
        g2 = rpoly(2, [(1, 2)])
        composite = rpoly(3, [(1,), (1, 2, 3)])
        for elt in operad.component(f):
            for x1 in operad.component(g1):
                for x2 in operad.component(g2):
                    result = operad.gamma(f, elt, [(g1, x1), (g2, x2)])
                    assert result in operad.component(composite)


class TestAlgebraCorrespondence:
    def test_boolean_round_trip(self):
        """The embedded additive/multiplicative structures rebuild theta."""
        pair = terminal_sigma_pair()
        operad = build_RCG(pair)
        algebra = boolean_rig_algebra()

        def theta_add(c_elt, xs):
            j = len(xs)
            element = (c_elt, ((1,),) * j)
            return algebra.theta(additive_poly(j), element, xs)

        def theta_mul(g_elt, xs):
            j = len(xs)
            element = (TerminalOperad.POINT, (g_elt,))
            return algebra.theta(multiplicative_poly(j), element, xs)

        for f in enumerate_R(2):
            if f.is_zero:
                continue
            lam = sorted(f.monomials, key=lambda m: m.exponents())
            for element in operad.component(f):
                c_elt, gs = element
                for xs in itertools.product((0, 1), repeat=f.arity):
                    direct = algebra.theta(f, element, xs)
                    staged = theta_add(
                        c_elt,
                        tuple(
                            theta_mul(gs[idx], tuple(xs[i - 1] for i in mono.support))
                            for idx, mono in enumerate(lam)
                        ),
                    )
                    assert direct == staged

    def test_boolean_is_an_algebra_over_rcg(self):
        report = validate_algebra(
            build_RCG(terminal_sigma_pair()), boolean_rig_algebra(), cap=2
        )
        assert report.ok, report.failure


class TestRestrictionPreconditions:
    def test_zero_ary_required(self):
        class NoZero(TerminalOperad):
            def component(self, j):
                return () if j == 0 else (TerminalOperad.POINT,)

        with pytest.raises(PreconditionViolation):
            restriction(NoZero(), (1,), 2)(TerminalOperad.POINT)
