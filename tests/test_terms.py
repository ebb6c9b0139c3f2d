import gc
import itertools
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from position_walk import position_moves, positions
from ringops import terms
from ringops.cli import main
from ringops.errors import (
    ArityMismatch,
    FiberNotStable,
    NotReduced,
    PreconditionViolation,
    RingopsError,
)
from ringops.indexcat import E, ExtMap, validate
from ringops.operads import check_axioms
from ringops.parsing import _depth, parse_poly, print_poly
from ringops.polynomials import (
    IntPoly,
    enumerate_R,
    rpoly,
    to_rpoly,
    unit_poly,
    zero_poly,
)
from ringops.terms import (
    ONE,
    ConnectivityReport,
    Term,
    ZERO,
    act_map,
    compose_terms,
    connectivity_check,
    default_bound,
    enumerate_fiber,
    fiber_member,
    is_canonical,
    is_reduced,
    normalize_biperm,
    plus,
    project,
    _MOVE_RULES,
    node_str,
    reduce_A,
    reduce_node,
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

    def test_wide_terms_normalise_to_long_chains(self):
        # A balanced tree of 2,048 leaves is 11 deep, but its normal form is
        # a chain of 2,048 parts, past Python's default recursion limit.
        # Chains that deep are compared as printed: tuple equality recurses.
        def balanced(op, n):
            node = var(1)
            while n > 1:
                node, n = (op, node, node), n // 2
            return node

        n = 2048
        chain = "(x1 + " * (n - 1) + "x1" + ")" * (n - 1)
        assert str(normalize_biperm(t(1, balanced("+", n)))) == chain
        assert str(normalize_biperm(t(1, balanced("*", n)))) == chain.replace("+", "*")
        wide = normalize_biperm(t(2, times(balanced("+", n), var(2))))
        assert str(wide) == chain.replace("x1", "(x1 * x2)")

    def test_term_helpers_walk_a_deep_normal_form(self):
        # The normal form of a balanced sum of 2,048 x1 leaves is a chain of
        # 2,048 summands; no helper may recurse once per part.
        node = var(1)
        for _ in range(11):
            node = plus(node, node)
        nf = normalize_biperm(t(1, node))
        assert is_reduced(nf)
        assert Term(1, nf.node).leaves == nf.leaves == 2048
        assert project(nf).coeffs() == {(1,): 2048}
        with pytest.raises(ArityMismatch):
            Term(0, nf.node)

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
        for name, _path, moved in position_moves(term.node):
            if name in relation_moves:
                assert normalize_biperm(t(3, moved)) == direct

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
        node = times(var(1), plus(var(2), var(3)))
        results = {(name, path): moved for name, path, moved in position_moves(node)}
        assert results[("dist-left", ())] == plus(times(var(1), var(2)), times(var(1), var(3)))

    def test_commutativity(self):
        moves = {(name, moved) for name, _path, moved in position_moves(plus(var(1), var(2)))}
        assert ("comm-plus", plus(var(2), var(1))) in moves

    def test_no_inverse_distribution(self):
        node = plus(times(var(1), var(2)), times(var(1), var(3)))
        names = {name for name, _path, _res in position_moves(node)}
        assert "dist-left" not in names
        assert "dist-right" not in names
        assert {"comm-plus", "comm-times"} <= names

    def test_moves_preserve_projection(self):
        f = rpoly(2, [(2,), (1, 2)])
        for term in enumerate_fiber(f, "sym").terms:
            for _name, _path, moved in position_moves(term.node):
                assert project(t(2, moved)).coeffs() == project(term).coeffs()


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
    B + 4, and B is stable exactly when that larger fiber, a complete one,
    has nothing with more than B leaves."""
    bound = default_bound(f)
    beyond = enumerate_fiber(f, mode, bound + 4).terms
    for b in range(1, bound + 1):
        result = enumerate_fiber(f, mode, b)
        assert result.bound == b
        assert result.terms == {term for term in beyond if term.leaves <= b}
        assert result.stable == all(term.leaves <= b for term in beyond)


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


def _two_branch_fiber(f, mode, bound):
    """The fiber DP with one sum loop per mode: the reference for the
    single-loop `_bounded_fiber`."""
    if f.is_zero:
        return (frozenset(), frozenset({Term(f.arity, ZERO)})) + (frozenset(),) * (bound - 1)
    target = frozenset(m.support for m in f.monomials)
    divisors = set()
    for mono in f.monomials:
        for size in range(len(mono.support) + 1):
            divisors.update(itertools.combinations(mono.support, size))
    mass_bound = len(f.monomials)
    variables = sorted({i for mono in f.monomials for i in mono.support})

    def product_keys(p1, p2):
        out = set()
        for k1 in p1:
            for k2 in p2:
                merged = tuple(sorted(k1 + k2))
                if len(set(merged)) != len(merged) or merged not in divisors or merged in out:
                    return None
                out.add(merged)
        return frozenset(out)

    table = [dict() for _ in range(bound + 1)]
    addends = [dict() for _ in range(bound + 1)]

    def put(store, s, key, node):
        store[s].setdefault(key, set()).add(node)

    put(table, 1, frozenset({()}), ONE)
    put(addends, 1, frozenset({()}), ONE)
    for i in variables:
        put(table, 1, frozenset({(i,)}), var(i))
        put(addends, 1, frozenset({(i,)}), var(i))
    for s in range(2, bound + 1):
        for s1 in range(1, s):
            s2 = s - s1
            if mode == "sym":
                for p1, nodes1 in table[s1].items():
                    for p2, nodes2 in table[s2].items():
                        if not (p1 & p2) and len(p1) + len(p2) <= mass_bound:
                            for n1 in nodes1:
                                for n2 in nodes2:
                                    put(table, s, p1 | p2, plus(n1, n2))
                        if len(p1) * len(p2) <= mass_bound:
                            key = product_keys(p1, p2)
                            if key is not None:
                                for n1 in nodes1:
                                    for n2 in nodes2:
                                        if ONE not in (n1, n2):
                                            put(table, s, key, times(n1, n2))
            else:
                if s1 == 1:
                    for p2, nodes2 in table[s2].items():
                        for i in variables:
                            key = product_keys(frozenset({(i,)}), p2)
                            if key is None or len(p2) > mass_bound:
                                continue
                            for n2 in nodes2:
                                if n2 != ONE:
                                    put(table, s, key, times(var(i), n2))
                                    put(addends, s, key, times(var(i), n2))
                for p1, nodes1 in addends[s1].items():
                    for p2, nodes2 in table[s2].items():
                        if not (p1 & p2) and len(p1) + len(p2) <= mass_bound:
                            for n1 in nodes1:
                                for n2 in nodes2:
                                    put(table, s, p1 | p2, plus(n1, n2))
    return tuple(
        frozenset(Term(f.arity, node) for node in table[s].get(target, ()))
        for s in range(bound + 1)
    )


def _bounded_fiber(f, mode, bound):
    """`terms._bounded_fiber` on f's walk, as `enumerate_fiber` calls it."""
    return terms._bounded_fiber(terms._reached(f, mode, bound), mode, bound)


def _fiber_table(f, mode, bound):
    """`terms._fiber_table` on f's walk."""
    return terms._fiber_table(terms._reached(f, mode, bound), mode, bound)


def _padded(by_leaves, bound):
    """`_bounded_fiber`'s levels as one frozenset per leaf count 0..bound:
    the DP stops at its last level, and the counts past it are empty."""
    assert len(by_leaves) <= bound + 1
    return tuple(map(frozenset, by_leaves)) + (frozenset(),) * (bound + 1 - len(by_leaves))


def _as_terms(f, by_leaves, bound):
    """`_bounded_fiber`'s bare nodes as one frozenset of `Term`s per leaf count."""
    return tuple(
        frozenset(Term(f.arity, node) for node in level) for level in _padded(by_leaves, bound)
    )


def _contains_zero(node):
    if node == ZERO:
        return True
    return node[0] in ("+", "*") and (_contains_zero(node[1]) or _contains_zero(node[2]))


FIBER_POLYS = enumerate_R(2) + R3_SMALL


class TestOneFiberLoop:
    @pytest.mark.parametrize("mode", ["sym", "biperm"])
    def test_matches_the_two_branch_reference(self, mode):
        for f in FIBER_POLYS:
            bound = default_bound(f) + 2
            assert _as_terms(f, _bounded_fiber(f, mode, bound), bound) == _two_branch_fiber(
                f, mode, bound
            ), str(f)

    @pytest.mark.parametrize("mode", ["sym", "biperm"])
    def test_a_huge_bound_stops_after_the_last_leaf_count(self, mode):
        for f in (rpoly(2, [(1,), (2,)]), rpoly(3, [(1, 2), (3,)])):
            start = time.perf_counter()
            result = enumerate_fiber(f, mode, 10**5)
            assert time.perf_counter() - start < 10
            assert result.stable
            assert result.terms == enumerate_fiber(f, mode).terms
            # the DP stops at its last level, below the default bound
            by_leaves = _bounded_fiber(f, mode, 10**5 + 2)
            assert by_leaves == _bounded_fiber(f, mode, default_bound(f) + 2)
            assert len(by_leaves) < default_bound(f) + 3


@settings(max_examples=500, deadline=None)
@given(node_strategy(3))
def test_is_canonical_needs_no_zero_scan(node):
    for candidate in (node, reduce_node(node)):
        expected = reduce_node(candidate) == candidate and (
            candidate == ZERO or not _contains_zero(candidate)
        )
        assert is_canonical(candidate) == expected


def _adjacency_connectivity(f, bound=None):
    """`connectivity_check` as an adjacency graph of nodes built from
    `position_moves` and searched from the terminal representative: the
    reference for the union-find over interned ids, sharing no code with
    the id walker it checks."""
    result = enumerate_fiber(f, "sym", bound)
    if not result.stable:
        raise FiberNotStable(f"fiber of {f} is not complete at bound {result.bound}")
    fiber = {term.node for term in result.terms}
    start = terminal_representative(f)
    if start.node not in fiber:
        raise PreconditionViolation(f"terminal representative {start} missing from fiber")
    adjacency = {node: set() for node in fiber}
    for node in fiber:
        for _name, _path, target in position_moves(node):
            if target in adjacency:
                adjacency[node].add(target)
                adjacency[target].add(node)
    seen = {start.node}
    frontier = [start.node]
    while frontier:
        current = frontier.pop()
        for nxt in adjacency[current]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    unreachable = frozenset(Term(f.arity, node) for node in fiber - seen)
    return ConnectivityReport(not unreachable, len(fiber), start, unreachable)


R3_FOUR_ORBITS = list(_up_to_relabelling([f for f in enumerate_R(3) if len(f) == 4]))
FIBER_SIZES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "data" / "fiber_sizes.json").read_text()
)["sizes"]
CONNECT_POLYS = (
    enumerate_R(2)
    + list(_up_to_relabelling(R3_SMALL))
    + [f for f in R3_FOUR_ORBITS if FIBER_SIZES[print_poly(f)][0] <= 2000]
)
MOVE_NAMES = {name for name, _ in _MOVE_RULES}
RULE_SUBSETS = [
    MOVE_NAMES - {"comm-plus", "comm-times"},
    MOVE_NAMES - {"comm-plus"},
    {"assoc-times", "assoc-times-inv", "comm-plus", "comm-times", "unit-left", "unit-right"},
    set(),
    # one direction of assoc only, and dist has no inverse: some edges
    # are seen from one end only
    {"assoc-plus", "assoc-times", "dist-left", "dist-right"},
    {"assoc-times", "comm-times", "dist-right"},
    {"assoc-plus-inv", "comm-plus", "dist-left"},
]


class TestConnectivityReference:
    def test_matches_the_adjacency_search(self):
        for f in CONNECT_POLYS:
            assert connectivity_check(f) == _adjacency_connectivity(f), str(f)

    @pytest.mark.parametrize("kept", RULE_SUBSETS)
    def test_matches_the_adjacency_search_on_disconnected_fibers(self, kept, monkeypatch):
        monkeypatch.setattr(terms, "_MOVE_RULES", tuple(r for r in _MOVE_RULES if r[0] in kept))
        reports = [connectivity_check(f) for f in CONNECT_POLYS]
        assert reports == [_adjacency_connectivity(f) for f in CONNECT_POLYS]
        assert any(report.unreachable for report in reports)
        for report in reports:
            assert report.connected == (not report.unreachable)
            assert report.terminal not in report.unreachable

    def test_no_moves_leave_only_the_terminal_reachable(self, monkeypatch):
        monkeypatch.setattr(terms, "_MOVE_RULES", ())
        f = rpoly(3, [(1, 2), (3,)])
        report = connectivity_check(f)
        fiber = enumerate_fiber(f, "sym").terms
        assert report.unreachable == fiber - {terminal_representative(f)}

    def test_a_disconnected_fiber_fails_the_command(self, monkeypatch, capsys):
        kept = MOVE_NAMES - {"comm-plus", "comm-times"}
        monkeypatch.setattr(terms, "_MOVE_RULES", tuple(r for r in _MOVE_RULES if r[0] in kept))
        code = main(["term", "connect", "--poly", "R(2): x2 + x1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "connected: False" in out.splitlines()


def _forward_fiber(f, mode, bound):
    """The fiber DP that builds every node of every projection key up to the
    bound and keeps the target's, one frozenset of nodes per leaf count: the
    reference for the demand-driven `_bounded_fiber`."""
    if f.is_zero:
        return (frozenset(), frozenset({ZERO})) + (frozenset(),) * (bound - 1)
    supports = [m.support for m in f.monomials]
    target = frozenset(supports)
    divisors = set()
    for support in supports:
        for size in range(len(support) + 1):
            divisors.update(itertools.combinations(support, size))
    mass_bound = len(supports)
    unit = frozenset({()})
    variables = {
        frozenset({(i,)}): {var(i)} for i in sorted({i for s in supports for i in s})
    }

    def product_keys(p1, p2):
        out = set()
        for k1 in p1:
            for k2 in p2:
                merged = tuple(sorted(k1 + k2))
                if len(set(merged)) != len(merged) or merged not in divisors or merged in out:
                    return None
                out.add(merged)
        return frozenset(out)

    table = [{}, {unit: {ONE}, **variables}]
    nonsums = [{}, table[1]]
    if mode == "sym":
        factors, summands = table, table
    else:
        factors, summands = [{}, variables] + [{}] * (bound - 1), nonsums
    largest = 1
    for s in range(2, bound + 1):
        if s > 2 * largest:
            break
        level = {}
        products = {}
        for s1 in range(1, s):
            right = table[s - s1].items()
            for p1, nodes1 in factors[s1].items():
                if p1 == unit:
                    continue
                for p2, nodes2 in right:
                    if p2 == unit or len(p1) * len(p2) > mass_bound:
                        continue
                    key = product_keys(p1, p2)
                    if key is not None:
                        new = {times(n1, n2) for n1 in nodes1 for n2 in nodes2}
                        products.setdefault(key, set()).update(new)
                        level.setdefault(key, set()).update(new)
            for p1, nodes1 in summands[s1].items():
                for p2, nodes2 in right:
                    if not (p1 & p2) and len(p1) + len(p2) <= mass_bound:
                        level.setdefault(p1 | p2, set()).update(
                            plus(n1, n2) for n1 in nodes1 for n2 in nodes2
                        )
        table.append(level)
        nonsums.append(products)
        if level:
            largest = s
    return tuple(frozenset(level.get(target, ())) for level in table) + (frozenset(),) * (
        bound + 1 - len(table)
    )


DEMAND_POLYS = [f for n in range(3) for f in enumerate_R(n)] + R3_SMALL + R3_FOUR_ORBITS
R4_SAMPLE = random.Random(4).sample([f for f in enumerate_R(4) if 0 < len(f) <= 3], 6)


def _sym_table(f):
    """The stable sym table of f, its fiber's ids per leaf count and the
    cons dict {entry: id}, as `connectivity_check` reads them."""
    bound = default_bound(f)
    table, by_leaves, _ = _fiber_table(f, "sym", bound + 2)
    assert not any(by_leaves[bound + 1 :]), str(f)
    return table, by_leaves[: bound + 1], {entry: i for i, entry in enumerate(table)}


def _fiber_ids(levels):
    return {i for ids in levels for i in ids}


def _keys_of(table):
    """The projection key of every id of a table, as sets of supports."""
    keys = []
    for entry in table:
        if entry == ZERO:
            keys.append(frozenset())
        elif entry == ONE:
            keys.append(frozenset({()}))
        elif entry[0] == "v":
            keys.append(frozenset({(entry[1],)}))
        elif entry[0] == "+":
            keys.append(keys[entry[1]] | keys[entry[2]])
        else:
            keys.append(frozenset(
                tuple(sorted(a + b)) for a in keys[entry[1]] for b in keys[entry[2]]
            ))
    return keys


class TestIdWalker:
    def test_matches_the_position_walk(self):
        """Every sum's or product's `_root_moves`, fiber node or proper
        subterm, are exactly its root-position rewrites; in a complete table
        each of them has an id."""
        for f in enumerate_R(2) + R3_SMALL + R3_FOUR_ORBITS:
            table, _levels, cons = _sym_table(f)
            nodes = terms._decode(table)
            moves = terms._root_moves(table, cons)
            for i, entry in enumerate(table):
                if len(entry) == 3:
                    expected = {
                        terms._encode(reduced, cons)
                        for _, path, reduced in position_moves(nodes[i]) if path == ()
                    }
                    assert None not in expected, (str(f), nodes[i])
                    assert set(moves(i)) == expected, (str(f), nodes[i])

    def test_every_subterm_of_a_fiber_node_has_an_id(self):
        """Every subterm of a built node is built, and equal trees share
        one id."""
        for f in enumerate_R(2) + R3_SMALL + R3_FOUR_ORBITS:
            table, levels, cons = _sym_table(f)
            nodes = terms._decode(table)
            assert len(cons) == len(table) == len(set(nodes)), str(f)
            for ids in levels:
                for i in ids:
                    assert terms._encode(nodes[i], cons) == i
                    for _path, sub in positions(nodes[i]):
                        assert terms._encode(sub, cons) is not None, (str(f), sub)

    def test_a_complete_table_builds_every_reached_key_whole(self):
        """The completeness lemma of `connectivity_check`: at a bound that
        covers f's largest count, every key `_reach` reaches has a built
        cell at each of its counts.  Read off the walk (every count is at
        most f's last, up to which `_build_cells` builds every reached key)
        for every nonzero f of R(1..3), and off the built cells for those of
        at most four monomials, at the tight and the default bound."""
        checked = 0
        for f in [f for n in (1, 2, 3) for f in enumerate_R(n) if not f.is_zero]:
            target, _, keys, _ = terms._reached(f, "sym", default_bound(f))
            last = max(keys[target][0])
            for bound in (last, default_bound(f)):
                cells = _fiber_table(f, "sym", bound)[2] if len(f) <= 4 else None
                for key, (counts, *_) in keys.items():
                    for s in counts:
                        if s > 1:
                            assert s <= last, (str(f), bound, key, s)
                            assert cells is None or (key, s) in cells, (str(f), bound, key, s)
                    checked += 1
        assert checked == 6460

    @pytest.mark.parametrize("kept", [MOVE_NAMES] + RULE_SUBSETS)
    def test_each_split_class_is_the_product_of_its_parts(self, kept, monkeypatch):
        """The lemma behind the class representatives, at every reached
        key: for a sum or product (tag, l, r), every (tag, a, b) with a and
        b built nodes of l's and r's keys is built, with the key of
        (tag, l, r).  The root rewrites stay within their key under any
        rules, so each representative (tag, root(l), root(r)) is one of
        these."""
        monkeypatch.setattr(terms, "_MOVE_RULES", tuple(r for r in _MOVE_RULES if r[0] in kept))
        for f in enumerate_R(2) + R3_SMALL + R3_FOUR_ORBITS:
            table, _levels, cons = _sym_table(f)
            keys = _keys_of(table)
            built: dict = {}
            for i, key in enumerate(keys):
                built.setdefault(key, []).append(i)
            moves = terms._root_moves(table, cons)
            classes = {}
            for i, entry in enumerate(table):
                if len(entry) == 3:
                    assert all(keys[j] == keys[i] for j in moves(i)), (str(f), i)
                    classes[entry[0], keys[entry[1]], keys[entry[2]]] = keys[i]
            for (tag, left, right), key in classes.items():
                for a in built[left]:
                    for b in built[right]:
                        j = cons.get((tag, a, b))
                        assert j is not None and keys[j] == key, (str(f), tag, a, b)

    def test_a_connected_fiber_stops_at_the_spanning_union(self, monkeypatch):
        """Each key's walk stops once the key is one component: f's, and
        its proper subterms' too."""
        f = parse_poly("R(3): x3 + x2*x3 + x1*x3 + x1*x2")
        table, levels, cons = _sym_table(f)
        fiber = _fiber_ids(levels)
        below = {i for i, entry in enumerate(table) if len(entry) == 3} - fiber
        walked = []
        root_moves = terms._root_moves

        def counted(table, cons):
            moves = root_moves(table, cons)
            return lambda i: walked.append(i) or moves(i)

        monkeypatch.setattr(terms, "_root_moves", counted)
        assert connectivity_check(f) == _adjacency_connectivity(f)
        assert 0 < len(fiber.intersection(walked)) < len(fiber)
        assert 0 < len(below.intersection(walked)) < len(below)

    @pytest.mark.parametrize("text", ["R(3): x1 + x2*x3", "R(3): x1 + x2*x3 + x1*x2*x3"])
    def test_a_missing_representative_is_an_error(self, text, monkeypatch):
        """Both members of the split class of `x2*x3 + x1`, each dropped
        from the table in turn: at f's key, and at a proper subterm's key.
        Dropping the class representative leaves the other member with
        none, which must be an error naming it, not a skipped join.  The
        sums are kept apart (no comm-plus), so every member is walked."""
        kept = MOVE_NAMES - {"comm-plus"}
        monkeypatch.setattr(terms, "_MOVE_RULES", tuple(r for r in _MOVE_RULES if r[0] in kept))
        f = parse_poly(text)
        table, levels, cells = _fiber_table(f, "sym", default_bound(f))
        nodes = terms._decode(table)
        members = {
            node_str(nodes[i]): i for i in range(len(table))
            if node_str(nodes[i]) in ("((x2 * x3) + x1)", "((x3 * x2) + x1)")
        }
        assert len(members) == 2
        assert (set(members.values()) <= _fiber_ids(levels)) == (text == "R(3): x1 + x2*x3")
        errors = []
        for dropped, i in members.items():
            broken = list(table)
            broken[i] = ("dropped",)
            without = {
                cell: ([j for j in ids if j != i], k) for cell, (ids, k) in cells.items()
            }
            kept_levels = tuple([j for j in ids if j != i] for ids in levels)
            monkeypatch.setattr(terms, "_fiber_table", lambda *_: (broken, kept_levels, without))
            try:
                connectivity_check(f)
            except RingopsError as err:
                errors.append((dropped, str(err)))
        assert len(errors) == 1
        (dropped, message), = errors
        (other,) = set(members) - {dropped}
        assert message == f"the split class of {other} has no representative"


def test_an_unknown_mode_is_a_precondition_violation():
    f = rpoly(2, [(1,), (2,)])
    with pytest.raises(PreconditionViolation, match="unknown fiber mode 'bogus'"):
        enumerate_fiber(f, "bogus")
    with pytest.raises(PreconditionViolation, match="unknown mode 'bogus'"):
        sset_operad("bogus")


def test_no_term_cache_outlives_a_call():
    """Each fiber call walks f's keys and hands the walk to its build, and
    normal forms are recomputed: after fibers at the default and a truncated
    bound in both modes, a connectivity check, a normal form and a pset
    component, every lru_cache of the term layer is empty."""
    f = parse_poly("R(3): x3 + x2*x3 + x1*x2")
    for mode in ("sym", "biperm"):
        assert enumerate_fiber(f, mode).stable
        assert not enumerate_fiber(f, mode, 4).stable
    assert connectivity_check(f).connected
    wide = Term(3, times(plus(var(1), var(2)), plus(var(3), times(var(1), var(3)))))
    assert is_reduced(normalize_biperm(wide))
    assert len(sset_operad("biperm").component(f)) == len(enumerate_fiber(f, "biperm").terms)
    caches = {
        name: value.cache_info().currsize
        for name, value in vars(terms).items()
        if hasattr(value, "cache_info") and value.__module__ == terms.__name__
    }
    assert {"_bounded_fiber", "_cached_act", "_cached_gamma"} <= set(caches)
    assert caches == dict.fromkeys(caches, 0)


class TestDemandDrivenFiber:
    @pytest.mark.parametrize("mode", ["sym", "biperm"])
    def test_matches_the_forward_dp_per_leaf_count(self, mode):
        for f in DEMAND_POLYS:
            largest = sum(max(m.bit_count(), 1) for m in f.masks)
            for bound in (1, 2, 3, 4, largest - 1, largest, default_bound(f) + 2):
                if bound < 1:
                    continue
                by_leaves = _bounded_fiber(f, mode, bound)
                assert _padded(by_leaves, bound) == _forward_fiber(f, mode, bound), (
                    str(f), bound
                )
                assert all(len(set(level)) == len(level) for level in by_leaves), (str(f), bound)

    def test_sizes_match_the_recorded_golden(self):
        assert len(FIBER_SIZES) == 107
        for text, sizes in FIBER_SIZES.items():
            results = [enumerate_fiber(parse_poly(text), mode) for mode in ("sym", "biperm")]
            assert [len(result.terms) for result in results] == sizes, text
            assert all(result.stable for result in results), text

    def test_r2_sizes_by_hand(self):
        assert [len(enumerate_fiber(f, "sym").terms) for f in enumerate_R(2)] == [
            1, 1, 1, 2, 2, 8, 8, 40
        ]
        assert [len(enumerate_fiber(f, "biperm").terms) for f in enumerate_R(2)] == [
            1, 1, 1, 2, 2, 6, 6, 20
        ]

    @pytest.mark.parametrize("mode", ["sym", "biperm"])
    def test_each_demanded_cell_is_the_sum_of_its_split_products(self, mode):
        """A node's top split is read off the node, so a built cell has
        exactly sum over its splits of |left pool| * |right cell| nodes, all
        distinct; a left summand is drawn from the products of its cell in
        biperm mode.  Past f's last count, the cells built are the non-empty
        ones of every key the walk reaches."""
        for f in DEMAND_POLYS:
            if f.is_zero:
                continue
            target = frozenset(m.support for m in f.monomials)
            bound = default_bound(f) + 2
            leaves = terms._leaves(f)
            keys = dict.fromkeys(leaves, ((1,), (1,), (), ()))
            last = max(terms._reach(target, mode, keys)[0])
            table, cells = terms._build_cells(leaves, mode, keys, last)
            assert last <= bound

            def size(key, s):
                return len(cells.get((key, s), ((),))[0])

            def summands(key, s):
                nodes = [table[i] for i in cells.get((key, s), ((),))[0]]
                return len(nodes) if mode == "sym" else sum(n[0] != "+" for n in nodes)

            assert {cell for cell in cells if cell[1] > 1} == {
                (key, s) for key, (counts, *_) in keys.items() for s in counts if s > 1
            }, str(f)
            for (key, s), (ids, usable) in cells.items():
                if s == 1:
                    continue
                _, _, products, sums = keys[key]
                nodes = [table[i] for i in ids]
                assert usable == summands(key, s)
                made = 0
                for s1 in range(1, s):
                    for p1, p2 in products:
                        made += size(p1, s1) * size(p2, s - s1)
                    for p1, p2 in sums:
                        made += summands(p1, s1) * size(p2, s - s1)
                assert len(set(nodes)) == len(nodes) == made > 0, (str(f), s, key)

    @pytest.mark.parametrize("mode", ["sym", "biperm"])
    def test_matches_the_forward_dp_on_arity_four(self, mode):
        for f in R4_SAMPLE:
            bound = default_bound(f) + 2
            assert _padded(_bounded_fiber(f, mode, bound), bound) == _forward_fiber(
                f, mode, bound
            ), str(f)

    def test_the_fiber_table_leaves_no_reference_cycles(self):
        # A table is freed as soon as its last reference goes, not at the
        # collector's next run.
        f = parse_poly("R(3): x2*x3 + x1 + x1*x3 + x1*x2*x3")
        for mode in ("sym", "biperm"):
            gc.collect()
            _fiber_table(f, mode, default_bound(f) + 2)
            assert gc.collect() == 0, mode

    @pytest.mark.slow
    def test_the_two_largest_four_monomial_orbits_are_connected(self):
        for text, size in (
            ("R(3): x3 + x2*x3 + x1*x3 + x1*x2*x3", 13648),
            ("R(3): x2*x3 + x1*x3 + x1*x2 + x1*x2*x3", 22656),
        ):
            report = connectivity_check(parse_poly(text))
            assert report.connected, text
            assert report.fiber_size == size, text


@pytest.mark.parametrize("mode", ["sym", "biperm"])
def test_structure_maps_build_terms_that_pass_the_arity_check(mode):
    # act_map, compose_terms, normalize_biperm and reduce_A skip Term's arity
    # walk; every term they build over R(0..2) must pass it all the same.
    from ringops.operads import _all_morphisms, _check_plan

    operad = sset_operad(mode)
    built = []
    for mor in _all_morphisms(2):
        built += [act_map(mor.map, x) for x in operad.component(mor.source)]
    for g, _, shapes in _check_plan(2).blocks():
        for fs, _ in shapes:
            for c in operad.component(g):
                for xs in itertools.product(*map(operad.component, fs)):
                    built.append(compose_terms(c, xs))
    built += [normalize_biperm(x) for x in built] + [reduce_A(x) for x in built]
    assert len(built) > 1000
    for term in built:
        assert Term(term.arity, term.node) == term


# ---------------------------------------------------------------------------
# The fold and the fused substitute-and-reduce pass, against recursive walks


def _ref_leaves(node):
    return _ref_leaves(node[1]) + _ref_leaves(node[2]) if len(node) == 3 else 1


def _ref_depth(node):
    return 1 + max(_ref_depth(node[1]), _ref_depth(node[2])) if len(node) == 3 else 0


def _ref_project(node, arity):
    if node == ZERO:
        return IntPoly.make(arity, {})
    if node == ONE:
        return IntPoly.make(arity, {(): 1})
    if node[0] == "v":
        return IntPoly.make(arity, {(node[1],): 1})
    left, right = _ref_project(node[1], arity), _ref_project(node[2], arity)
    return left.add(right) if node[0] == "+" else left.mul(right)


def _ref_is_reduced(node):
    if len(node) < 3:
        return True
    tag, left, right = node
    if tag == "*":
        ok = left[0] == "v" and right not in (ZERO, ONE)
    else:
        ok = ZERO not in (left, right) and left[0] != "+"
    return ok and _ref_is_reduced(left) and _ref_is_reduced(right)


def _ref_reduce(node):
    """`reduce_node` as it read before the fused pass, without its cache."""
    if len(node) < 3:
        return node
    tag, left, right = node[0], _ref_reduce(node[1]), _ref_reduce(node[2])
    if tag == "+":
        return right if left == ZERO else left if right == ZERO else (tag, left, right)
    if ZERO in (left, right):
        return ZERO
    return right if left == ONE else left if right == ONE else (tag, left, right)


def _ref_substitute(node, leaf):
    """The deleted `_substitute`: leaf(i) in place of each variable x_i."""
    if node[0] == "v":
        return leaf(node[1])
    if len(node) == 3:
        return (node[0], _ref_substitute(node[1], leaf), _ref_substitute(node[2], leaf))
    return node


def _ref_act(phi, term):
    images = [ZERO if j == 0 else ONE if j == E else var(j) for j in phi.images]
    return Term(phi.target_size, _ref_reduce(_ref_substitute(term.node, lambda i: images[i - 1])))


def _ref_compose(g_term, args):
    offsets = list(itertools.accumulate([a.arity for a in args], initial=0))
    shifted = [
        _ref_substitute(a.node, lambda i, offset=offset: var(i + offset))
        for a, offset in zip(args, offsets)
    ]
    return Term(offsets[-1], _ref_reduce(_ref_substitute(g_term.node, lambda i: shifted[i - 1])))


def _ref_encode(node, cons):
    if len(node) == 3:
        left, right = _ref_encode(node[1], cons), _ref_encode(node[2], cons)
        if left is None or right is None:
            return None
        node = (node[0], left, right)
    return cons.get(node)


def _random_term(rng, arity, leaves):
    """A random term of the arity over 0, 1 and its variables."""

    def node(leaves):
        if leaves == 1:
            return rng.choice([ZERO, ONE] + [var(i) for i in range(1, arity + 1)])
        left = rng.randint(1, leaves - 1)
        return (rng.choice("+*"), node(left), node(leaves - left))

    return Term(arity, node(leaves))


def test_the_fold_matches_recursive_walks():
    rng = random.Random(20)
    for _ in range(3000):
        arity = rng.randint(1, 4)
        term = _random_term(rng, arity, rng.randint(1, 12))
        node = term.node
        assert term.leaves == _ref_leaves(node)
        assert _depth(node) == _ref_depth(node)
        assert project(term) == _ref_project(node, arity)
        assert terms.is_reduced_node(node) == _ref_is_reduced(node)
        assert terms.is_reduced_node(normalize_biperm(term).node)
        assert reduce_node(node) == _ref_reduce(node)
        target = rng.randint(0, 4)
        images = [0, E, *range(1, target + 1)]
        phi = ExtMap(arity, target, tuple(rng.choice(images) for _ in range(arity)))
        assert act_map(phi, term) == _ref_act(phi, term)
        args = [_random_term(rng, rng.randint(0, 3), rng.randint(1, 6)) for _ in range(arity)]
        assert compose_terms(term, args) == _ref_compose(term, args)


def test_encode_matches_a_recursive_walk_on_every_node_of_a_sym_table():
    for f in enumerate_R(2) + R3_SMALL:
        table, *_ = _fiber_table(f, "sym", default_bound(f))
        cons = {entry: i for i, entry in enumerate(table)}
        for i, node in enumerate(terms._decode(table)):
            assert terms._encode(node, cons) == _ref_encode(node, cons) == i, (str(f), node)
        assert terms._encode(times(ZERO, ZERO), cons) is None


def test_the_arity_check_names_the_leftmost_bad_variable():
    with pytest.raises(ArityMismatch, match="^variable x3 out of range for arity 2$"):
        Term(2, plus(var(3), var(4)))
    with pytest.raises(ArityMismatch, match="^variable x0 out of range for arity 2$"):
        Term(2, times(plus(var(1), var(0)), var(5)))


# Random R(4) polynomials of at most 4 monomials, drawn from the 15 supports.
R4_SUPPORTS = [tuple(i for i in range(1, 5) if mask >> (i - 1) & 1) for mask in range(1, 16)]
R4_DRAWN = [
    rpoly(4, rng.sample(R4_SUPPORTS, rng.randint(1, 4)))
    for rng in [random.Random(20)]
    for _ in range(300)
]


@pytest.mark.parametrize("mode", ["sym", "biperm"])
def test_the_largest_leaf_count_is_the_sum_over_monomials(mode):
    # Sigma_m max(|m|, 1), read off the walk alone: no node is built.  The
    # fiber is complete at that bound and not one below it.
    for f in [f for n in (1, 2, 3) for f in enumerate_R(n) if not f.is_zero] + R4_DRAWN:
        largest = sum(max(m.bit_count(), 1) for m in f.masks)
        target, _, keys, complete = terms._reached(f, mode, largest)
        assert max(keys[target][0]) == largest and complete, str(f)
        assert not terms._reached(f, mode, largest - 1)[3], str(f)
