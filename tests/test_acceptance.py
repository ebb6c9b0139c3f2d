"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import functools
import itertools
import random
import time

from position_walk import position_moves

from ringops.indexcat import (
    E,
    ExtMap,
    all_factorizations,
    automorphisms,
    canonical_decompose,
    enumerate_hom,
    has_effective_hom,
    induced_lambda_maps,
    special_rep_morphism,
    substitute,
    validate,
)
from ringops.operads import (
    check_axioms,
    check_einfty_set,
    strict_operad,
)
from ringops.operad_pair import (
    build_RCG,
    component_signature,
    composition_plan,
    terminal_pair,
    terminal_sigma_pair,
)
from ringops.parsing import parse_poly, parse_term, print_poly, print_term
from ringops.polynomials import (
    Monomial,
    compose,
    IntPoly,
    enumerate_R,
    is_member,
    is_nondegenerate,
    is_special,
    lambda_of,
    rpoly,
    special_of_type,
    to_rpoly,
    type_of,
)
from ringops.terms import (
    ONE,
    Term,
    ZERO,
    connectivity_check,
    enumerate_fiber,
    is_reduced,
    normalize_biperm,
    plus,
    project,
    reduce_A,
    reduce_node,
    section_s,
    sset_operad,
    terminal_representative,
    times,
    var,
    _normalize,
)
from ringops.wreath import (
    FFMorphism,
    FFObject,
    polynomial_assignment,
    verify_assignment_functoriality,
)
from ringops.polynomials import UNIT


def from_rpoly(f):
    """f as an IntPoly, with every monomial at coefficient 1."""
    return IntPoly.make(f.arity, {m.support: 1 for m in f.monomials})


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d}: FAIL - {title}")
                raise
            elapsed = time.monotonic() - started
            print(f"criterion {number:02d}: PASS - {title} ({elapsed:.1f}s)")

        return wrapper

    return decorate


@criterion(1, "cardinalities 1, 2, 8, 128, 32768 for n = 0..4")
def test_criterion_01_cardinality():
    started = time.monotonic()
    counts = [len(enumerate_R(n)) for n in range(5)]
    assert counts == [1, 2, 8, 128, 32768]
    assert time.monotonic() - started < 10


@criterion(2, "closure of composition over R(2) with arguments from R(0..2)")
def test_criterion_02_closure():
    started = time.monotonic()
    pool = enumerate_R(0) + enumerate_R(1) + enumerate_R(2)
    failures = 0
    for g in enumerate_R(2):
        for args in itertools.product(pool, repeat=2):
            composite = compose(g, list(args))
            if not is_member(from_rpoly(composite)):
                failures += 1
    assert failures == 0
    assert time.monotonic() - started < 60


@criterion(3, "worked morphism and pair-composition golden values")
def test_criterion_03_worked_examples():
    f = rpoly(5, [(1, 2, 3), (1, 4), (5,)])
    g = rpoly(2, [(1, 2), (1,)])
    # lambda listing {5} < {1,4} < {1,2,3}
    assert [m.support for m in lambda_of(f)] == [(5,), (1, 4), (1, 2, 3)]
    # induced monomial maps
    mor = validate(f, ExtMap(5, 2, (E, 1, 2, 1, 0)), g)
    maps = induced_lambda_maps(mor)
    j1, j12 = Monomial(2, (1,)), Monomial(2, (1, 2))
    assert maps.phi_prime[j1] == Monomial(5, (1, 4))
    assert maps.phi_prime[j12] == Monomial(5, (1, 2, 3))
    assert maps.per_monomial[j1] == {1: 4}
    assert maps.per_monomial[j12] == {1: 2, 2: 3}
    # component signature: additive factor at 3 monomials, one multiplicative
    # factor per monomial of sizes 3, 2, 1
    pair = terminal_sigma_pair()
    assert component_signature(pair, f) == "C(3) x G(1) x G(2) x G(3)"
    assert sorted(component_signature(pair, f).split(" x ")) == sorted(
        ["C(3)", "G(3)", "G(2)", "G(1)"]
    )
    # composite polynomial of the worked pair composition
    h = rpoly(2, [(1,), (1, 2)])
    composite = compose(h, [rpoly(2, [(1,), (1, 2)]), rpoly(2, [(1, 2)])])
    assert composite == rpoly(4, [(1,), (1, 3, 4), (1, 2), (1, 2, 3, 4)])
    plan = composition_plan(h, [rpoly(2, [(1,), (1, 2)]), rpoly(2, [(1, 2)])])
    assert plan["multiplicative"] == [
        "G(1) x G(1) -> G(1)",
        "G(2) x G(1) x G(2) -> G(3)",
        "G(1) x G(2) -> G(2)",
        "G(2) x G(2) x G(2) -> G(4)",
    ]
    assert plan["additive"] == "C(2) x C(2) x C(2) -> C(4)"


@criterion(4, "wreath assignment, composite polynomial and folding map")
def test_criterion_04_wreath_golden():
    outer = FFMorphism.make(
        FFObject((2, 1)), FFObject((1,)), (1, 1), [{(1, 1): 1, (2, 1): 1}]
    )
    inner = FFMorphism.make(
        FFObject((2, 2)),
        FFObject((2, 1)),
        (1, 1),
        [{(1, 1): 1, (2, 2): 1, (1, 2): 2, (2, 1): 0}, {(): 1}],
    )
    assert polynomial_assignment(outer)[(1, 1)] == rpoly(3, [(1, 3), (2, 3)])
    inner_map = polynomial_assignment(inner)
    assert inner_map[(1, 1)] == rpoly(4, [(1, 3), (2, 4)])
    assert inner_map[(2, 1)] == rpoly(4, [(1, 4)])
    assert inner_map[(1, 2)] is UNIT
    report = verify_assignment_functoriality(outer, inner)
    assert report.ok
    assert report.composites[(1, 1)] == rpoly(4, [(1, 3), (2, 4), (1, 4)])
    fold = report.folds[(1, 1)]
    assert fold.source_size == 13 and fold.target_size == 4
    for n in range(1, 13):
        assert fold(n) == ((n - 1) % 4) + 1
    assert fold(13) == E


@criterion(5, "unique special representative with a validated morphism, n <= 3")
def test_criterion_05_special_representatives():
    started = time.monotonic()
    objects = [f for n in range(4) for f in enumerate_R(n)]
    specials = sorted(
        {special_of_type(type_of(f)) for f in objects},
        key=lambda s: (s.arity, print_poly(s)),
    )
    for f in objects:
        mor = special_rep_morphism(f)
        assert is_special(mor.source)
        assert mor.map.is_effective or f.is_zero
        validate(mor.source, mor.map, f)
        expected = special_of_type(type_of(f))
        admitting = [s for s in specials if has_effective_hom(s, f)]
        assert admitting == [expected], (str(f), list(map(str, admitting)))
    assert time.monotonic() - started < 120


@criterion(6, "non-degeneracy criterion: surjective iff target non-degenerate")
def test_criterion_06_nondegeneracy():
    exceptions = 0
    for m in range(1, 4):
        for f in enumerate_R(m):
            if not is_nondegenerate(f):
                continue
            for n in range(1, 4):
                for images in itertools.product(range(1, n + 1), repeat=m):
                    phi = ExtMap(m, n, images)
                    image = substitute(phi, f)
                    if not is_member(image):
                        continue
                    target = to_rpoly(image)
                    if is_nondegenerate(target) != phi.is_surjective:
                        exceptions += 1
                    if phi.is_surjective and m < n:
                        exceptions += 1
    assert exceptions == 0


@criterion(7, "existence and uniqueness of the singular/effective factorization")
def test_criterion_07_decomposition():
    for m in range(5):
        for n in range(5):
            values = [0, E] + list(range(1, n + 1))
            for images in itertools.product(values, repeat=m):
                phi = ExtMap(m, n, images)
                factorizations = all_factorizations(phi)
                assert len(factorizations) == 1
                sigma, p = factorizations[0]
                assert sigma.is_singular and p.is_effective
                assert (sigma, p) == canonical_decompose(phi)


@criterion(8, "effective morphisms from a special differ by an automorphism")
def test_criterion_08_special_pullback():
    specials = [
        s
        for s in (
            special_of_type(type_of(f))
            for n in range(4)
            for f in enumerate_R(n)
            if not f.is_zero
        )
        if s.arity <= 3
    ]
    for f in sorted(set(specials), key=lambda s: (s.arity, print_poly(s))):
        auts = automorphisms(f)
        for n in range(4):
            for h in enumerate_R(n):
                homs = enumerate_hom(f, h, "effective")
                for m1, m2 in itertools.product(homs, repeat=2):
                    assert any(
                        m1.map.compose(sigma.map) == m2.map for sigma in auts
                    )


@criterion(9, "set-level E-infinity pattern: sset and pset pass, strict fails (4)")
def test_criterion_09_einfty_pattern():
    for mode in ("sym", "biperm"):
        report = check_einfty_set(sset_operad(mode), cap=2)
        for num in (2, 3, 4, 5):
            assert report.conditions[num][0] == "pass", (mode, num)
        assert report.conditions[1][0] == "not-applicable"
    strict_report = check_einfty_set(strict_operad(), cap=2)
    assert strict_report.conditions[2][0] == "pass"
    assert strict_report.conditions[3][0] == "pass"
    assert strict_report.conditions[4][0] == "fail"
    assert strict_report.conditions[5][0] == "pass"
    # the documented counterexample: the identity and the swap on x1 + x2
    # agree on the unique point
    strict = strict_operad()
    f = rpoly(2, [(1,), (2,)])
    ident = validate(f, ExtMap.identity(2), f)
    swap = validate(f, ExtMap(2, 2, (2, 1)), f)
    alpha = strict.component(f)[0]
    assert ident.map != swap.map
    assert strict.act(ident, alpha) == strict.act(swap, alpha)


AXIOM_SECTIONS = (
    "zero-components",
    "functoriality",
    "units",
    "associativity",
    "equivariance-collapse",
    "equivariance-singular",
    "equivariance-arguments",
)

# Per-section instance counts of check_axioms at cap 2 (the ROADMAP fingerprint).
CAP2_FINGERPRINT = {
    "strict": (3, 2650, 21, 4806, 1969, 240, 5120),
    "sset": (3, 12422, 131, 1139621, 73524, 8661, 163422),
    "pset": (3, 8406, 83, 291773, 29652, 3501, 69414),
    "rcg-terminal": (3, 2650, 21, 4806, 1969, 240, 5120),
    "rcg-sigma": (3, 3650, 29, 12674, 3705, 450, 9948),
}


@criterion(10, "axiom suite passes for all five operads at cap 2")
def test_criterion_10_axiom_suite():
    operads = [
        strict_operad(),
        sset_operad("sym"),
        sset_operad("biperm"),
        build_RCG(terminal_pair(), name="rcg-terminal"),
        build_RCG(terminal_sigma_pair(), name="rcg-sigma"),
    ]
    for operad, name in zip(operads, CAP2_FINGERPRINT):
        report = check_axioms(operad, cap=2)
        assert report.ok, (operad.name, report.failure)
        assert report.skipped == 0, name
        assert report.sections == dict(zip(AXIOM_SECTIONS, CAP2_FINGERPRINT[name])), name
    # the terminal pair translation matches the strict operad componentwise
    translated = build_RCG(terminal_pair())
    strict = strict_operad()
    for n in range(3):
        for f in enumerate_R(n):
            assert len(translated.component(f)) == len(strict.component(f)) == 1


def _all_nodes(max_leaves, arity):
    leaves = [ZERO, ONE] + [var(i) for i in range(1, arity + 1)]
    by_count = {1: list(leaves)}
    for k in range(2, max_leaves + 1):
        acc = []
        for k1 in range(1, k):
            for left in by_count[k1]:
                for right in by_count[k - k1]:
                    acc.append(("+", left, right))
                    acc.append(("*", left, right))
        by_count[k] = acc
    return by_count


@functools.lru_cache(maxsize=1 << 21)
def _proj(node):
    """Independent projection oracle on raw nodes."""
    if node == ZERO:
        return frozenset()
    if node == ONE:
        return frozenset({((), 1)})
    if node[0] == "v":
        return frozenset({((node[1],), 1)})
    left, right = _proj(node[1]), _proj(node[2])
    out = {}
    if node[0] == "+":
        for key, coeff in left:
            out[key] = out.get(key, 0) + coeff
        for key, coeff in right:
            out[key] = out.get(key, 0) + coeff
    else:
        for k1, c1 in left:
            for k2, c2 in right:
                key = tuple(sorted(k1 + k2))
                out[key] = out.get(key, 0) + c1 * c2
    return frozenset((key, coeff) for key, coeff in out.items() if coeff)


def _random_node(rng, arity, leaves):
    if leaves == 1:
        roll = rng.random()
        if roll < 0.1:
            return ZERO
        if roll < 0.3:
            return ONE
        return var(rng.randint(1, arity))
    split = rng.randint(1, leaves - 1)
    op = "+" if rng.random() < 0.5 else "*"
    return (op, _random_node(rng, arity, split), _random_node(rng, arity, leaves - split))


@criterion(11, "rewriting idempotent and projection-preserving; section splits")
def test_criterion_11_rewriting():
    # exhaustive: every term with at most 6 leaves in one variable and at
    # most 5 leaves in two variables
    for arity, max_leaves in ((1, 6), (2, 5)):
        for k, nodes in _all_nodes(max_leaves, arity).items():
            for node in nodes:
                reduced = reduce_node(node)
                assert reduce_node(reduced) == reduced
                assert _proj(reduced) == _proj(node)
                normal = _normalize(node)
                assert _normalize(normal) == normal
                assert _proj(normal) == _proj(node)
    # randomized: 10^4 terms across arities up to 4
    rng = random.Random(2024)
    for _ in range(10**4):
        arity = rng.randint(1, 4)
        node = _random_node(rng, arity, rng.randint(1, 12))
        term = Term(arity, node)
        reduced = reduce_A(term)
        assert reduce_A(reduced) == reduced
        assert project(reduced).coeffs() == project(term).coeffs()
        normal = normalize_biperm(term)
        assert normalize_biperm(normal) == normal
        assert project(normal).coeffs() == project(term).coeffs()
        # the section splits normalization on reduced terms
        if normal.node != ZERO:
            assert is_reduced(normal)
            assert normalize_biperm(section_s(normal)) == normal
    # confluence witness: a single strict-relation rewrite never changes the
    # normal form
    relation_moves = {
        "assoc-times", "assoc-times-inv", "assoc-plus", "assoc-plus-inv",
        "dist-right",
    }
    for _ in range(2000):
        arity = rng.randint(1, 3)
        term = reduce_A(Term(arity, _random_node(rng, arity, rng.randint(1, 10))))
        direct = normalize_biperm(term)
        for name, _path, moved in position_moves(term.node):
            if name in relation_moves:
                assert normalize_biperm(Term(arity, moved)) == direct


@criterion(12, "coherence connectivity over R(2) with the stated terminal object")
def test_criterion_12_connectivity():
    for f in enumerate_R(2):
        fiber = enumerate_fiber(f, "sym")
        assert fiber.stable, str(f)
        report = connectivity_check(f)
        assert report.connected, (str(f), report.unreachable)
        assert report.terminal == terminal_representative(f)
    assert terminal_representative(rpoly(2, [(1,), (2,)])) == Term(
        2, plus(var(1), var(2))
    )
    assert terminal_representative(rpoly(2, [(1, 2), (1,)])) == Term(
        2, plus(times(var(1), var(2)), var(1))
    )


@criterion(13, "byte-exact parse/print round trips")
def test_criterion_13_round_trip():
    for f in enumerate_R(2):
        text = print_poly(f)
        assert print_poly(parse_poly(text)) == text
    rng = random.Random(99)
    for _ in range(10**4):
        arity = rng.randint(1, 4)
        term = Term(arity, _random_node(rng, arity, rng.randint(1, 12)))
        text = print_term(term)
        again = parse_term(text, arity)
        assert again == term
        assert print_term(again) == text
