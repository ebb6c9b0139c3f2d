"""Free {+,x}-term algebras, their normal forms, fibers and coherence moves.

Terms are expression trees over leaves 0, 1, x1..xn and binary nodes + and x.
Canonical terms have the unit and nullity relations fully applied (0 survives
only as the whole term); reduced terms additionally carry the bipermutative
normal form: products are right-nested with a variable on the left, sums are
right-nested with no zero summand, and right distributivity is fully applied.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence, Union

from .errors import (
    ArityCapExceeded,
    ArityMismatch,
    FiberNotStable,
    NotReduced,
    PreconditionViolation,
)
from .indexcat import E, ExtMap, RMorphism
from .operads import DiscreteRingOperad
from .polynomials import (
    IntPoly,
    RPoly,
    _block_offsets,
    int_const,
    int_zero,
    lambda_of,
)

ZERO = ("0",)
ONE = ("1",)

Node = tuple


def var(i: int) -> Node:
    return ("v", i)


def plus(left: Node, right: Node) -> Node:
    return ("+", left, right)


def times(left: Node, right: Node) -> Node:
    return ("*", left, right)


@dataclass(frozen=True)
class Term:
    """A canonical expression over n ambient variables."""

    arity: int
    node: Node

    def __post_init__(self):
        for i in _variables(self.node):
            if not 1 <= i <= self.arity:
                raise ArityMismatch(f"variable x{i} out of range for arity {self.arity}")

    def __str__(self):
        return node_str(self.node)

    @property
    def leaves(self) -> int:
        return _leaf_count(self.node)


def _variables(node: Node) -> Iterator[int]:
    if node[0] == "v":
        yield node[1]
    elif node[0] in ("+", "*"):
        yield from _variables(node[1])
        yield from _variables(node[2])


def _leaf_count(node: Node) -> int:
    if node[0] in ("0", "1", "v"):
        return 1
    return _leaf_count(node[1]) + _leaf_count(node[2])


def node_str(node: Node) -> str:
    if node == ZERO:
        return "0"
    if node == ONE:
        return "1"
    if node[0] == "v":
        return f"x{node[1]}"
    op = node[0]
    return f"({node_str(node[1])} {op} {node_str(node[2])})"


# ---------------------------------------------------------------------------
# Canonical form and projection


@lru_cache(maxsize=1 << 20)
def reduce_node(node: Node) -> Node:
    """Apply the unit and nullity rewrites exhaustively, bottom up."""
    tag = node[0]
    if tag in ("0", "1", "v"):
        return node
    left = reduce_node(node[1])
    right = reduce_node(node[2])
    if tag == "+":
        if left == ZERO:
            return right
        if right == ZERO:
            return left
        return ("+", left, right)
    if left == ZERO or right == ZERO:
        return ZERO
    if left == ONE:
        return right
    if right == ONE:
        return left
    return ("*", left, right)


def reduce_A(term: Term) -> Term:
    return Term(term.arity, reduce_node(term.node))


def is_canonical(node: Node) -> bool:
    return reduce_node(node) == node and (node == ZERO or not _contains_zero(node))


def _contains_zero(node: Node) -> bool:
    if node == ZERO:
        return True
    if node[0] in ("+", "*"):
        return _contains_zero(node[1]) or _contains_zero(node[2])
    return False


def project(term: Term) -> IntPoly:
    """The full expansion of the term over the non-negative integers."""
    return _project(term.node, term.arity)


def _project(node: Node, arity: int) -> IntPoly:
    if node == ZERO:
        return int_zero(arity)
    if node == ONE:
        return int_const(arity, 1)
    if node[0] == "v":
        return IntPoly.make(arity, {(node[1],): 1})
    left = _project(node[1], arity)
    right = _project(node[2], arity)
    return left.add(right) if node[0] == "+" else left.mul(right)


def act_map(phi: ExtMap, term: Term) -> Term:
    """Relabel variables along phi (0 becomes the zero leaf, e the unit leaf)."""
    if phi.source_size != term.arity:
        raise ArityMismatch("map source size differs from term arity")

    def relabel(node: Node) -> Node:
        if node[0] == "v":
            image = phi(node[1])
            if image == 0:
                return ZERO
            if image == E:
                return ONE
            return var(image)
        if node[0] in ("+", "*"):
            return (node[0], relabel(node[1]), relabel(node[2]))
        return node

    return Term(phi.target_size, reduce_node(relabel(term.node)))


def compose_terms(g_term: Term, args: Sequence[Term]) -> Term:
    """Substitute argument terms into the variable leaves with block shifts."""
    if len(args) != g_term.arity:
        raise ArityMismatch(f"{g_term.arity}-ary term applied to {len(args)} arguments")
    offsets, total = _block_offsets(a.arity for a in args)

    def shift(node: Node, offset: int) -> Node:
        if node[0] == "v":
            return var(node[1] + offset)
        if node[0] in ("+", "*"):
            return (node[0], shift(node[1], offset), shift(node[2], offset))
        return node

    def build(node: Node) -> Node:
        if node[0] == "v":
            i = node[1]
            return shift(args[i - 1].node, offsets[i - 1])
        if node[0] in ("+", "*"):
            return (node[0], build(node[1]), build(node[2]))
        return node

    return Term(total, reduce_node(build(g_term.node)))


# ---------------------------------------------------------------------------
# Bipermutative normal form


def _norm_plus(left: Node, right: Node) -> Node:
    if left == ZERO:
        return right
    if right == ZERO:
        return left
    if left[0] == "+":
        return _norm_plus(left[1], _norm_plus(left[2], right))
    return ("+", left, right)


def _norm_times(left: Node, right: Node) -> Node:
    if left == ZERO or right == ZERO:
        return ZERO
    if left == ONE:
        return right
    if right == ONE:
        return left
    if left[0] == "+":
        return _norm_plus(_norm_times(left[1], right), _norm_times(left[2], right))
    if left[0] == "*":
        return _norm_times(left[1], _norm_times(left[2], right))
    return ("*", left, right)


@lru_cache(maxsize=1 << 20)
def _normalize(node: Node) -> Node:
    if node[0] in ("0", "1", "v"):
        return node
    left = _normalize(node[1])
    right = _normalize(node[2])
    return _norm_plus(left, right) if node[0] == "+" else _norm_times(left, right)


def normalize_biperm(term: Term) -> Term:
    """The unique reduced representative of the term's bipermutative class.

    Strategy: normalize children first, then right-nest sums, right-associate
    products and push sums out of left factors (right distributivity only;
    x * (y + z) stays fixed).  The result is idempotent and projection
    preserving.
    """
    return Term(term.arity, _normalize(term.node))


def is_reduced_node(node: Node) -> bool:
    if node in (ZERO, ONE) or node[0] == "v":
        return True
    if node[0] == "*":
        left, right = node[1], node[2]
        return (
            left[0] == "v"
            and right not in (ZERO, ONE)
            and is_reduced_node(right)
        )
    left, right = node[1], node[2]
    return (
        left != ZERO
        and right != ZERO
        and left[0] != "+"
        and is_reduced_node(left)
        and is_reduced_node(right)
    )


def is_reduced(term: Term) -> bool:
    return is_reduced_node(term.node)


def section_s(term: Term) -> Term:
    """Inclusion of a reduced representative back into the free algebra."""
    if not is_reduced(term):
        raise NotReduced(f"{term} is not in bipermutative normal form")
    return term


def fiber_member(term: Term, f: RPoly, mode: str = "sym") -> bool:
    """True iff the term projects onto f (and is reduced, in biperm mode)."""
    if term.arity != f.arity:
        raise ArityMismatch("term arity differs from polynomial arity")
    if mode == "biperm" and not is_reduced(term):
        return False
    return project(term).coeffs() == {m.support: 1 for m in f.monomials}


# ---------------------------------------------------------------------------
# Fiber enumeration


@dataclass(frozen=True)
class FiberResult:
    terms: frozenset[Term]
    stable: bool
    bound: int


def default_bound(f: RPoly) -> int:
    occurrences = sum(len(m.support) for m in f.monomials)
    return 3 * occurrences + 4


def enumerate_fiber(f: RPoly, mode: str = "sym", bound: Union[int, None] = None) -> FiberResult:
    """All canonical (or reduced) terms projecting to f with at most B leaves.

    The stability flag records whether bounds B and B + 2 return identical
    sets, the empirical signal that the fiber is complete.  Both are read
    from one run of the leaf-count table up to B + 2.
    """
    if mode not in ("sym", "biperm"):
        raise ValueError(f"unknown fiber mode {mode!r}")
    if bound is None:
        bound = default_bound(f)
    if bound < 1:
        raise PreconditionViolation(f"leaf bound must be at least 1, got {bound}")
    by_leaves = _bounded_fiber(f, mode, bound + 2)
    stable = not (by_leaves[bound + 1] or by_leaves[bound + 2])
    return FiberResult(frozenset().union(*by_leaves[: bound + 1]), stable, bound)


@lru_cache(maxsize=4096)
def _bounded_fiber(f: RPoly, mode: str, bound: int) -> tuple[frozenset[Term], ...]:
    """The terms projecting to f, one frozenset per leaf count 0..bound."""
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
                if len(set(merged)) != len(merged):
                    return None
                if merged not in divisors:
                    return None
                if merged in out:
                    return None
                out.add(merged)
        return frozenset(out)

    # table[s][projection] = set of nodes; sums tracked separately in biperm
    # mode so that only non-sum addends appear as left summands.
    table: list[dict] = [dict() for _ in range(bound + 1)]
    addends: list[dict] = [dict() for _ in range(bound + 1)]

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
                            key = p1 | p2
                            for n1 in nodes1:
                                for n2 in nodes2:
                                    put(table, s, key, plus(n1, n2))
                        if len(p1) * len(p2) <= mass_bound:
                            key = product_keys(p1, p2)
                            if key is not None:
                                for n1 in nodes1:
                                    if n1 == ONE:
                                        continue
                                    for n2 in nodes2:
                                        if n2 == ONE:
                                            continue
                                        put(table, s, key, times(n1, n2))
            else:
                # products: variable times any reduced non-unit term
                if s1 == 1:
                    for p2, nodes2 in table[s2].items():
                        for i in variables:
                            key = product_keys(frozenset({(i,)}), p2)
                            if key is None or len(p2) > mass_bound:
                                continue
                            for n2 in nodes2:
                                if n2 == ONE:
                                    continue
                                node = times(var(i), n2)
                                put(table, s, key, node)
                                put(addends, s, key, node)
                # sums: addend + reduced term, right-nested
                for p1, nodes1 in addends[s1].items():
                    for p2, nodes2 in table[s2].items():
                        if (p1 & p2) or len(p1) + len(p2) > mass_bound:
                            continue
                        key = p1 | p2
                        for n1 in nodes1:
                            for n2 in nodes2:
                                put(table, s, key, plus(n1, n2))

    return tuple(
        frozenset(Term(f.arity, node) for node in table[s].get(target, ()))
        for s in range(bound + 1)
    )


# ---------------------------------------------------------------------------
# Generator moves and coherence connectivity


_MOVE_RULES = (
    ("assoc-times", lambda n: times(times(n[1], n[2][1]), n[2][2])
        if n[0] == "*" and n[2][0] == "*" else None),
    ("assoc-times-inv", lambda n: times(n[1][1], times(n[1][2], n[2]))
        if n[0] == "*" and n[1][0] == "*" else None),
    ("assoc-plus", lambda n: plus(plus(n[1], n[2][1]), n[2][2])
        if n[0] == "+" and n[2][0] == "+" else None),
    ("assoc-plus-inv", lambda n: plus(n[1][1], plus(n[1][2], n[2]))
        if n[0] == "+" and n[1][0] == "+" else None),
    ("comm-times", lambda n: times(n[2], n[1]) if n[0] == "*" else None),
    ("comm-plus", lambda n: plus(n[2], n[1]) if n[0] == "+" else None),
    ("unit-left", lambda n: n[2] if n[0] == "*" and n[1] == ONE else None),
    ("unit-right", lambda n: n[1] if n[0] == "*" and n[2] == ONE else None),
    ("dist-left", lambda n: plus(times(n[1], n[2][1]), times(n[1], n[2][2]))
        if n[0] == "*" and n[2][0] == "+" else None),
    ("dist-right", lambda n: plus(times(n[1][1], n[2]), times(n[1][2], n[2]))
        if n[0] == "*" and n[1][0] == "+" else None),
)


def generator_moves(term: Term) -> list[tuple[str, tuple[int, ...], Term]]:
    """Single-step coherence rewrites at every position, reduced afterwards.

    The distributivity moves are one-directional; unit-introduction inverses
    are omitted because reduction cancels them immediately.
    """
    results = []
    for path, sub in _positions(term.node):
        for name, rule in _MOVE_RULES:
            replaced = rule(sub)
            if replaced is None:
                continue
            rebuilt = reduce_node(_replace(term.node, path, replaced))
            results.append((name, path, Term(term.arity, rebuilt)))
    return results


def _positions(node: Node, path: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], Node]]:
    yield path, node
    if node[0] in ("+", "*"):
        yield from _positions(node[1], path + (0,))
        yield from _positions(node[2], path + (1,))


def _replace(node: Node, path: tuple[int, ...], replacement: Node) -> Node:
    if not path:
        return replacement
    head, rest = path[0], path[1:]
    if head == 0:
        return (node[0], _replace(node[1], rest, replacement), node[2])
    return (node[0], node[1], _replace(node[2], rest, replacement))


def terminal_representative(f: RPoly) -> Term:
    """Left-nested sum of left-nested products, monomials largest-first.

    Monomials are listed in descending lexicographic order on exponent
    tuples (the natural reading order x1 before x2), variables ascending
    inside each product.
    """
    if f.is_zero:
        return Term(f.arity, ZERO)
    monos = list(reversed(lambda_of(f)))

    def product_node(support):
        node = var(support[0])
        for i in support[1:]:
            node = times(node, var(i))
        return node

    node = product_node(monos[0].support)
    for mono in monos[1:]:
        node = plus(node, product_node(mono.support))
    return Term(f.arity, node)


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    fiber_size: int
    terminal: Term
    unreachable: frozenset[Term]


def connectivity_check(f: RPoly, bound: Union[int, None] = None) -> ConnectivityReport:
    """Zig-zag reachability of the whole fiber from the terminal representative."""
    result = enumerate_fiber(f, "sym", bound)
    if not result.stable:
        raise FiberNotStable(
            f"fiber of {f} changed between bounds {result.bound} and {result.bound + 2}"
        )
    fiber = result.terms
    start = terminal_representative(f)
    if start not in fiber:
        raise PreconditionViolation(f"terminal representative {start} missing from fiber")
    adjacency: dict[Term, set[Term]] = {t: set() for t in fiber}
    for t in fiber:
        for _name, _path, target in generator_moves(t):
            if target in adjacency:
                adjacency[t].add(target)
                adjacency[target].add(t)
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for nxt in adjacency[current]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    unreachable = frozenset(fiber - seen)
    return ConnectivityReport(not unreachable, len(fiber), start, unreachable)


# ---------------------------------------------------------------------------
# The term-fiber ring operads


@lru_cache(maxsize=500000)
def _cached_act(mode: str, phi: ExtMap, elt: Term) -> Term:
    moved = act_map(phi, elt)
    return normalize_biperm(moved) if mode == "biperm" else moved


@lru_cache(maxsize=500000)
def _cached_gamma(mode: str, g_elt: Term, arg_elts: tuple[Term, ...]) -> Term:
    composed = compose_terms(g_elt, arg_elts)
    return normalize_biperm(composed) if mode == "biperm" else composed


class TermRingOperad(DiscreteRingOperad):
    """Rule-backed operad whose components are the term fibers.

    In biperm mode every structure map is followed by renormalization, which
    is exactly composition of equivalence classes through their reduced
    representatives.
    """

    ARITY_CAP = 4

    def __init__(self, mode: str):
        if mode not in ("sym", "biperm"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.name = "sset" if mode == "sym" else "pset"

    def component(self, f: RPoly) -> tuple:
        if f.arity > self.ARITY_CAP:
            raise ArityCapExceeded(
                f"fiber components are capped at arity {self.ARITY_CAP}"
            )
        result = enumerate_fiber(f, self.mode)
        if not result.stable:
            raise FiberNotStable(f"fiber of {f} is not stable at bound {result.bound}")
        return tuple(sorted(result.terms, key=lambda t: (t.leaves, str(t))))

    def unit_element(self):
        return Term(1, var(1))

    def act(self, mor: RMorphism, elt):
        return _cached_act(self.mode, mor.map, elt)

    def _gamma(self, g, g_elt, args):
        return _cached_gamma(self.mode, g_elt, tuple(x for _, x in args))


def sset_operad(mode: str = "sym") -> TermRingOperad:
    return TermRingOperad(mode)
