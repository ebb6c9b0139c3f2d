"""Free {+,x}-term algebras, their normal forms, fibers and coherence moves.

Terms are expression trees over leaves 0, 1, x1..xn and binary nodes + and x.
Canonical terms have the unit and nullity relations fully applied (0 survives
only as the whole term); reduced terms additionally carry the bipermutative
normal form: products are right-nested with a variable on the left, sums are
right-nested with no zero summand, and right distributivity is fully applied.

One walker, `_substitute`, rebuilds a tree with new variable leaves (the
action and composition); one, `_rewrites`, yields every single-position
coherence rewrite.  The fibers of both modes come from one leaf-count
dynamic programme, `_bounded_fiber`; the mode only picks the pools its left
factors and left summands are drawn from.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
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
    _support,
    int_const,
    int_zero,
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
    """True iff the node is its own reduction.  That is enough: every output
    of `reduce_node` is ZERO or has no ZERO leaf, since a sum drops a ZERO
    part, a product with one becomes ZERO, and other nodes keep their parts.
    """
    return reduce_node(node) == node


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


def _substitute(node: Node, leaf) -> Node:
    """The node with leaf(i) in place of each variable leaf x_i."""
    if node[0] == "v":
        return leaf(node[1])
    if node[0] in ("+", "*"):
        return (node[0], _substitute(node[1], leaf), _substitute(node[2], leaf))
    return node


def act_map(phi: ExtMap, term: Term) -> Term:
    """Relabel variables along phi (0 becomes the zero leaf, e the unit leaf)."""
    if phi.source_size != term.arity:
        raise ArityMismatch("map source size differs from term arity")
    images = [ZERO if j == 0 else ONE if j == E else var(j) for j in phi.images]
    return Term(phi.target_size, reduce_node(_substitute(term.node, lambda i: images[i - 1])))


def compose_terms(g_term: Term, args: Sequence[Term]) -> Term:
    """Substitute argument terms into the variable leaves with block shifts."""
    if len(args) != g_term.arity:
        raise ArityMismatch(f"{g_term.arity}-ary term applied to {len(args)} arguments")
    offsets, total = _block_offsets(a.arity for a in args)
    shifted = [
        _substitute(a.node, lambda i, offset=offset: var(i + offset))
        for a, offset in zip(args, offsets)
    ]
    return Term(total, reduce_node(_substitute(g_term.node, lambda i: shifted[i - 1])))


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
    return project(term).coeffs() == {_support(m): 1 for m in f.masks}


# ---------------------------------------------------------------------------
# Fiber enumeration


@dataclass(frozen=True)
class FiberResult:
    terms: frozenset[Term]
    stable: bool
    bound: int


def default_bound(f: RPoly) -> int:
    occurrences = sum(m.bit_count() for m in f.masks)
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
    """The terms projecting to f, one frozenset per leaf count 0..bound.

    table[s] maps a projection key (the supports a node expands to) to the
    nodes with s leaves and that key.  A node with s > 1 leaves is a product
    or a sum of a left part with s1 leaves and a right part from
    table[s - s1].  The mode only picks the two pools the left part comes
    from: in sym mode both are the table; in biperm mode (the right-nested
    normal form) a left factor is a variable and a left summand is a leaf or
    a product, never a sum.  A unit factor is skipped by its key: ONE is the
    only node whose key is {()}.

    The loop ends early once the counts M + 1..2M are empty, M being the
    largest count with a node so far: any larger count splits into two
    parts, one of them above M, so it stays empty too.
    """
    if f.is_zero:
        return (frozenset(), frozenset({Term(f.arity, ZERO)})) + (frozenset(),) * (bound - 1)
    supports = [_support(m) for m in f.masks]
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
                if len(set(merged)) != len(merged):
                    return None
                if merged not in divisors:
                    return None
                if merged in out:
                    return None
                out.add(merged)
        return frozenset(out)

    table: list[dict] = [{}, {unit: {ONE}, **variables}]
    nonsums: list[dict] = [{}, table[1]]
    if mode == "sym":
        factors, summands = table, table
    else:
        factors, summands = [{}, variables] + [{}] * (bound - 1), nonsums
    largest = 1
    for s in range(2, bound + 1):
        if s > 2 * largest:
            break
        level: dict = {}
        products: dict = {}
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

    return tuple(
        frozenset(Term(f.arity, node) for node in level.get(target, ())) for level in table
    ) + (frozenset(),) * (bound + 1 - len(table))


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
    return [
        (name, path, Term(term.arity, reduce_node(rebuilt)))
        for name, path, rebuilt in _rewrites(term.node)
    ]


def _rewrites(node: Node, path: tuple[int, ...] = ()) -> Iterator[tuple[str, tuple[int, ...], Node]]:
    """(rule name, position, whole rewritten node) for each rule at each
    position: positions in preorder, rules in `_MOVE_RULES` order."""
    for name, rule in _MOVE_RULES:
        replaced = rule(node)
        if replaced is not None:
            yield name, path, replaced
    if node[0] in ("+", "*"):
        for name, inner, rebuilt in _rewrites(node[1], path + (0,)):
            yield name, inner, (node[0], rebuilt, node[2])
        for name, inner, rebuilt in _rewrites(node[2], path + (1,)):
            yield name, inner, (node[0], node[1], rebuilt)


def terminal_representative(f: RPoly) -> Term:
    """Left-nested sum of left-nested products, monomials largest-first.

    Monomials are listed in descending lexicographic order on exponent
    tuples (the natural reading order x1 before x2), variables ascending
    inside each product.
    """
    if f.is_zero:
        return Term(f.arity, ZERO)
    products = [reduce(times, map(var, _support(m))) for m in reversed(f.masks)]
    return Term(f.arity, reduce(plus, products))


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
