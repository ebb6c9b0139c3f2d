"""Free {+,x}-term algebras, their normal forms, fibers and coherence moves.

Terms are expression trees over leaves 0, 1, x1..xn and binary nodes + and x.
Canonical terms have the unit and nullity relations fully applied (0 survives
only as the whole term); reduced terms additionally carry the bipermutative
normal form: products are right-nested with a variable on the left, sums are
right-nested with no zero summand, and right distributivity is fully applied.

One walker, `_substitute`, rebuilds a tree with new variable leaves (the
action and composition); one, `_rewrites`, lists every single-position
coherence rewrite of a node, each already reduced, as (rule, position,
`reduce_node` of the whole rewritten node).  It backs `generator_moves` and
is the oracle the id walker of `connectivity_check` is tested against.  It
is memoised per subterm in a memo its caller owns for one call: a sum or
product (tag, l, r) lists the rules that fire at its root, then l's entries
lifted to `_reduce_top(tag, a, reduce_node(r))`, then r's lifted alike.
That equals `reduce_node` of the rebuilt tree because `reduce_node` works
bottom up: it reduces both children and then applies `_reduce_top`, and
each child entry `a` is already the reduced rewritten child.  The sibling
must be reduced too; lifting with the raw sibling differs on non-canonical
terms.  A root rule's result is reduced by `_memo_reduce`, which reads the
reduced subterms the memo holds, so no rewritten tree enters
`reduce_node`'s lru cache.

The fibers of both modes come from one leaf-count dynamic programme,
`_fiber_table`, over cells (projection key, leaf count).  A node's top
split (operation, left leaf count, left key, right key) is read off the
node, so a cell is the disjoint union over its splits of left part x right
part.  Three passes run over it: one lists every cell's splits from the keys
alone, one marks the cells that f's cells reach, and one builds the nodes of
the marked cells only.  The mode only picks the pools its left factors and
left summands are drawn from; in biperm mode a left summand is never a sum,
so each cell also records how many of its nodes are products.  The last
pass hash-conses what it builds: each node gets an int id in one table,
whose entry is the leaf tuple for a leaf and (tag, left id, right id)
otherwise.  A cell's nodes get consecutive ids and children come before
parents, so ids follow build order, and since no node is built twice, equal
trees have equal ids.  `_bounded_fiber` decodes the ids into bare tuples in
one forward pass; nodes stay bare tuples until `enumerate_fiber` returns
them as `Term`s.

Zig-zag connectivity never builds a tree: `connectivity_check` reads the
sym table through a cons dict {entry: id} made for that call alone, and
`_fiber_moves` lists each node's reduced rewrites as ids, from its root
rules (instantiated once per root shape by `_root_templates`) and its
children's lists lifted by `_reduce_top` on ids.  A rewritten subterm whose
entry is not in the dict was never built, and since `_reduce_top` drops
only 0/1 parts it stays in the whole reduced tree, which then is not a
fiber node: every subterm of a fiber node is built.  So a miss prunes the
rewrite and all its lifts.  One union-find over the ids joins the two ends
of every move.  No `Term` is built per move, and none needs to be: a
rewrite only moves, copies or drops subtrees of its node, and `reduce_node`
only drops them, so no new variable leaf appears and the arity check of
`Term` cannot fail; at a fixed arity, `Term` equality is node equality.
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
    if node[0] in ("0", "1", "v"):
        return node
    return _reduce_top(node[0], reduce_node(node[1]), reduce_node(node[2]))


def _reduce_top(tag: str, left: Node, right: Node) -> Node:
    """The top step of `reduce_node`: the node (tag, left, right) reduced,
    given that left and right are already reduced."""
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
    """The term with the unit and nullity rewrites applied; built without the
    arity check, since reduction only drops or moves leaves."""
    return _fiber_term(term.arity, reduce_node(term.node))


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
    """Relabel variables along phi (0 becomes the zero leaf, e the unit leaf).
    Built without the arity check: ExtMap images lie in 1..target, or are
    the 0/e leaves."""
    if phi.source_size != term.arity:
        raise ArityMismatch("map source size differs from term arity")
    images = [ZERO if j == 0 else ONE if j == E else var(j) for j in phi.images]
    return _fiber_term(
        phi.target_size, reduce_node(_substitute(term.node, lambda i: images[i - 1]))
    )


def compose_terms(g_term: Term, args: Sequence[Term]) -> Term:
    """Substitute argument terms into the variable leaves with block shifts.
    Built without the arity check: block offsets plus argument arities stay
    within the total."""
    if len(args) != g_term.arity:
        raise ArityMismatch(f"{g_term.arity}-ary term applied to {len(args)} arguments")
    offsets, total = _block_offsets(a.arity for a in args)
    shifted = [
        _substitute(a.node, lambda i, offset=offset: var(i + offset))
        for a, offset in zip(args, offsets)
    ]
    return _fiber_term(total, reduce_node(_substitute(g_term.node, lambda i: shifted[i - 1])))


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
    preserving.  It is built without the arity check, since normalisation
    only drops or moves leaves.
    """
    return _fiber_term(term.arity, _normalize(term.node))


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
    bound = _fiber_bound(f, mode, bound)
    levels, stable = _up_to(_bounded_fiber(f, mode, bound + 2), bound)
    found = frozenset(_fiber_term(f.arity, node) for level in levels for node in level)
    return FiberResult(found, stable, bound)


def _fiber_term(arity: int, node: Node) -> Term:
    """A `Term` without the arity check, for a node whose construction shows the
    check cannot fail.  The fiber DP builds nodes from constant leaves and
    the variables of f alone, and the check's tree walk cost more than the
    DP on large fibers; the structure maps argue it in their docstrings."""
    term = object.__new__(Term)
    object.__setattr__(term, "arity", arity)
    object.__setattr__(term, "node", node)
    return term


def _fiber_bound(f: RPoly, mode: str, bound: Union[int, None]) -> int:
    """The checked leaf bound B (`default_bound(f)` when not given), which
    `enumerate_fiber` and `connectivity_check` both read the DP up to B + 2
    with."""
    if mode not in ("sym", "biperm"):
        raise PreconditionViolation(f"unknown fiber mode {mode!r}")
    if bound is None:
        bound = default_bound(f)
    if bound < 1:
        raise PreconditionViolation(f"leaf bound must be at least 1, got {bound}")
    return bound


def _up_to(by_leaves: Sequence, bound: int) -> tuple[Sequence, bool]:
    """The DP's levels 0..B and its stability flag: whether B + 1 and B + 2
    are empty.  The DP stops at its last level, so the counts past it read
    as empty."""
    return by_leaves[: bound + 1], not any(by_leaves[bound + 1 :])


_UNIT_KEY = frozenset({()})


@lru_cache(maxsize=4096)
def _bounded_fiber(f: RPoly, mode: str, bound: int) -> tuple[tuple[Node, ...], ...]:
    """The nodes projecting to f, one tuple per leaf count from 0 to the
    DP's last level (at most `bound`): `_fiber_table`'s ids, decoded."""
    table, by_leaves = _fiber_table(f, mode, bound)
    nodes = _decode(table)
    return tuple(tuple(nodes[ids.start : ids.stop]) for ids in by_leaves)


def _fiber_table(f: RPoly, mode: str, bound: int) -> tuple[list, tuple[range, ...]]:
    """The hash-consed nodes of the DP and the ids projecting to f, one
    range per leaf count from 0 to the DP's last level (at most `bound`).

    A cell is a pair (projection key, leaf count s): the key is the set of
    supports a node expands to, and the cell holds the nodes with that key
    and s leaves.  A node with s > 1 leaves is a product or a sum of a left
    part with s1 leaves and a right part with s - s1, and its top split
    (operation, s1, left key, right key) is read off the node itself.  So
    the splits of a cell give disjoint node sets, a cell is the
    concatenation over its splits of left part x right part, and no node is
    built twice.  Three passes run over that recursion:

    1. `_split_table` lists the product and sum splits of every cell from
       the keys alone; it builds no node.
    2. `_demand` walks the splits down from f's key at every leaf count and
       marks the cells the target reaches.
    3. `_build_cells` builds the nodes of the marked cells only, in
       increasing leaf count, as ids into one table.

    The mode only picks the pools a left part comes from: in sym mode both
    are the whole cells; in biperm mode (the right-nested normal form) a
    left factor is a variable and a left summand is a leaf or a product,
    never a sum.  So a biperm cell also records how many of its nodes are
    products: a left summand draws on those alone.  The demand pass needs no
    such distinction (`_demand` says why).
    """
    if f.is_zero:
        return [ZERO], (range(0), range(1))
    target = frozenset(_support(m) for m in f.masks)
    products, sums = _split_table(f, mode, bound)
    table, cells = _build_cells(f, mode, _demand(target, products, sums), products, sums)
    return table, tuple(level[target][0] if target in level else range(0) for level in cells)


def _decode(table: list) -> list[Node]:
    """The bare tuple node of every id of the table, in one forward pass:
    a node's children have smaller ids."""
    nodes: list = []
    append = nodes.append
    for entry in table:
        if len(entry) == 3:
            tag, left, right = entry
            entry = (tag, nodes[left], nodes[right])
        append(entry)
    return nodes


def _leaves(f: RPoly) -> dict:
    """The cells with one leaf, {key: node}: the unit and the variables of f."""
    variables = sorted({i for m in f.masks for i in _support(m)})
    return {_UNIT_KEY: ONE, **{frozenset({(i,)}): var(i) for i in variables}}


def _split_table(f: RPoly, mode: str, bound: int) -> tuple[list[dict], list[dict]]:
    """Pass 1: products[s] and sums[s] map each key that has nodes with s
    leaves to its product and its sum splits (s1, left key, right key).
    Level 1 holds the leaves, which have no split.

    A unit factor is skipped by its key: ONE is the only node whose key is
    {()}.  The loop ends early once the counts M + 1..2M are empty, M being
    the largest count with a cell so far: any larger count splits into two
    parts, one of them above M, so it stays empty too.
    """
    supports = [_support(m) for m in f.masks]
    divisors = set()
    for support in supports:
        for size in range(len(support) + 1):
            divisors.update(itertools.combinations(support, size))
    mass_bound = len(supports)

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

    leaves = dict.fromkeys(_leaves(f), ())
    cells: list[dict] = [{}, leaves]
    products: list[dict] = [{}, leaves]
    sums: list[dict] = [{}, {}]
    if mode == "sym":
        factors, summands = cells, cells
    else:
        variables = [key for key in leaves if key != _UNIT_KEY]
        factors, summands = [{}, variables], products
    largest = 1
    for s in range(2, bound + 1):
        if s > 2 * largest:
            break
        by_product: dict = {}
        by_sum: dict = {}
        for s1 in range(1, s):
            right = cells[s - s1]
            for p1 in factors[s1] if s1 < len(factors) else ():
                if p1 == _UNIT_KEY:
                    continue
                for p2 in right:
                    if p2 == _UNIT_KEY or len(p1) * len(p2) > mass_bound:
                        continue
                    key = product_keys(p1, p2)
                    if key is not None:
                        by_product.setdefault(key, []).append((s1, p1, p2))
            for p1 in summands[s1]:
                for p2 in right:
                    if not (p1 & p2) and len(p1) + len(p2) <= mass_bound:
                        by_sum.setdefault(p1 | p2, []).append((s1, p1, p2))
        products.append(by_product)
        sums.append(by_sum)
        cells.append(dict.fromkeys([*by_product, *by_sum]))
        if cells[s]:
            largest = s
    return products, sums


def _demand(target: frozenset, products: list[dict], sums: list[dict]) -> list[set]:
    """Pass 2: demand[s] holds the keys whose cell with s leaves the target
    reaches.

    The target's cells are demanded, and a demanded cell demands both parts
    of each of its splits.  Both parts have fewer leaves than the cell, so
    one sweep down the leaf counts reads each cell's demand only once all of
    it is in.

    In biperm mode a left summand is drawn from the products of its cell
    alone, yet the whole cell is demanded, because the target needs it whole
    anyway.  Let C be the left summand and R the right part of a sum split
    of a demanded cell D.  If R holds a product or a leaf, D also has the
    split with R on the left and C on the right.  Otherwise a node of R is a
    sum a + r, and D has the split with the cell of a on the left and the
    cell of C + r on the right; there C is again a left summand, beside the
    smaller right part of r.  So C is always the right part of a demanded
    cell, and no cell needs a product-only mark.
    """
    demand: list[set] = [set() for _ in products]
    for s in range(1, len(products)):
        if target in products[s] or target in sums[s]:
            demand[s].add(target)
    for s in range(len(products) - 1, 1, -1):
        for key in demand[s]:
            for s1, p1, p2 in products[s].get(key, []) + sums[s].get(key, []):
                demand[s1].add(p1)
                demand[s - s1].add(p2)
    return demand


def _build_cells(
    f: RPoly, mode: str, demand: list[set], products: list[dict], sums: list[dict]
) -> tuple[list, list[dict]]:
    """Pass 3: the node table and cells[s][key] = (ids, k) for every
    demanded cell.  The table lists each leaf as its tuple and each sum or
    product as (tag, left id, right id); a cell's nodes get consecutive ids,
    products first, so its ids are a range.  The first k of them may stand
    as a left summand: all of them in sym mode, the products (or the leaf)
    in biperm mode."""
    leaves = _leaves(f)
    table: list = list(leaves.values())
    cells: list[dict] = [{}, {key: (range(i, i + 1), 1) for i, key in enumerate(leaves)}]
    for s in range(2, len(demand)):
        level = {}
        for key in demand[s]:
            start = len(table)
            for s1, p1, p2 in products[s].get(key, ()):
                right = cells[s - s1][p2][0]
                table += [("*", a, b) for a in cells[s1][p1][0] for b in right]
            n_products = len(table) - start
            for s1, p1, p2 in sums[s].get(key, ()):
                lefts, k = cells[s1][p1]
                right = cells[s - s1][p2][0]
                table += [("+", a, b) for a in lefts[:k] for b in right]
            ids = range(start, len(table))
            level[key] = (ids, len(ids) if mode == "sym" else n_products)
        cells.append(level)
    return table, cells


# ---------------------------------------------------------------------------
# Generator moves and coherence connectivity


# A rule reads only its node's tag, its children and their tags, and builds
# its result from the node's parts with + and x: `_root_templates` runs it
# once per root shape on placeholder grandchildren.
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
    are omitted because reduction cancels them immediately.  The results are
    built without the arity check, as in `connectivity_check`.
    """
    return [
        (name, path, _fiber_term(term.arity, reduced))
        for name, path, reduced in _rewrites(term.node, {})
    ]


Rewrite = tuple[str, tuple[int, ...], Node]


def _rewrites(node: Node, memo: dict) -> list[Rewrite]:
    """(rule name, position, `reduce_node` of the whole rewritten node) for
    each rule at each position: positions in preorder, rules in `_MOVE_RULES`
    order.  Every rule rewrites a sum or a product, so a leaf has no rewrite.

    The children's lists come from `memo`, which the caller owns; `node`'s
    own list is returned, not stored, so a caller walking many nodes with
    one memo keeps only the lists of their proper subterms.
    """
    return _walk(node, memo)[1]


def _walk(node: Node, memo: dict) -> tuple[Node, list[Rewrite]]:
    """(`reduce_node(node)`, `_rewrites(node, memo)`).  A child's rewrite,
    already reduced, is lifted under `_reduce_top` with the reduced sibling."""
    if node[0] not in ("+", "*"):
        return node, []
    tag, left, right = node
    reduced_left, left_rewrites = _memo_walk(left, memo)
    reduced_right, right_rewrites = _memo_walk(right, memo)
    out = [
        (name, (), _memo_reduce(replaced, memo))
        for name, rule in _MOVE_RULES
        if (replaced := rule(node)) is not None
    ]
    out += [
        (name, (0, *path), _reduce_top(tag, reduced, reduced_right))
        for name, path, reduced in left_rewrites
    ]
    out += [
        (name, (1, *path), _reduce_top(tag, reduced_left, reduced))
        for name, path, reduced in right_rewrites
    ]
    return _reduce_top(tag, reduced_left, reduced_right), out


def _memo_reduce(node: Node, memo: dict) -> Node:
    """`reduce_node(node)`, reading the reduced subterms that `memo` holds."""
    if node[0] not in ("+", "*"):
        return node
    entry = memo.get(node)
    if entry is not None:
        return entry[0]
    return _reduce_top(node[0], _memo_reduce(node[1], memo), _memo_reduce(node[2], memo))


def _memo_walk(node: Node, memo: dict) -> tuple[Node, list[Rewrite]]:
    """`_walk`, memoised in `memo` as {subterm: (reduced, rewrites)}."""
    entry = memo.get(node)
    if entry is None:
        entry = memo[node] = _walk(node, memo)
    return entry


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
    """Zig-zag reachability of the whole fiber from the terminal representative.

    The ids are those of the sym DP's table (`_fiber_table`): a leaf's entry
    is its tuple, a sum's or product's is (tag, left id, right id), children
    have smaller ids, and equal trees have equal ids, since the DP builds no
    node twice.  The table is read through a cons dict {entry: id} made for
    this call alone and dropped with it.  For each fiber id, `_fiber_moves`
    gives the ids of its reduced rewrites, and each joins the two ids in one
    path-halving union-find; the unreachable terms are those whose root is
    not the terminal representative's.  Only they are decoded into `Term`s.

    This is the undirected graph of `generator_moves` (`_rewrites`, the
    oracle) restricted to the fiber.  A rewrite whose rewritten subterm, once
    reduced, has no entry in the dict is pruned with every lift of it, and
    loses no edge: that subterm is a sum or a product, and `_reduce_top`
    drops only 0/1 parts, so it stays a subterm of the whole reduced tree;
    every subterm of a fiber node is a built node, so that tree is not in
    the fiber.  Every hit at the root is in the fiber: it projects to f, and
    a stable table holds no node above the bound.  A rewrite followed by
    `reduce_node` adds no variable leaf, so the arity check a `Term` would
    make cannot fail, and at one arity two terms are equal exactly when
    their nodes are.
    """
    bound = _fiber_bound(f, "sym", bound)
    table, by_leaves = _fiber_table(f, "sym", bound + 2)
    levels, stable = _up_to(by_leaves, bound)
    if not stable:
        raise FiberNotStable(f"fiber of {f} changed between bounds {bound} and {bound + 2}")
    start = terminal_representative(f)
    cons = {entry: i for i, entry in enumerate(table)}
    first = _encode(start.node, cons)
    if first is None or not any(first in ids for ids in levels):
        raise PreconditionViolation(f"terminal representative {start} missing from fiber")
    parent = list(range(len(table)))

    def root(i: int) -> int:
        while (up := parent[i]) != i:
            parent[i] = i = parent[up]
        return i

    for i, targets in _fiber_moves(table, cons, levels):
        i = root(i)
        for j in targets:
            while (up := parent[j]) != j:  # root(j), inlined: most of the calls
                parent[j] = j = parent[up]
            parent[j] = i
    top = root(first)
    unreachable = [i for ids in levels for i in ids if root(i) != top]
    if unreachable:
        nodes = _decode(table)
        unreachable = [_fiber_term(f.arity, nodes[i]) for i in unreachable]
    size = sum(map(len, levels))
    return ConnectivityReport(not unreachable, size, start, frozenset(unreachable))


def _encode(node: Node, cons: dict) -> Union[int, None]:
    """The id of the node in the cons dict, or None when some subterm of it
    was never built."""
    if len(node) == 3:
        left = _encode(node[1], cons)
        right = _encode(node[2], cons)
        if left is None or right is None:
            return None
        node = (node[0], left, right)
    return cons.get(node)


def _fiber_moves(
    table: list, cons: dict, levels: Sequence[range]
) -> Iterator[tuple[int, list[int]]]:
    """(id, ids of its reduced rewrites) for each fiber id of a stable sym
    table, `levels` holding the fiber's ids and `cons` being {entry: id}.

    This is `_rewrites` on ids, pruned as `connectivity_check` says.  Ids
    run in build order, so one forward sweep sees a node's children before
    it and keeps, for every proper subterm, the ids of its reduced
    rewrites.  A node (tag, l, r) lists the rules that fire at its root,
    replayed from `_root_templates`, then l's ids lifted to (tag, a, r), then
    r's lifted alike, each looked up in `cons`.  A lift needs no unit step:
    a rewrite keeps its subterm's projection, so it is 0 or 1 only if the
    subterm is, and leaves have no rewrites; nor is a factor's sibling ever
    1 in the DP.  Fiber nodes are never proper subterms (their key is all of
    f's), so their own lists are not kept.
    """
    in_fiber = bytearray(len(table))
    for ids in levels:
        in_fiber[ids.start : ids.stop] = b"\x01" * len(ids)
    get = cons.get
    one = get(ONE)
    templates: dict = {}
    kinds: list = []  # per id: its tag, or the leaf itself
    below: list = []  # per id: its reduced rewrites' ids; None for fiber ids
    slots: list = []  # per node: l, r, their children, then step results
    for i, entry in enumerate(table):
        if len(entry) != 3:
            kinds.append(entry)
            below.append(())
            continue
        tag, l, r = entry
        kinds.append(tag)
        shape = (tag, kinds[l], kinds[r])
        plans = templates.get(shape)
        if plans is None:
            plans = templates[shape] = _root_templates(shape)
            slots += [None] * (6 + max((len(s) for s, _ in plans), default=0) - len(slots))
        slots[0], slots[1] = l, r
        if len(left := table[l]) == 3:
            _, slots[2], slots[3] = left
        if len(right := table[r]) == 3:
            _, slots[4], slots[5] = right
        out = []
        for steps, result in plans:
            for op, a, b, dest in steps:
                x, y = slots[a], slots[b]
                if op == "*" and x == one:
                    v = y
                elif op == "*" and y == one:
                    v = x
                else:
                    v = get((op, x, y))
                    if v is None:
                        break
                slots[dest] = v
            else:
                out.append(slots[result])
        out += [j for a in below[l] if (j := get((tag, a, r))) is not None]
        out += [j for b in below[r] if (j := get((tag, l, b))) is not None]
        if in_fiber[i]:
            below.append(None)
            yield i, out
        else:
            below.append(out)


def _root_templates(shape: tuple) -> list[tuple[tuple, int]]:
    """The rules of `_MOVE_RULES` that fire at the root of a node of this
    shape, each as (steps, result slot) to replay on ids.

    A shape is (tag, left kind, right kind), a kind being a child's tag or
    the leaf itself; that is all a rule reads.  Each rule runs once on a
    stand-in node whose grandchildren are placeholders, and its result is
    compiled by identity into steps (tag, slot, slot, result slot) over the
    slots left, right, left's two children, right's two children (0..5),
    then the steps' own results.  Replaying a step applies `_reduce_top` on
    ids, so the result is the rewritten node reduced, as `_memo_reduce`
    gives it.
    """
    tag, *kinds = shape
    slots: dict = {}
    parts = []
    for k, kind in enumerate(kinds):
        if kind in ("+", "*"):
            grand = (object(), object())
            slots[id(grand[0])], slots[id(grand[1])] = 2 + 2 * k, 3 + 2 * k
            part = (kind, *grand)
        else:
            part = tuple([*kind])  # a fresh copy, told apart by identity
        slots[id(part)] = k
        parts.append(part)
    node = (tag, *parts)

    def emit(sub, steps: list) -> int:
        slot = slots.get(id(sub))
        if slot is None:
            left, right = emit(sub[1], steps), emit(sub[2], steps)
            slot = 6 + len(steps)
            steps.append((sub[0], left, right, slot))
        return slot

    plans = []
    for _name, rule in _MOVE_RULES:
        replaced = rule(node)
        if replaced is not None:
            steps: list = []
            result = emit(replaced, steps)
            plans.append((tuple(steps), result))
    return plans


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
            raise PreconditionViolation(f"unknown mode {mode!r}")
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
