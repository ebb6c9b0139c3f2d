"""Free {+,x}-term algebras, their normal forms, fibers and coherence moves.

Terms are expression trees over leaves 0, 1, x1..xn and binary nodes + and x.
Canonical terms have the unit and nullity relations fully applied (0 survives
only as the whole term); reduced terms additionally carry the bipermutative
normal form: products are right-nested with a variable on the left, sums are
right-nested with no zero summand, and right distributivity is fully applied.

A walk over a whole tree goes through `_fold`, one bottom-up evaluator
with an explicit stack: the arity check of `Term`, leaf counts, projection,
the normal-form test and `_encode` do, since a normal form's chain is as
long as its leaf count.  The action and composition substitute and reduce
in one recursive pass, `_reduce_with`, which puts a reduced node at each
variable leaf and applies `_reduce_top` on the way up; `reduce_node` is
that pass with each variable kept.

The fibers of both modes come from one leaf-count dynamic programme,
`_fiber_table`, over cells (projection key, leaf count).  A node's top
split (operation, left leaf count, left key, right key) is read off the
node, so a cell is the disjoint union over its splits of left part x right
part.  Each fiber call makes one memoised walk down from f's key, which
reads each reached key's splits off the key itself, with the leaf counts
at which it has nodes, and tells whether the fiber is complete; one loop
then builds the cells of the reached keys in increasing leaf count, up to
f's last count within the bound.  The mode only picks the pools its left
factors and left summands are drawn from; in biperm mode a left summand is
never a sum, so each cell also records how many of its nodes are products.
The build hash-conses what it makes: each node gets an int id in one table,
whose entry is the leaf tuple for a leaf and (tag, left id, right id)
otherwise.  A cell's nodes get consecutive ids and children come before
parents, so ids follow build order, and since no node is built twice, equal
trees have equal ids.  `_bounded_fiber` decodes the ids into bare tuples in
one forward pass; nodes stay bare tuples until `enumerate_fiber` or a term
operad's `component` returns them as `Term`s.

Zig-zag connectivity never lists a fiber: `connectivity_check` runs its
union-find over split classes, a key at a time, parts before wholes.  A
class of a key K is a leaf, or (operation, K1, K2, c1, c2) for a split
(K1, K2) of K and components c1 of K1 and c2 of K2; its members are the
nodes (operation, a, b) with a in c1 and b in c2.  Three lemmas, proved in
the `connectivity_check` docstring, make that exact.  Completeness: in a
complete fiber, every member of every class, and every root rewrite of
one, is a fiber node.  Class product: each class is the product of its
parts' rewrite graphs, so it is connected, and the rest of K's graph is
the root rewrites.  Root rules: all members (operation, a, b) with a in
one class of K1 and b in one class of K2 have root rewrites into the same
classes, so one witness per such pair stands for them all; its rules are
replayed on class ids (`_root_moves`, one template per root shape from
`_root_templates`).  The fiber size is read off the DP's counts
(`_fiber_size`); a node table is built only to list the unreachable terms
of a fiber that is not connected.  No `Term` is built per move, and none
needs to be: a rewrite only moves, copies or drops subterms of its node,
and `reduce_node` only drops them, so no new variable leaf appears and the
arity check of `Term` cannot fail; at a fixed arity, `Term` equality is
node equality.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterator, Sequence, Union

from .errors import (
    ArityCapExceeded,
    ArityMismatch,
    FiberNotStable,
    NotReduced,
    PreconditionViolation,
    RingopsError,
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
        arity = self.arity
        bad = _fold(
            self.node,
            lambda leaf: leaf[1] if leaf[0] == "v" and not 1 <= leaf[1] <= arity else None,
            lambda _tag, left, right: right if left is None else left,
        )
        if bad is not None:
            raise ArityMismatch(f"variable x{bad} out of range for arity {arity}")

    def __str__(self):
        return node_str(self.node)

    @property
    def leaves(self) -> int:
        return _fold(self.node, lambda _leaf: 1, lambda _tag, left, right: left + right)


def _fold(node: Node, leaf, combine):
    """The node evaluated bottom up: leaf(l) at each leaf l, and
    combine(tag, left value, right value) at each sum or product.  It walks
    with an explicit stack, on which a node's tag stands for combining its
    parts, since a normal form's chain is as long as its leaf count and a
    parse tree's depth is checked through this walk."""
    done: list = []
    stack = [node]
    while stack:
        node = stack.pop()
        if node.__class__ is str:
            right = done.pop()
            done[-1] = combine(node, done[-1], right)
        elif len(node) == 3:
            stack += (node[0], node[2], node[1])
        else:
            done.append(leaf(node))
    return done[0]


def node_str(node: Node) -> str:
    """The node fully parenthesised.  A right-nested chain, the shape of
    every normal form, is walked with a loop, so a long sum or product
    prints without a frame per part."""
    tag = node[0]
    if tag == "v":
        return f"x{node[1]}"
    if len(node) == 1:
        return tag
    right = node[2]
    if len(right) != 3:
        return f"({node_str(node[1])} {tag} {node_str(right)})"
    head = f"({node_str(node[1])} {tag} "
    depth = 1
    while len(right) == 3:
        head += f"({node_str(right[1])} {right[0]} "
        right = right[2]
        depth += 1
    return head + node_str(right) + ")" * depth


# ---------------------------------------------------------------------------
# Canonical form and projection


def reduce_node(node: Node) -> Node:
    """Apply the unit and nullity rewrites exhaustively, bottom up."""
    return _reduce_with(node, var)


def _reduce_with(node: Node, leaf) -> Node:
    """The node with leaf(i), a reduced node, in place of each variable leaf
    x_i, reduced bottom up: the substitution and `reduce_node` in one pass.
    It recurses, since it runs on fiber elements, whose depth the fiber DP
    bounds, and on parsed terms, whose depth `parse_term` bounds."""
    if len(node) == 3:
        return _reduce_top(node[0], _reduce_with(node[1], leaf), _reduce_with(node[2], leaf))
    return leaf(node[1]) if node[0] == "v" else node


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


def project(term: Term, max_monomials: Union[int, None] = None) -> IntPoly:
    """The full expansion of the term over the non-negative integers.  With
    `max_monomials`, a partial expansion of more monomials is refused as it
    is built, a product mid-way: k factors of one sum give a binomial in k."""
    return _project(term.node, term.arity, max_monomials)


def _project(node: Node, arity: int, max_monomials: Union[int, None]) -> IntPoly:
    def leaf(node: Node) -> IntPoly:
        if node == ZERO:
            return int_zero(arity)
        if node == ONE:
            return int_const(arity, 1)
        return IntPoly.make(arity, {(node[1],): 1})

    def combine(tag: str, left: IntPoly, right: IntPoly) -> IntPoly:
        out = left.add(right) if tag == "+" else left.mul(right, max_monomials)
        if max_monomials is not None and len(out.terms) > max_monomials:
            raise PreconditionViolation(
                f"a partial expansion has more than {max_monomials} monomials"
            )
        return out

    return _fold(node, leaf, combine)


def act_map(phi: ExtMap, term: Term) -> Term:
    """Relabel variables along phi (0 becomes the zero leaf, e the unit leaf).
    Built without the arity check: ExtMap images lie in 1..target, or are
    the 0/e leaves."""
    if phi.source_size != term.arity:
        raise ArityMismatch("map source size differs from term arity")
    images = [ZERO if j == 0 else ONE if j == E else var(j) for j in phi.images]
    return _fiber_term(phi.target_size, _reduce_with(term.node, lambda i: images[i - 1]))


def compose_terms(g_term: Term, args: Sequence[Term]) -> Term:
    """Substitute argument terms into the variable leaves with block shifts.
    Built without the arity check: block offsets plus argument arities stay
    within the total."""
    if len(args) != g_term.arity:
        raise ArityMismatch(f"{g_term.arity}-ary term applied to {len(args)} arguments")
    offsets, total = _block_offsets(a.arity for a in args)
    shifted = [
        _reduce_with(a.node, lambda i, offset=offset: var(i + offset))
        for a, offset in zip(args, offsets)
    ]
    return _fiber_term(total, _reduce_with(g_term.node, lambda i: shifted[i - 1]))


# ---------------------------------------------------------------------------
# Bipermutative normal form


def _norm_plus(left: Node, right: Node) -> Node:
    """The chain of normal form left's summands, then right's.  This and
    `_norm_times` walk left's chain with a loop: a wide term's chain is as
    long as its leaf count."""
    if right == ZERO:
        return left
    summands = []
    while left[0] == "+":
        summands.append(left[1])
        left = left[2]
    if left != ZERO:
        right = ("+", left, right)
    for summand in reversed(summands):
        right = ("+", summand, right)
    return right


def _norm_times(left: Node, right: Node) -> Node:
    """Normal forms left x right, left's sums distributed over and its
    products right-associated."""
    if left == ZERO or right == ZERO:
        return ZERO
    if left == ONE:
        return right
    if right == ONE:
        return left
    if left[0] not in ("+", "*"):
        return ("*", left, right)
    tag, parts = left[0], []
    while left[0] == tag:
        parts.append(left[1])
        left = left[2]
    out = _norm_times(left, right)
    for part in reversed(parts):
        out = _norm_plus(_norm_times(part, right), out) if tag == "+" else _norm_times(part, out)
    return out


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
    """Every product has a variable on the left and no 0/1 on the right,
    and every sum has no 0 part and no sum on the left.  Folded to pairs
    (reduced, the node's tag or the leaf itself)."""

    def combine(tag: str, left: tuple, right: tuple) -> tuple:
        (left_ok, left), (right_ok, right) = left, right
        if tag == "*":
            ok = left[0] == "v" and right not in (ZERO, ONE)
        else:
            ok = ZERO not in (left, right) and left != "+"
        return left_ok and right_ok and ok, tag

    return _fold(node, lambda leaf: (True, leaf), combine)[0]


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
    """The fiber's terms with at most `bound` leaves; `stable` says that they
    are the whole fiber (it is complete at the bound)."""

    terms: frozenset[Term]
    stable: bool
    bound: int


def default_bound(f: RPoly) -> int:
    occurrences = sum(m.bit_count() for m in f.masks)
    return 3 * occurrences + 4


def enumerate_fiber(f: RPoly, mode: str = "sym", bound: Union[int, None] = None) -> FiberResult:
    """All canonical (or reduced) terms projecting to f with at most B leaves.

    The stability flag says whether the fiber is complete at B; it is read
    off the same walk of f's keys (`_reached`) that the DP builds from.
    """
    bound = _fiber_bound(f, mode, bound)
    walk = _reached(f, mode, bound)
    levels = _bounded_fiber(walk, mode, bound)
    found = frozenset(_fiber_term(f.arity, node) for level in levels for node in level)
    return FiberResult(found, walk[3], bound)


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
    `enumerate_fiber` and `connectivity_check` both read the DP up to."""
    if mode not in ("sym", "biperm"):
        raise PreconditionViolation(f"unknown fiber mode {mode!r}")
    if bound is None:
        bound = default_bound(f)
    if bound < 1:
        raise PreconditionViolation(f"leaf bound must be at least 1, got {bound}")
    return bound


def _reached(f: RPoly, mode: str, bound: int) -> tuple[frozenset, dict, dict, bool]:
    """The one walk of f's keys that a fiber call makes and hands to its
    build: f's key, its one-leaf cells, `_reach`'s entries for f's key and
    every key its splits reach, and whether the fiber is complete at the
    bound, that is whether f's largest leaf count, which `_reach` gives
    exactly, is at most the bound.  The zero polynomial's key has no
    splits, and its fiber is the leaf 0."""
    target = frozenset(_support(m) for m in f.masks)
    leaves = _leaves(f)
    keys = dict.fromkeys(leaves, ((1,), (1,), (), ()))
    _reach(target, mode, keys)
    return target, leaves, keys, max(keys[target][0], default=1) <= bound


def _whole_fiber(f: RPoly, mode: str, bound: int) -> tuple[frozenset, dict, dict, bool]:
    """`_reached`, for a call that reads the whole fiber: a fiber that is
    not complete at the bound is refused before any cell is built."""
    walk = _reached(f, mode, bound)
    if not walk[3]:
        raise FiberNotStable(f"fiber of {f} is not complete at bound {bound}")
    return walk


# Caches nothing (maxsize=0): each caller asks for a fiber once.  It stays an
# lru_cache function because the benchmark's tracer reads its cache_info().
@lru_cache(maxsize=0)
def _bounded_fiber(walk: tuple, mode: str, bound: int) -> tuple[tuple[Node, ...], ...]:
    """The nodes projecting to f, one tuple per leaf count from 0 to f's last
    non-empty count up to `bound`: `_fiber_table`'s ids, decoded."""
    table, by_leaves, _ = _fiber_table(walk, mode, bound)
    nodes = _decode(table)
    return tuple(tuple(nodes[ids.start : ids.stop]) for ids in by_leaves)


def _fiber_table(walk: tuple, mode: str, bound: int) -> tuple[list, tuple[range, ...], dict]:
    """The hash-consed nodes of the DP on f's walk (`_reached`), the ids
    projecting to f, one range per leaf count from 0 to f's last non-empty
    count up to `bound`, and the cells of every key as `_build_cells` gives
    them.

    A cell is a pair (projection key, leaf count s): the key is the set of
    supports a node expands to, and the cell holds the nodes with that key
    and s leaves.  A node with s > 1 leaves is a product or a sum of a left
    part with s1 leaves and a right part with s - s1, and its top split
    (operation, s1, left key, right key) is read off the node itself.  So
    the splits of a cell give disjoint node sets, a cell is the
    concatenation over its splits of left part x right part, and no node is
    built twice.  `_reach` reads the splits of f's key, and of every key
    they reach, off the keys alone, and `_build_cells` builds the reached
    keys' cells in increasing leaf count.

    The mode only picks the pools a left part comes from: in sym mode both
    are the whole cells; in biperm mode (the right-nested normal form) a
    left factor is a variable and a left summand is a leaf or a product,
    never a sum.  So a biperm cell also records how many of its nodes are
    products: a left summand draws on those alone.

    Every reached key has nodes (the sum of its monomials is one), and every
    cell of one is part of a cell of f: a right part or a factor sits beside
    every cell of its sibling, and a left summand's key, a proper subset of
    a reached key P, is also a right part (P splits off one monomial of the
    rest on the left, and so on down to it).  So with the bound at or past
    f's last count, the cells built are exactly those f's cells are made
    of.  Below f's largest count, cells that no cell of f within the bound
    uses may be built too.
    """
    target, leaves, keys, _ = walk
    if not target:
        return [ZERO], (range(0), range(1)), {}
    last = max((s for s in keys[target][0] if s <= bound), default=0)
    table, cells = _build_cells(leaves, mode, keys, last)
    return table, tuple(cells.get((target, s), (range(0),))[0] for s in range(last + 1)), cells


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
    return {frozenset({()}): ONE, **{frozenset({(i,)}): var(i) for i in variables}}


def _reach(key: frozenset, mode: str, keys: dict) -> tuple:
    """keys[key] = (counts, lefts, products, sums) for the key and every key
    its splits reach, keys already there being kept: the leaf counts at
    which the key has nodes, those at which it has left-summand nodes, and
    its product and sum splits as (left key, right key).

    Every coefficient is 1, so a sum's parts expand to disjoint sets of
    monomials, and a sum split is an ordered partition of the key's
    supports into two non-empty sets.  A product's parts share no variable,
    which would be squared in some monomial, so a product split is an
    ordered partition of the key's variables into two non-empty sets whose
    cuts {m & Vi : m in key} multiply back to the key; m -> (m & V1, m & V2)
    maps the key one-to-one into cut1 x cut2, whose pairs have distinct
    unions, so that is when |cut1| * |cut2| == |key|.  Each cut holds a
    variable, so neither is the unit's key.  In biperm mode the left cut
    must be one variable, and a sum split whose left key has no
    left-summand nodes is dropped; its keys are reached anyway.

    The counts are exact, with no bound: every split of the key is listed,
    a node's top split is read off the node, and any node that may stand
    on the left (a left summand's, in biperm mode) beside any node of the
    right key makes a node of the key.  A part's key has fewer supports or
    fewer variables than the key, so by induction from the leaf keys (one
    leaf each) up, a key has nodes with s leaves exactly when s is one of
    its counts.
    """
    found = keys.get(key)
    if found is not None:
        return found
    supports = sorted(key)
    products, sums, product_counts, counts = [], [], set(), set()
    for part, _ in _halves(sorted({i for m in supports for i in m})):
        cut1 = frozenset(tuple(i for i in m if i in part) for m in supports)
        cut2 = frozenset(tuple(i for i in m if i not in part) for m in supports)
        if len(cut1) * len(cut2) == len(supports) and (
            mode == "sym" or len(part) == len(cut1) == 1
        ):
            products.append((cut1, cut2))
            right = _reach(cut2, mode, keys)[0]
            product_counts.update(a + b for a in _reach(cut1, mode, keys)[0] for b in right)
    counts.update(product_counts)
    for part, rest in _halves(supports):
        left = _reach(frozenset(part), mode, keys)[1]
        if left:
            sums.append((frozenset(part), frozenset(rest)))
            right = _reach(frozenset(rest), mode, keys)[0]
            counts.update(a + b for a in left for b in right)
    counts = tuple(sorted(counts))
    lefts = counts if mode == "sym" else tuple(sorted(product_counts))
    found = keys[key] = (counts, lefts, products, sums)
    return found


def _halves(items: list) -> Iterator[tuple[list, list]]:
    """Each ordered partition of the items into two non-empty lists."""
    for mask in range(1, (1 << len(items)) - 1):
        yield (
            [x for b, x in enumerate(items) if mask >> b & 1],
            [x for b, x in enumerate(items) if not mask >> b & 1],
        )


def _build_cells(leaves: dict, mode: str, keys: dict, last: int) -> tuple[list, dict]:
    """The node table and cells[key, s] = (ids, k) for the leaves, and for
    every reached key and every count 1 < s <= last at which it has nodes,
    built in increasing leaf count.  Below f's largest count, cells that
    no cell of f uses may be built.  The table lists each leaf as its tuple
    and each sum or product as (tag, left id, right id); a cell's nodes get
    consecutive ids, products first, so its ids are a range.  The first k
    of them may stand as a left part: all of them in sym mode, the products
    (or the leaf) in biperm mode."""
    table: list = list(leaves.values())
    cells = {(key, 1): (range(i, i + 1), 1) for i, key in enumerate(leaves)}
    for s, level in enumerate(_key_levels(keys, last)):
        for key in level:
            start = len(table)
            for tag, splits in (("*", keys[key][2]), ("+", keys[key][3])):
                n_products = len(table) - start  # on the sums' turn: the products made
                for k1, k2 in splits:
                    for s1 in keys[k1][1]:
                        right = cells.get((k2, s - s1))
                        if right is not None:
                            pool, k = cells[k1, s1]
                            table += [(tag, a, b) for a in pool[:k] for b in right[0]]
            ids = range(start, len(table))
            cells[key, s] = (ids, len(ids) if mode == "sym" else n_products)
    return table, cells


def _key_levels(keys: dict, last: int) -> list[list]:
    """The reached keys with nodes at each leaf count 1 < s <= last, in walk
    order, listed at index s."""
    levels: list[list] = [[] for _ in range(last + 1)]
    for key, (counts, *_) in keys.items():
        for s in counts:
            if 1 < s <= last:
                levels[s].append(key)
    return levels


def _fiber_size(walk: tuple) -> int:
    """The number of sym nodes of a complete fiber, read off f's walk
    (`_reached`) by `_build_cells`'s split loop with each cell counted
    instead of listed: a cell's size is the sum over its splits and left
    counts s1 of |left cell (K1, s1)| x |right cell (K2, s - s1)|."""
    target, leaves, keys, _ = walk
    if not target:
        return 1
    sizes = dict.fromkeys(((key, 1) for key in leaves), 1)
    for s, level in enumerate(_key_levels(keys, max(keys[target][0]))):
        for key in level:
            sizes[key, s] = sum(
                sizes[k1, s1] * sizes[k2, s - s1]
                for splits in keys[key][2:]
                for k1, k2 in splits
                for s1 in keys[k1][1]
                if (k2, s - s1) in sizes
            )
    return sum(sizes[target, s] for s in keys[target][0])


# ---------------------------------------------------------------------------
# Coherence moves and connectivity


# The coherence moves, each a rewrite at the root of a node.  A move at any
# position of a term is followed by `reduce_node`, and zig-zag connectivity
# reads the undirected graph of those moves.  The distributivity moves are
# one-directional; unit-introduction inverses are omitted because reduction
# cancels them immediately.  A rule reads only its node's tag, its children
# and their tags, and builds its result from the node's parts with + and x:
# `_root_templates` runs it once per root shape on placeholder grandchildren.
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

    The graph is that of the single-position `_MOVE_RULES` rewrites, each
    followed by `reduce_node`, taken undirected.  A rewrite keeps its node's
    projection, so the graph falls apart by key, and `_class_components`
    gives the components of every key the walk reaches on its split
    classes, f's key last.  An incomplete fiber is refused first.  Three
    lemmas make the class walk exact.

    Completeness.  `_reach`'s counts are exact, and every count of a
    reached key is at most f's largest, which the bound covers: put a node
    of K with s leaves on a path of splits from f's key down to K, and
    beside it each sibling with its fewest leaves; that is a node of f.  So
    every node of a reached key is in the fiber or a subterm of one, for a
    split (K1, K2) of K every (tag, a, b) with a of K1 and b of K2 is a
    node of K, and a root rewrite, which keeps its node's key, lands on a
    node.  Every witness and every move result is thus a fiber node.

    Class product.  A rewrite inside a part l of (tag, l, r) keeps l's
    projection, which is 0 or 1 only at a leaf, and a factor's key always
    holds a variable, so it needs no unit step at the top: it gives
    (tag, l', r) with l' a neighbour of l in K1's graph, and alike inside
    r.  With completeness, each class (tag, K1, K2, c1, c2) is the product
    of the graphs of c1 and c2, so it is connected, and every other edge of
    K's graph is a root rewrite.

    Root rules.  A rule reads only its node's tag, children and
    grandchildren, and builds its result from them with + and x, each step
    reduced by `_reduce_top`.  Which rules fire is read off the children's
    entries; a built step's class is its tag and its parts' components; and
    a part is 1 exactly when its key is the unit's.  So all members
    (tag, a, b) with a in one class of K1 and b in one class of K2 have
    root rewrites, rule by rule, into the same classes, and one witness per
    such pair gives every root edge of K between classes.

    The fiber size is read off the DP's counts (`_fiber_size`).  When f's
    key is one component, the fiber is connected and no node is built.
    Otherwise the sym table (`_fiber_table`) is built and each node, parts
    first, is mapped to its class by its tag and its parts' components; a
    node with no class would break the argument and is an error, never
    skipped.  The unreachable terms are the nodes of f's key outside the
    terminal representative's component; only they are decoded into
    `Term`s.  A rewrite followed by `reduce_node` adds no variable leaf, so
    the arity check a `Term` would make cannot fail, and at one arity two
    terms are equal exactly when their nodes are.
    """
    bound = _fiber_bound(f, "sym", bound)
    walk = _whole_fiber(f, "sym", bound)
    target = walk[0]
    start = terminal_representative(f)
    size = _fiber_size(walk)
    if not target:
        return ConnectivityReport(True, size, start, frozenset())
    cons, components = _class_components(walk)
    top = _encode(start.node, cons)
    if top not in components[target]:
        raise PreconditionViolation(f"terminal representative {start} missing from fiber")
    if len(components[target]) == 1:
        return ConnectivityReport(True, size, start, frozenset())
    table, levels, _ = _fiber_table(walk, "sym", bound)
    component: list[int] = []
    for entry in table:
        if len(entry) == 3:
            entry = (entry[0], component[entry[1]], component[entry[2]])
        c = cons.get(entry)
        if c is None:
            node = node_str(_decode(table)[len(component)])
            raise RingopsError(f"the split class of {node} has no representative")
        component.append(c)
    nodes = _decode(table)
    unreachable = frozenset(
        _fiber_term(f.arity, nodes[i]) for ids in levels for i in ids if component[i] != top
    )
    return ConnectivityReport(not unreachable, size, start, unreachable)


def _class_components(walk: tuple) -> tuple[dict, dict]:
    """The split classes of every key of f's walk (`_reached`), joined by
    their witnesses' root rewrites: the cons dict {entry: class id} and each
    key's components, as lists of root class ids.

    A class's entry is a leaf, or (tag, c1, c2) with c1 and c2 components of
    its parts; ids are positions in one table of entries.  The keys are
    walked in `_reach`'s order, parts before wholes, f's key last, so a
    key's parts have their final components when its classes are made.
    Then for each split (tag, K1, K2), each class a of K1 and each class b
    of K2, one witness replays its root rules (`_root_moves`) on the slots
    root(a), root(b) and the parts of a's and b's entries, and each result
    is joined to (tag, root(a), root(b)).  By the root-rules lemma that
    stands for every member (tag, x, y) with x in a and y in b.  A key's
    walk stops once it is one component.  When a key is done, its entries
    in the cons dict are mapped to their roots, so a lookup of a lower key's
    class gives its component.  A rewrite with no class would break the
    completeness lemma and is an error, never dropped.
    """
    _, leaves, keys, _ = walk
    table: list = list(leaves.values())
    cons = {entry: i for i, entry in enumerate(table)}
    parent = list(range(len(table)))
    classes = {key: range(i, i + 1) for i, key in enumerate(leaves)}
    components = {key: [i] for i, key in enumerate(leaves)}
    moves = _root_moves(cons)

    def root(i: int) -> int:
        while (up := parent[i]) != i:
            parent[i] = i = parent[up]
        return i

    for key, (_, _, products, sums) in keys.items():
        if key in classes:
            continue
        splits = [("*", *split) for split in products] + [("+", *split) for split in sums]
        first = len(table)
        table += [(tag, c1, c2) for tag, k1, k2 in splits
                  for c1 in components[k1] for c2 in components[k2]]
        classes[key] = range(first, len(table))
        cons.update((entry, i) for i, entry in enumerate(table[first:], first))
        parent += classes[key]
        count = len(classes[key])
        for tag, a, b in (
            (tag, a, b) for tag, k1, k2 in splits for a in classes[k1] for b in classes[k2]
        ):
            if count == 1:
                break
            l, r = cons[table[a]], cons[table[b]]
            i = root(cons[tag, l, r])
            for j in moves(tag, l, r, table[a], table[b]):
                if j is None:
                    nodes = _decode(table)
                    node = node_str((tag, nodes[a], nodes[b]))
                    raise RingopsError(f"a root rewrite of {node} has no split class")
                j = root(j)
                if j != i:
                    parent[j] = i
                    count -= 1
        for c in classes[key]:
            cons[table[c]] = root(c)
        components[key] = [c for c in classes[key] if parent[c] == c]
    return cons, components


def _encode(node: Node, cons: dict) -> Union[int, None]:
    """The id of the node in the cons dict, or None when some subterm of it
    was never built."""
    return _fold(
        node,
        cons.get,
        lambda tag, left, right: None if left is None or right is None
        else cons.get((tag, left, right)),
    )


def _root_moves(cons: dict) -> Callable[..., list]:
    """The function from a sum or product (tag, l, r), given with the entries
    left and right whose parts stand below l and r, to the ids of its
    reduced root rewrites: the rules of `_MOVE_RULES` that fire at its root,
    each replayed from `_root_templates` on l, r and their parts, with each
    step's result looked up in `cons` ({entry: id}).  On a node table, left
    and right are l's and r's entries; in `_class_components`, l and r are
    components, and left and right the entries of the classes a witness
    stands for.  A step that misses gives
    None in place of its rule's result; in a complete table none does, since
    the rule's result is a canonical node of the same key, so it is built,
    and every step's result is one of its parts."""
    get = cons.get
    one = get(ONE)
    templates: dict = {}
    slots: list = []  # l, r, their parts, then step results

    def moves(tag: str, l: int, r: int, left: tuple, right: tuple) -> list:
        shape = (tag, left[0] if len(left) == 3 else left, right[0] if len(right) == 3 else right)
        plans = templates.get(shape)
        if plans is None:
            plans = templates[shape] = _root_templates(shape)
            slots.extend([None] * (6 + max((len(s) for s, _ in plans), default=0) - len(slots)))
        slots[0], slots[1] = l, r
        if len(left) == 3:
            _, slots[2], slots[3] = left
        if len(right) == 3:
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
                        out.append(None)
                        break
                slots[dest] = v
            else:
                out.append(slots[result])
        return out

    return moves


def _root_templates(shape: tuple) -> list[tuple[tuple, int]]:
    """The rules of `_MOVE_RULES` that fire at the root of a node of this
    shape, each as (steps, result slot) to replay on ids.

    A shape is (tag, left kind, right kind), a kind being a child's tag or
    the leaf itself; that is all a rule reads.  Each rule runs once on a
    stand-in node whose grandchildren are placeholders, and its result is
    compiled by identity into steps (tag, slot, slot, result slot) over the
    slots left, right, left's two children, right's two children (0..5),
    then the steps' own results.  Replaying a step applies `_reduce_top` on
    ids, so the result is `reduce_node` of the rewritten node, given that
    its parts are reduced.
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


# Both wrappers cache nothing (maxsize=0): the checkers' interned view asks
# each structure map once per run and keeps its results only for that run.
# They stay lru_cache functions because the benchmark's tracer reads their
# cache_info().
@lru_cache(maxsize=0)
def _cached_act(mode: str, phi: ExtMap, elt: Term) -> Term:
    moved = act_map(phi, elt)
    return normalize_biperm(moved) if mode == "biperm" else moved


@lru_cache(maxsize=0)
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
        bound = default_bound(f)
        levels = _bounded_fiber(_whole_fiber(f, self.mode, bound), self.mode, bound)
        return tuple(
            _fiber_term(f.arity, node) for level in levels for node in sorted(level, key=node_str)
        )

    def unit_element(self):
        return Term(1, var(1))

    def act(self, mor: RMorphism, elt):
        return _cached_act(self.mode, mor.map, elt)

    def _gamma(self, g, g_elt, args):
        return _cached_gamma(self.mode, g_elt, tuple(x for _, x in args))


def sset_operad(mode: str = "sym") -> TermRingOperad:
    return TermRingOperad(mode)
