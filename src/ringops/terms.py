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
part.  A memoised walk down from f's key reads each reached key's splits
off the key itself, with the leaf counts at which it has nodes; one loop
then builds the cells of the reached keys in increasing leaf count, up to
f's last count within the bound.  The mode only picks the pools its left
factors and left summands are drawn from; in biperm mode a left summand is
never a sum, so each cell also records how many of its nodes are products.
The build hash-conses what it makes: each node gets an int id in one table,
whose entry is the leaf tuple for a leaf and (tag, left id, right id)
otherwise.  A cell's nodes get consecutive ids and children come before
parents, so ids follow build order, and since no node is built twice, equal
trees have equal ids.  `_bounded_fiber` decodes the ids into bare tuples in
one forward pass; nodes stay bare tuples until `enumerate_fiber` returns
them as `Term`s.

Zig-zag connectivity never builds a tree: `connectivity_check` reads the
sym table through a cons dict {entry: id} made for that call alone.  One
union-find over the ids first joins each proper subterm to its reduced
rewrites (`_subterm_moves`: root rules instantiated once per root shape by
`_root_templates`, and children's lists lifted by one lookup each), then
each fiber node to its root rewrites and to one representative of its
split class, and stops once the fiber is one component.  No `Term` is
built per move, and none needs to be: a rewrite only moves, copies or
drops subtrees of its node, and `reduce_node` only drops them, so no new
variable leaf appears and the arity check of `Term` cannot fail; at a
fixed arity, `Term` equality is node equality.
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

    The stability flag says whether the fiber is complete at B: whether f's
    largest leaf count, which `_reach` gives exactly, is at most B.
    """
    bound = _fiber_bound(f, mode, bound)
    levels = _bounded_fiber(f, mode, bound)
    found = frozenset(_fiber_term(f.arity, node) for level in levels for node in level)
    return FiberResult(found, _largest_count(f, mode) <= bound, bound)


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


def _largest_count(f: RPoly, mode: str) -> int:
    """The most leaves of a term in the fiber of f; the zero polynomial's
    key has no splits, and its fiber is the leaf 0."""
    target, _, keys = _reached(f, mode)
    return max(keys[target][0], default=1)


# Caches nothing (maxsize=0): each caller asks for a fiber once.  It stays an
# lru_cache function because the benchmark's tracer reads its cache_info().
@lru_cache(maxsize=0)
def _bounded_fiber(f: RPoly, mode: str, bound: int) -> tuple[tuple[Node, ...], ...]:
    """The nodes projecting to f, one tuple per leaf count from 0 to f's last
    non-empty count up to `bound`: `_fiber_table`'s ids, decoded."""
    table, by_leaves = _fiber_table(f, mode, bound)
    nodes = _decode(table)
    return tuple(tuple(nodes[ids.start : ids.stop]) for ids in by_leaves)


def _fiber_table(f: RPoly, mode: str, bound: int) -> tuple[list, tuple[range, ...]]:
    """The hash-consed nodes of the DP and the ids projecting to f, one
    range per leaf count from 0 to f's last non-empty count up to `bound`.

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
    of.  Below it, `_room` keeps out the cells that no cell of f within the
    bound can use.
    """
    if f.is_zero:
        return [ZERO], (range(0), range(1))
    target, leaves, keys = _reached(f, mode)
    last = max((s for s in keys[target][0] if s <= bound), default=0)
    table, cells = _build_cells(leaves, mode, keys, _room(target, keys, bound), last)
    return table, tuple(cells.get((target, s), (range(0),))[0] for s in range(last + 1))


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


@lru_cache(maxsize=1)
def _reached(f: RPoly, mode: str) -> tuple[frozenset, dict, dict]:
    """f's key, its one-leaf cells and `_reach`'s entries for f's key and
    every key its splits reach: what the DP reads at every bound.  One
    entry is kept, so that a fiber call's DP and its completeness flag
    share one walk without every walk staying alive."""
    target = frozenset(_support(m) for m in f.masks)
    leaves = _leaves(f)
    keys = dict.fromkeys(leaves, ((1,), (1,), (), ()))
    _reach(target, mode, keys)
    return target, leaves, keys


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


def _room(target: frozenset, keys: dict, bound: int) -> dict:
    """{key: the bound less the fewest leaves beside the key on a path of
    splits up to f}, the most a cell of the key may have to be part of a
    cell of f within the bound.  A part of a cell within its room is within
    its own.  A biperm left summand's room holds for all its key's cells,
    though only products take part, so it may let a few more in.  The keys
    reversed come parents first, as `_reach` adds each after those below."""
    room = {target: bound}
    for key in reversed(keys):
        if key in room:
            for k1, k2 in (*keys[key][2], *keys[key][3]):
                room[k1] = max(room.get(k1, 0), room[key] - keys[k2][0][0])
                room[k2] = max(room.get(k2, 0), room[key] - keys[k1][1][0])
    return room


def _build_cells(
    leaves: dict, mode: str, keys: dict, room: dict, last: int
) -> tuple[list, dict]:
    """The node table and cells[key, s] = (ids, k) for the leaves, and for
    every reached key and every count 1 < s <= min(last, room[key]) at
    which it has nodes, built in increasing leaf count.  The table lists
    each leaf as its tuple and each sum or product as (tag, left id, right
    id); a cell's nodes get consecutive ids, products first, so its ids are
    a range.  The first k of them may stand as a left part: all of them in
    sym mode, the products (or the leaf) in biperm mode."""
    table: list = list(leaves.values())
    cells = {(key, 1): (range(i, i + 1), 1) for i, key in enumerate(leaves)}
    levels: list[list] = [[] for _ in range(last + 1)]
    for key, space in room.items():
        for s in keys[key][0]:
            if 1 < s <= min(last, space):
                levels[s].append(key)
    for s, level in enumerate(levels):
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

    The ids are those of the sym DP's table (`_fiber_table`): a leaf's entry
    is its tuple, a sum's or product's is (tag, left id, right id), children
    have smaller ids, and equal trees have equal ids, since the DP builds no
    node twice.  The table is read through a cons dict {entry: id} made for
    this call alone and dropped with it.  The graph is that of the
    single-position `_MOVE_RULES` rewrites, each followed by `reduce_node`,
    taken undirected and restricted to the fiber; one path-halving
    union-find over the ids gives its components, in two phases.

    First, each proper subterm (each id outside the fiber) is joined to its
    reduced rewrites, `_subterm_moves`, so the built nodes of each key fall
    into the components of that key's rewrite graph.  Then each fiber node
    (tag, l, r) is joined to its root rewrites, `_root_moves`, and to its
    class representative (tag, root(l), root(r)); the rewrites inside l and
    r are never lifted.  That is exact: in a complete fiber, (tag, a, b) is
    a fiber node for every built a of l's key and b of r's.  It projects to
    f and is canonical, and its leaf count, a count of l's key plus one of
    r's, is one of f's, which `_reach` gives exactly and the bound covers.
    So the lifted rewrites make each split class (tag, l's key, r's key)
    the Cartesian product of its parts' rewrite graphs, whose components
    are products of components: the nodes that share a representative.  A
    representative with no id would break that argument and is an error,
    never skipped.  Every root rewrite with an id is in the fiber: it
    projects to f, and an incomplete fiber is refused before the table is
    built.

    The fiber's components are counted down, one per join of two roots,
    and at one the fiber is connected and the walk stops.  Otherwise it
    walks every fiber node, and the unreachable terms are those whose root
    is not the terminal representative's; only they are decoded into
    `Term`s.  A rewrite followed by `reduce_node` adds no variable leaf, so
    the arity check a `Term` would make cannot fail, and at one arity two
    terms are equal exactly when their nodes are.
    """
    bound = _fiber_bound(f, "sym", bound)
    if _largest_count(f, "sym") > bound:
        raise FiberNotStable(f"fiber of {f} is not complete at bound {bound}")
    table, levels = _fiber_table(f, "sym", bound)
    start = terminal_representative(f)
    cons = {entry: i for i, entry in enumerate(table)}
    first = _encode(start.node, cons)
    if first is None or not any(first in ids for ids in levels):
        raise PreconditionViolation(f"terminal representative {start} missing from fiber")
    size = sum(map(len, levels))
    parent = list(range(len(table)))

    def root(i: int) -> int:
        while (up := parent[i]) != i:
            parent[i] = i = parent[up]
        return i

    moves = _root_moves(table, cons)
    for i, targets in _subterm_moves(table, cons, levels, moves):
        i = root(i)
        for j in targets:
            while (up := parent[j]) != j:  # root(j), inlined: most of the calls
                parent[j] = j = parent[up]
            parent[j] = i
    components = size
    for ids in levels:
        for i in ids:
            entry = table[i]
            if len(entry) != 3:
                continue
            tag, l, r = entry
            targets = moves(i)
            rep = cons.get((tag, root(l), root(r)))
            if rep is None:
                node = node_str(_decode(table)[i])
                raise RingopsError(f"the split class of {node} has no representative")
            targets.append(rep)
            i = root(i)
            for j in targets:
                while (up := parent[j]) != j:
                    parent[j] = j = parent[up]
                if j != i:
                    parent[j] = i
                    components -= 1
            if components == 1:
                return ConnectivityReport(True, size, start, frozenset())
    top = root(first)
    unreachable = [i for ids in levels for i in ids if root(i) != top]
    if unreachable:
        nodes = _decode(table)
        unreachable = [_fiber_term(f.arity, nodes[i]) for i in unreachable]
    return ConnectivityReport(not unreachable, size, start, frozenset(unreachable))


def _encode(node: Node, cons: dict) -> Union[int, None]:
    """The id of the node in the cons dict, or None when some subterm of it
    was never built."""
    return _fold(
        node,
        cons.get,
        lambda tag, left, right: None if left is None or right is None
        else cons.get((tag, left, right)),
    )


def _subterm_moves(
    table: list, cons: dict, levels: Sequence[range], moves: Callable[[int], list[int]]
) -> Iterator[tuple[int, list[int]]]:
    """(id, ids of its reduced rewrites) for each sum or product outside the
    fiber of a complete sym table, in build order: `levels` holds the
    fiber's ids, `cons` is {entry: id} and `moves` is `_root_moves`.

    The rewrites are those of `_MOVE_RULES` at every position, each followed
    by `reduce_node`, on ids.  One forward sweep sees a node's children
    before it and keeps, for every proper subterm, the ids of its reduced
    rewrites: a node (tag, l, r) lists its root rewrites, then l's ids
    lifted to (tag, a, r), then r's lifted alike, each looked up in `cons`.
    A lift needs no unit step: a rewrite keeps its subterm's projection, so
    it is 0 or 1 only if the subterm is, and leaves have no rewrites; nor is
    a factor's sibling ever 1 in the DP.  A rewrite whose rewritten subterm,
    once reduced, has no id is pruned with every lift of it, and loses no
    edge: `_reduce_top` drops only 0/1 parts, so that subterm stays in the
    whole reduced tree, and every subterm of a built node is built.  Fiber
    nodes are never proper subterms (their key is all of f's).
    """
    in_fiber = bytearray(len(table))
    for ids in levels:
        in_fiber[ids.start : ids.stop] = b"\x01" * len(ids)
    get = cons.get
    below: list = []  # per id: its reduced rewrites' ids; () for leaves and fiber ids
    for i, entry in enumerate(table):
        if len(entry) != 3 or in_fiber[i]:
            below.append(())
            continue
        tag, l, r = entry
        out = moves(i)
        out += [j for a in below[l] if (j := get((tag, a, r))) is not None]
        out += [j for b in below[r] if (j := get((tag, l, b))) is not None]
        below.append(out)
        yield i, out


def _root_moves(table: list, cons: dict) -> Callable[[int], list[int]]:
    """The function from a sum's or product's id to the ids of its reduced
    root rewrites: the rules of `_MOVE_RULES` that fire at its root, each
    replayed from `_root_templates` on the ids of its parts and their parts,
    with each step's result looked up in `cons` ({entry: id}).  A step that
    misses is pruned as `_subterm_moves` says."""
    get = cons.get
    one = get(ONE)
    templates: dict = {}
    slots: list = []  # l, r, their children, then step results

    def moves(i: int) -> list[int]:
        tag, l, r = table[i]
        left, right = table[l], table[r]
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
        result = enumerate_fiber(f, self.mode)
        if not result.stable:
            raise FiberNotStable(f"fiber of {f} is not complete at bound {result.bound}")
        return tuple(sorted(result.terms, key=lambda t: (t.leaves, str(t))))

    def unit_element(self):
        return Term(1, var(1))

    def act(self, mor: RMorphism, elt):
        return _cached_act(self.mode, mor.map, elt)

    def _gamma(self, g, g_elt, args):
        return _cached_gamma(self.mode, g_elt, tuple(x for _, x in args))


def sset_operad(mode: str = "sym") -> TermRingOperad:
    return TermRingOperad(mode)
