"""Discrete ring operads, their axiom checker, and set-level E-infinity tests.

A discrete ring operad assigns a finite component to every RPoly, acts along
validated index-category morphisms, carries a unit in the component of x1,
and composes along polynomial composition.  The checkers instantiate the
defining diagrams exhaustively within an arity cap, counting instances and
aborting at a configurable budget.

Every check is a section: a generator of verdicts, None for one instance
that holds, a violation message for one that does not, or an int n for a
block of n instances that all hold.  `_run` owns the loop: it ticks the
budget by each verdict's count and stops at the first violation;
`_check_sections` runs named sections into a CheckReport.
The block contract: a section that checks a block of instances at once
yields the block's size when the whole block holds, and otherwise replays
the block through its per-instance loop, which yields one verdict per
instance.  That loop is the one place that words violations, counts the
instances a section cannot build (a missing gamma row) in the report's
`skipped`, yielding nothing for them, and meets a raising row at its
instance, before the block is ticked.  So a report, and the budget used at
a raise, do not depend on which blocks were settled whole.

Checker state has two lifetimes:
- what depends only on the cap lives in the check plan, `_check_plan(cap)`,
  shared by every run at that cap in the process: every composite, read
  off per-arity-tuple product bitsets, and the morphisms the axiom checks
  read, listed on their first use.  An entry holds the canonical
  `RMorphism` objects of `_all_morphisms(cap)`, or the violation message
  of a map that is not a morphism, which every run yields again at the
  same instance.  Each of its memos is filled one block at a time and
  bounded like the view's tables (`_Tables`), so a cap-3 run keeps a
  bounded part of it;
- what depends on the operad lives only in the view of one run, below.  No
  operad-dependent cache outlives a run.

Sections read the operad through `_Interned`, a view that each checker entry
point (`check_axioms`, `check_einfty_set`, `validate_algebra`) builds fresh
for its run and drops at the end.  Its contract:
- elements are interned globally by equality, so two ids are equal exactly
  when their elements are, even across components;
- `component[f]` is the tuple of ids of the operad's component of f, and
  `members[f]` the frozenset of them;
- `gamma_table(g, fs)` maps the int key (c, *xs) to the id of
  gamma(g; c, xs), and `act_table(mor)` maps an id to the id of its image;
  the view keeps one table per shape or morphism, shared by every section,
  up to `_TABLES_KEPT` of each kind; past that it drops them all, and each
  refills on its next use with the same values, since act and gamma are
  functions;
- every table fills lazily, calling the operad's own map once per missing
  row; a row that raises is not stored, so it raises again when the
  per-instance replay reaches it, at the same instance as calling the
  operad directly would;
- `gamma_id(g, g_elt, args)` is the one place where a missing gamma row
  (GammaUndefined) becomes `_SKIP`: it gives the id of gamma(g; g_elt, args)
  over (f, element) pairs.  `gamma_row(shape, key)`, the one function the
  gamma tables fill from, calls it on the elements of an id key.
  `validate_algebra` keeps no gamma table: its associativity settles each
  (g, arity tuple) block of the plan in one fused pass, calling `gamma_id`
  on argument keys built once per arity tuple and comparing theta-row ids;
  only a block it cannot settle is replayed through `gamma_row`.  A table
  per shape would be filled once and read once; `check_axioms` keeps the
  tables, because its sections read one shape's rows again;
- rows are interned by value for the whole run through one interner:
  `row(table, pools)` is the id of the tuple of table's values over the
  product of the pools, read back as `rows[id]`, so two row ids are equal
  exactly when their rows are; a row that holds a `_SKIP`, or is built
  from one that does, has the id None.  The row tables hold ids of rows of
  gamma ids, and `validate_algebra` interns its theta rows alike.
  `composed_rows[p, hs]` maps x to the id of the row gamma(p; x, ys)
  over the product of hs's components, and `nested_rows[g, targets]` maps
  (c, *row ids) to the id of the row gamma(g; c, inner) over the product of
  those rows.  They are `_Tables` kept like the gamma tables, and fetch
  their gamma table through the view at each row they fill, so a dropped
  gamma table is never kept alive;
- a missing gamma row (GammaUndefined) is stored as `_SKIP`; a replayed
  instance stops at its first `_SKIP`, but building its block whole may
  already have evaluated rows past it, and in another order.  Rows are
  functions of their keys, so that changes no value, only the order in
  which ids are handed out, and ids never reach the output;
- violation messages decode ids back to elements, so they name the elements
  exactly as the operad does.
"""
from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property, lru_cache, partial, reduce
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, Union

from .errors import (
    ArityCapExceeded,
    ArityMismatch,
    NotAMorphism,
    PreconditionViolation,
    RingopsError,
    SearchBudgetExceeded,
)
from .indexcat import (
    E,
    ExtMap,
    RMorphism,
    _all_maps,
    argument_collation,
    block_sum,
    component_objects,
    enumerate_hom,
    psi_tilde,
    special_of_type,
    validate,
)
from .polynomials import (
    ENUMERATION_CAP,
    RPoly,
    _block_offsets,
    _lambda_sorted,
    _products,
    _slot,
    _substitute,
    enumerate_R,
    is_nondegenerate,
    is_special,
    type_of,
    unit_poly,
    zero_poly,
)

DEFAULT_BUDGET = 10**8


class GammaUndefined(RingopsError):
    """A table-backed composition entry is missing (arity-truncated gamma)."""


class Budget:
    """Instance counter with a hard abort threshold."""

    def __init__(self, limit: int = DEFAULT_BUDGET):
        if limit < 0:
            raise PreconditionViolation(f"budget must be non-negative, got {limit}")
        self.limit = limit
        self.used = 0

    def tick(self, count: int = 1):
        """Count `count` instances.  Past the limit, `used` is left at limit + 1,
        where as many single ticks would have stopped."""
        self.used += count
        if self.used > self.limit:
            self.used = self.limit + 1
            raise SearchBudgetExceeded(
                f"exhaustive check exceeded budget of {self.limit} instances"
            )


class DiscreteRingOperad:
    """Interface shared by all operad flavors.

    component(f) returns a deterministic tuple of elements; act maps along a
    validated morphism; gamma composes an element over g with one element per
    argument polynomial.  gamma over an empty argument list is the identity.
    """

    name = "operad"

    def component(self, f: RPoly) -> tuple:
        raise NotImplementedError

    def unit_element(self):
        raise NotImplementedError

    def act(self, mor: RMorphism, elt):
        raise NotImplementedError

    def gamma(self, g: RPoly, g_elt, args: Sequence[tuple[RPoly, object]]):
        if len(args) != g.arity:
            raise ArityMismatch(
                f"gamma over {g.arity}-ary polynomial got {len(args)} arguments"
            )
        if not args:
            return g_elt
        return self._gamma(g, g_elt, tuple(args))

    def _gamma(self, g, g_elt, args):
        raise NotImplementedError

    def zero_element(self, n: int):
        (elt,) = self.component(zero_poly(n))
        return elt


class StrictRingOperad(DiscreteRingOperad):
    """Every component a single point; the terminal ring operad."""

    name = "strict"
    POINT = "*"

    def component(self, f: RPoly) -> tuple:
        return (self.POINT,)

    def unit_element(self):
        return self.POINT

    def act(self, mor: RMorphism, elt):
        return self.POINT

    def _gamma(self, g, g_elt, args):
        return self.POINT


def strict_operad() -> StrictRingOperad:
    return StrictRingOperad()


class ProductRingOperad(DiscreteRingOperad):
    """Componentwise Cartesian product; both projections are operad maps."""

    def __init__(self, left: DiscreteRingOperad, right: DiscreteRingOperad):
        self.left = left
        self.right = right
        self.name = f"{left.name}x{right.name}"

    def component(self, f: RPoly) -> tuple:
        return tuple(
            itertools.product(self.left.component(f), self.right.component(f))
        )

    def unit_element(self):
        return (self.left.unit_element(), self.right.unit_element())

    def act(self, mor: RMorphism, elt):
        return (self.left.act(mor, elt[0]), self.right.act(mor, elt[1]))

    def _gamma(self, g, g_elt, args):
        left_args = [(f, x[0]) for f, x in args]
        right_args = [(f, x[1]) for f, x in args]
        return (
            self.left.gamma(g, g_elt[0], left_args),
            self.right.gamma(g, g_elt[1], right_args),
        )


def product(left: DiscreteRingOperad, right: DiscreteRingOperad) -> ProductRingOperad:
    return ProductRingOperad(left, right)


class TableRingOperad(DiscreteRingOperad):
    """Operad given by explicit tables, arity-truncated and gamma-partial.

    Element names must be unique across the whole table, and the unit must
    lie in the component of R(1): x1.  Missing gamma rows
    raise GammaUndefined, which the checkers count as skipped instances;
    missing action rows are a hard error since the action must be total.
    """

    def __init__(
        self,
        components: dict[RPoly, Sequence[str]],
        unit_name: str,
        gamma_rows: dict[tuple[str, tuple[str, ...]], str],
        action_rows: dict[tuple[RPoly, tuple[int, ...], RPoly, str], str],
        name: str = "table",
    ):
        self.name = name
        self._components = {f: tuple(elts) for f, elts in components.items()}
        seen: dict[str, RPoly] = {}
        for f, elts in self._components.items():
            for elt in elts:
                if elt in seen:
                    raise RingopsError(f"element name {elt!r} reused across components")
                seen[elt] = f
        if seen.get(unit_name) != unit_poly():
            raise RingopsError(f"unit {unit_name!r} is not in the component of {unit_poly()}")
        self._home = seen
        self._unit = unit_name
        self._gamma_rows = dict(gamma_rows)
        self._action_rows = dict(action_rows)

    def component(self, f: RPoly) -> tuple:
        if f not in self._components:
            raise ArityCapExceeded(f"fixture has no component for {f}")
        return self._components[f]

    def unit_element(self):
        return self._unit

    def act(self, mor: RMorphism, elt):
        key = (mor.source, mor.map.images, mor.target, elt)
        if key not in self._action_rows:
            raise RingopsError(
                f"fixture lacks action row for {elt!r} along {mor.map}"
            )
        return self._action_rows[key]

    def _gamma(self, g, g_elt, args):
        key = (g_elt, tuple(x for _, x in args))
        if key not in self._gamma_rows:
            raise GammaUndefined(f"no gamma row for {key}")
        return self._gamma_rows[key]


def operad_to_table(
    operad: DiscreteRingOperad, cap: int, name: Union[str, None] = None
) -> TableRingOperad:
    """Materialize a rule-backed operad as tables up to the arity cap."""
    if cap < 1:
        raise PreconditionViolation(
            f"cap must be at least 1 to hold the unit, which lives in R(1), got {cap}"
        )
    _check_cap(cap)
    labels = map("e{}".format, itertools.count())
    naming = {
        f: dict(zip(operad.component(f), labels)) for n in range(cap + 1) for f in enumerate_R(n)
    }
    unit = naming[unit_poly()][operad.unit_element()]
    action_rows = {}
    for mor in _all_morphisms(cap):
        target = naming[mor.target]
        for elt, label in naming[mor.source].items():
            action_rows[mor.source, mor.map.images, mor.target, label] = target[operad.act(mor, elt)]
    gamma_rows = {}
    for g, _, shapes in _check_plan(cap).blocks():
        for fs, composite in shapes:
            pools = [naming[f].items() for f in fs]
            for g_elt, g_label in naming[g].items():
                for pairs in itertools.product(*pools):
                    result = operad.gamma(g, g_elt, [(f, x) for f, (x, _) in zip(fs, pairs)])
                    key = g_label, tuple(label for _, label in pairs)
                    gamma_rows[key] = naming[composite][result]
    return TableRingOperad(
        {f: list(names.values()) for f, names in naming.items()},
        unit, gamma_rows, action_rows, name=name or f"table[{operad.name}]",
    )


# ---------------------------------------------------------------------------
# Shape and morphism enumeration helpers


def _arity_tuples(k: int, total_cap: int) -> Iterator[tuple[int, ...]]:
    """All k-tuples of non-negative arities with sum <= total_cap, in
    lexicographic order."""
    return (t for t in itertools.product(range(total_cap + 1), repeat=k) if sum(t) <= total_cap)


def _poly_of_bits(arity: int, bits: int) -> RPoly:
    """The RPoly of this arity whose masks are the set bits of bits."""
    return _lambda_sorted(arity, [m for m in range(bits.bit_length()) if bits >> m & 1])


def _blocks(fs: Sequence[RPoly]) -> tuple[list[tuple[int, int]], int]:
    """The (start, end) variable range of each argument's block, and the total."""
    offsets, total = _block_offsets(f.arity for f in fs)
    return [(a, a + f.arity) for a, f in zip(offsets, fs)], total


def _check_cap(cap: int) -> None:
    """Reject a cap before any work: a check at a cap above the enumeration
    cap could only end when it first lists R(cap)."""
    if cap < 0:
        raise PreconditionViolation(f"cap must be non-negative, got {cap}")
    if cap > ENUMERATION_CAP:
        raise ArityCapExceeded(f"cap {cap} exceeds the enumeration cap {ENUMERATION_CAP}")


# (source, map) pairs `_all_morphisms` may try: cap 3 tries 29,136, while
# cap 4 would try 74,571,517, past 900 MB after 21 s, before a check counts
# an instance.
_MORPHISM_PAIR_LIMIT = 10**6


@lru_cache(maxsize=8)
def _all_morphisms(cap: int) -> tuple[RMorphism, ...]:
    """Every morphism between arities <= cap: by source in `enumerate_R`
    order, then target arity, then map in `_all_maps` order.  Each
    `_all_maps(m, n)` is listed once, for every f of arity m.  A cap whose
    |R(m)| * (n + 2)^m pairs pass `_MORPHISM_PAIR_LIMIT` is refused before
    anything is listed."""
    pairs = sum(
        2 ** (2**m - 1) * sum((n + 2) ** m for n in range(cap + 1)) for m in range(cap + 1)
    )
    if pairs > _MORPHISM_PAIR_LIMIT:
        raise ArityCapExceeded(
            f"listing the morphisms at cap {cap} would try {pairs:,} (source, map) pairs,"
            f" past the limit of {_MORPHISM_PAIR_LIMIT:,}"
        )
    out = []
    for m in range(cap + 1):
        maps = [tuple(_all_maps(m, n)) for n in range(cap + 1)]
        for f in enumerate_R(m):
            for n, phis in enumerate(maps):
                for phi in phis:
                    g = _substitute(phi.images, n, f)
                    if g is not None:
                        out.append(RMorphism(f, phi, g))
    return tuple(out)


# ---------------------------------------------------------------------------
# The interned view every checker section reads

_SKIP = object()  # the gamma-table entry of a missing gamma row
# Tables kept per kind: every table of a cap-2 run (223 gamma, 160 act) fits,
# and a cap-3 axiom check, over 70,750 composition shapes, stays in bounded
# memory.
_TABLES_KEPT = 4096
# Entries kept by one memo of the check plan, over all its blocks: a cap-2
# memo fits whole (the largest, the argument blocks, holds 5,120), and a
# cap-3 one stays at about half a megabyte of references.
_PLAN_ENTRIES_KEPT = 1 << 16


class _Table(dict):
    """A dict that fills a missing key with row(shape, key) and keeps it."""

    __slots__ = ("row", "shape")

    def __init__(self, row, shape=None):
        super().__init__()
        self.row = row
        self.shape = shape

    def __missing__(self, key):
        value = self[key] = self.row(self.shape, key)
        return value


class _Tables(dict):
    """One value `make(key)` per shape, morphism or other key, made on first
    fetch: an empty `_Table` of the view, or a block (a tuple or `_Shapes`)
    of the check plan.  All are dropped once `_TABLES_KEPT` are held, or
    once the values held had `_PLAN_ENTRIES_KEPT` entries when made, and
    another is needed; a dropped value is made again alike, since it
    depends only on its key."""

    __slots__ = ("make", "entries")

    def __init__(self, make):
        super().__init__()
        self.make = make
        self.entries = 0

    def __missing__(self, key):
        if len(self) >= _TABLES_KEPT or self.entries >= _PLAN_ENTRIES_KEPT:
            self.clear()
            self.entries = 0
        value = self[key] = self.make(key)
        self.entries += len(value)
        return value


class _Interned:
    """Element ids, components as id tuples, and lazy int tables for act,
    gamma and rows of gamma over one operad; the module docstring states the
    contract."""

    def __init__(self, operad: DiscreteRingOperad):
        ids: dict = {}
        elements: list = []

        def intern(elt) -> int:
            index = ids.get(elt)
            if index is None:
                index = ids[elt] = len(elements)
                elements.append(elt)
            return index

        def component_row(_, f):
            return tuple(map(intern, operad.component(f)))

        def gamma_id(g, g_elt, args):
            try:
                return intern(operad.gamma(g, g_elt, args))
            except GammaUndefined:
                return _SKIP

        def gamma_row(shape, key):
            g, fs = shape
            return gamma_id(g, elements[key[0]], [(f, elements[x]) for f, x in zip(fs, key[1:])])

        def act_row(mor, x):
            return intern(operad.act(mor, elements[x]))

        row_ids: dict = {}
        rows: list = []

        def row(table, pools):
            values = tuple(map(table.__getitem__, itertools.product(*pools)))
            if _SKIP in values:
                return None
            index = row_ids.get(values)
            if index is None:
                index = row_ids[values] = len(rows)
                rows.append(values)
            return index

        def composed_row(shape, x):
            return row(gammas[shape], ((x,), *map(components.__getitem__, shape[1])))

        def nested_row(shape, key):
            if None in key:
                return None
            return row(gammas[shape], (key[:1], *map(rows.__getitem__, key[1:])))

        # The rows close over these locals, never over self, so a dropped
        # view is freed at once rather than by the cycle collector.
        self.operad = operad
        self.elements = elements
        self.intern = intern
        self.component = components = _Table(component_row)
        self.members = _Table(lambda _, f: frozenset(components[f]))
        self.gamma_id = gamma_id
        self.gamma_row = gamma_row
        self.row = row
        self.rows = rows
        self._gamma = gammas = _Tables(partial(_Table, gamma_row))
        self._act = _Tables(partial(_Table, act_row))
        self.composed_rows = _Tables(partial(_Table, composed_row))
        self.nested_rows = _Tables(partial(_Table, nested_row))

    def gamma_table(self, g: RPoly, fs: Sequence[RPoly]) -> dict:
        return self._gamma[g, tuple(fs)]

    def act_table(self, mor: RMorphism) -> dict:
        return self._act[mor]

    def decode(self, xs: Sequence[int]) -> tuple:
        return tuple(self.elements[x] for x in xs)


# ---------------------------------------------------------------------------
# The check plan every run at a cap shares

class _Shapes(list):
    """The argument tuples of one arity tuple, in product order over
    `enumerate_R`.  For each monomial u over the k slots, `rows[args][u]` is
    the bitset (bit m for mask m) of the products of u's slots
    (`_products`) at args, and `bitsets[u]` lists it at every position.

    g(args) is the OR of the bitsets of g's monomials at args, mapped to
    its RPoly by `composites`, the plan's one table per total arity, so
    each distinct composite is one object: 139 at cap 3, for 70,750 shapes.
    The OR drops no product: by the "no repeat" argument of the
    `polynomials` docstring, the products of one shape are pairwise
    distinct, so the set bits are exactly the composite's masks."""

    __slots__ = ("rows", "bitsets", "composites")

    def __init__(self, composites: _Table, arities: tuple[int, ...]):
        offsets, total = _block_offsets(arities)
        pools = [enumerate_R(j) for j in arities]
        super().__init__(itertools.product(*pools))
        slots = itertools.product(*([_slot(f, o) for f in p] for p, o in zip(pools, offsets)))
        self.rows = {
            args: tuple(sum(1 << m for m in _products((u,), s)) for u in range(1 << len(arities)))
            for args, s in zip(self, slots)
        }
        self.bitsets = tuple(zip(*self.rows.values()))
        self.composites = composites[total]

    def block(self, g: RPoly) -> list[tuple[tuple[RPoly, ...], RPoly]]:
        """(args, g(args)) at every position."""
        bits = reduce(
            partial(map, operator.or_),
            map(self.bitsets.__getitem__, g.masks),
            itertools.repeat(0, len(self)),
        )
        return list(zip(self, map(self.composites.__getitem__, bits)))

    def composite(self, g: RPoly, args: tuple[RPoly, ...]) -> RPoly:
        return self.composites[reduce(operator.or_, map(self.rows[args].__getitem__, g.masks), 0)]


class _CheckPlan:
    """The operad-independent data the checkers read at one cap.

    - `shapes[arities]`: the `_Shapes` of an arity tuple.  Every composite
      is read off them: `blocks()` lists (g, arities, (args, g(args)) pairs)
      for g of arity 1..cap in `enumerate_R` order, then arities in order,
      and `shapes[arities].composite(g, args)` gives one;
    - `argument_tuples(k)`: every k-tuple of polynomials of total arity at
      most the cap, arity tuple by arity tuple; [()] for k = 0;
    - `inner[fs]`: for each hs of `argument_tuples` over fs's total arity,
      the targets f_s(hs_s) of the inner composites, the product of the
      f_s blocks over the slices of hs, interned per plan; they do not
      depend on g, so every g over fs reads one block;
    - `by_source[f]`: the morphisms out of f, in `_all_morphisms` order;
      `identities`: (f, identity of f) for each source f;
    - `combined[first]`: first.then(second) for each second out of
      first.target, aligned with `by_source`;
    - `outer[basepoint, mor]`: for each fs of `argument_tuples`, None when
      the slots exceed the cap, else the re-indexing morphism or the message
      saying it is not one;
    - `argument_pools(src, tgt)`: the morphism pools of the block sums, and
      `arguments[g, src, tgt]`: for each mors of their product, the block
      sum as a morphism g(fs) -> g(hs), or the message saying it is not one.

    Every morphism is the canonical object of `_all_morphisms(cap)`.  Every
    memo is a `_Tables`, and the morphisms are listed on first use, so a
    run that reads only composites never lists them."""

    def __init__(self, cap: int):
        self.cap = cap
        self.shapes = _Tables(partial(_Shapes, _Table(lambda _, total: _Table(_poly_of_bits, total))))
        self.inner = _Tables(self._inner)
        self.combined = _Tables(self._combined)
        self.outer = _Tables(self._outer)
        self.arguments = _Tables(self._arguments)
        self._targets: dict = {}

    def argument_tuples(self, k: int) -> Iterator[tuple[RPoly, ...]]:
        return itertools.chain.from_iterable(map(self.shapes.__getitem__, _arity_tuples(k, self.cap)))

    def blocks(self) -> Iterator[tuple[RPoly, tuple[int, ...], list]]:
        for k in range(1, self.cap + 1):
            for g in enumerate_R(k):
                for arities in _arity_tuples(k, self.cap):
                    yield g, arities, self.shapes[arities].block(g)

    def _inner(self, fs):
        blocks, total = _blocks(fs)
        out = []
        for arities in _arity_tuples(total, self.cap):
            slots = [self.shapes[arities[a:b]].block(f) for f, (a, b) in zip(fs, blocks)]
            keys = list(itertools.product(*([target for _, target in slot] for slot in slots)))
            out += map(self._targets.setdefault, keys, keys)
        return tuple(out)

    @cached_property
    def by_source(self) -> dict[RPoly, list[RMorphism]]:
        by_source: dict[RPoly, list[RMorphism]] = {}
        for mor in _all_morphisms(self.cap):
            by_source.setdefault(mor.source, []).append(mor)
        return by_source

    @cached_property
    def _canonical(self) -> dict:
        return {(m.source, m.map.images, m.target): m for m in _all_morphisms(self.cap)}

    def _canon(self, mor):
        return self._canonical.get((mor.source, mor.map.images, mor.target), mor)

    @cached_property
    def identities(self) -> tuple:
        return tuple((f, self._canon(validate(f, ExtMap.identity(f.arity), f))) for f in self.by_source)

    def _combined(self, first):
        # second's map as a tuple indexed by 0, 1..n and -1 (e), read at
        # first's images: the images of first.then(second), without
        # building the morphism
        out = []
        for second in self.by_source.get(first.target, ()):
            after = (0, *second.map.images, E)
            key = first.source, tuple(map(after.__getitem__, first.map.images)), second.target
            out.append(self._canonical.get(key) or first.then(second))
        return tuple(out)

    def _outer(self, key):
        basepoint, mor = key
        _, map_name, _, filler_poly, _, reindex = _OUTER_DIAGRAMS[basepoint]
        psi = mor.map
        out = []
        for arities in _arity_tuples(mor.target.arity, self.cap):
            targets = self.shapes[arities]
            slots = tuple(filler_poly.arity if v == basepoint else arities[v - 1] for v in psi.images)
            if sum(slots) > self.cap:
                out += [None] * len(targets)
                continue
            sources, chi = self.shapes[slots], reindex(psi, arities)
            for fs, target_comp in targets.block(mor.target):
                slot_polys = tuple(filler_poly if v == basepoint else fs[v - 1] for v in psi.images)
                source_comp = sources.composite(mor.source, slot_polys)
                try:
                    out.append(self._canon(validate(source_comp, chi, target_comp)))
                except (NotAMorphism, ArityMismatch):
                    out.append(f"{map_name} map invalid for {psi} with args {[str(f) for f in fs]}")
        return tuple(out)

    @cached_property
    def _by_shape(self) -> dict[tuple[int, int], list[RMorphism]]:
        by_shape: dict[tuple[int, int], list[RMorphism]] = {}
        for mor in _all_morphisms(self.cap):
            by_shape.setdefault((mor.source.arity, mor.target.arity), []).append(mor)
        return by_shape

    def argument_pools(self, src: tuple[int, ...], tgt: tuple[int, ...]) -> list:
        return [self._by_shape.get(shape, ()) for shape in zip(src, tgt)]

    def _arguments(self, key):
        g, src, tgt = key
        sources, targets = self.shapes[src], self.shapes[tgt]
        out = []
        for mors in itertools.product(*self.argument_pools(src, tgt)):
            bsum = block_sum([m.map for m in mors])
            comp_f = sources.composite(g, tuple(m.source for m in mors))
            comp_h = targets.composite(g, tuple(m.target for m in mors))
            try:
                out.append(self._canon(validate(comp_f, bsum, comp_h)))
            except (NotAMorphism, ArityMismatch):
                out.append(
                    f"block sum of {[str(m.map) for m in mors]} is not a "
                    f"morphism {comp_f} -> {comp_h}"
                )
        return tuple(out)


_check_plan = lru_cache(maxsize=None)(_CheckPlan)


# ---------------------------------------------------------------------------
# Axiom checker


@dataclass
class CheckReport:
    """Outcome of an exhaustive diagram check."""

    name: str
    ok: bool
    checked: int
    skipped: int
    failure: Union[str, None]
    sections: dict[str, int] = field(default_factory=dict)

    def __str__(self):
        status = "pass" if self.ok else f"FAIL: {self.failure}"
        return f"[{self.name}] {status} ({self.checked} instances, {self.skipped} skipped)"


_Verdicts = Iterator[Union[str, int, None]]


def _run(instances: _Verdicts, budget: Budget) -> tuple[int, Union[str, None]]:
    """Tick the budget by each verdict's count of instances (one for None or
    a violation, n for a block of n); stop at the first violation."""
    count = 0
    for verdict in instances:
        if verdict is None:
            budget.tick()
            count += 1
        elif isinstance(verdict, int):
            budget.tick(verdict)
            count += verdict
        else:
            budget.tick()
            return count + 1, verdict
    return count, None


def _check_sections(
    report: CheckReport, budget: Budget, sections: Sequence[tuple[str, _Verdicts]]
) -> CheckReport:
    """Run the named sections in order; the first violation ends the report."""
    for section, instances in sections:
        count, violation = _run(instances, budget)
        report.checked += count
        if violation is not None:
            report.ok = False
            report.failure = f"{section}: {violation}"
            break
        report.sections[section] = count
    return report


def check_axioms(
    operad: DiscreteRingOperad, cap: int = 2, budget: Union[Budget, None] = None
) -> CheckReport:
    """Exhaustively instantiate the ring-operad diagrams within the cap.

    Checks singleton zero components, action functoriality, the unit
    diagrams, associativity, and the three equivariance diagrams.  Reports
    the first violation, or success with instance counts.
    """
    _check_cap(cap)
    report = CheckReport(f"axioms:{operad.name}@cap{cap}", True, 0, 0, None)
    view = _Interned(operad)
    return _check_sections(report, budget or Budget(), (
        ("zero-components", _check_zero_components(view, cap)),
        ("functoriality", _check_functoriality(view, cap)),
        ("units", _check_units(view, cap, report)),
        ("associativity", _check_associativity(view, cap, report)),
        ("equivariance-collapse", _check_outer_equivariance(view, cap, report, 0)),
        ("equivariance-singular", _check_outer_equivariance(view, cap, report, E)),
        ("equivariance-arguments", _check_equivariance_arguments(view, cap, report)),
    ))


def _check_zero_components(view, cap):
    for n in range(cap + 1):
        size = len(view.component[zero_poly(n)])
        yield None if size == 1 else f"component of 0_{n} has {size} elements"


def _check_functoriality(view, cap):
    elements = view.elements
    plan = _check_plan(cap)
    by_source = {
        f: [(mor, view.act_table(mor)) for mor in mors] for f, mors in plan.by_source.items()
    }
    for f, identity in plan.identities:
        ident = view.act_table(identity)
        for x in view.component[f]:
            yield None if ident[x] == x else (
                f"identity action moved {elements[x]!r} over {f}"
            )
    for first in _all_morphisms(cap):
        act_first = view.act_table(first)
        middle = view.members[first.target]
        seconds = by_source.get(first.target, ())
        for (second, act_second), combined in zip(seconds, plan.combined[first]):
            act_combined = view.act_table(combined)
            for x in view.component[first.source]:
                step = act_first[x]
                if step not in middle:
                    yield f"action left the target component at {elements[x]!r}"
                    continue
                direct = act_combined[x]
                if act_second[step] != direct:
                    yield (
                        f"action not functorial on {first.map} then {second.map} "
                        f"at {elements[x]!r}"
                    )
                else:
                    yield None if direct in view.members[combined.target] else (
                        f"action left the target component at {elements[x]!r}"
                    )


def _check_units(view, cap, report):
    elements = view.elements
    unit = unit_poly()
    eta = view.intern(view.operad.unit_element())
    for k in range(1, cap + 1):
        etas = (eta,) * k
        for g in enumerate_R(k):
            right = view.gamma_table(g, (unit,) * k)
            for c in view.component[g]:
                composed = right[(c, *etas)]
                if composed is _SKIP:
                    report.skipped += 1
                    continue
                yield None if composed == c else (
                    f"gamma(c; unit^{k}) != c at {elements[c]!r} over {g}"
                )
    for n in range(cap + 1):
        for g in enumerate_R(n):
            left = view.gamma_table(unit, (g,))
            for c in view.component[g]:
                composed = left[eta, c]
                if composed is _SKIP:
                    report.skipped += 1
                    continue
                yield None if composed == c else (
                    f"gamma(unit; c) != c at {elements[c]!r} over {g}"
                )


def _composites(view, g, fs, report, gamma):
    """Each (c, xs, gamma) id triple over g and fs, where gamma((c, *xs)) is
    the id of the composite; missing rows are skipped."""
    for c in view.component[g]:
        for xs in itertools.product(*(view.component[f] for f in fs)):
            composed = gamma((c, *xs))
            if composed is _SKIP:
                report.skipped += 1
                continue
            yield c, xs, composed


def _holds_whole(size, sides, *args):
    """Whether a block of `size` instances holds as a whole.  It must have
    more than one instance, and sides(*args) must build its two sides as
    lists that are equal only when every instance holds; sides returns None
    at a `_SKIP`."""
    if size < 2:
        return False
    built = _whole_sides(sides, *args)
    return built is not None and built[0] == built[1]


def _whole_sides(sides, *args):
    """sides(*args), or None if a row raises while they are built.  Such a
    row settles nothing: the block's replay meets it again at its instance."""
    try:
        return sides(*args)
    except Exception:
        return None


def _check_associativity(view, cap, report):
    """One block per (g, fs, hs): every composite (c, xs, top) over g and fs,
    then every ys over hs.

    A block is settled on row ids, one per top and side.  The left row is
    gamma(composite; top, ys) over every ys; the right row is
    gamma(g; c, inner...) over the product of the inner rows
    gamma(f_s; x_s, ys_s), which runs in the order of ys because the
    argument blocks of ys are contiguous.  Rows are interned by value, so
    equal ids mean equal rows, which means every instance of that top
    holds; a block whose id lists are equal and hold no None (a row that
    reads a `_SKIP`) holds whole.  The top ids and the c and x columns of a
    (g, fs) are read off its tops once, and the inner targets off the plan."""
    plan = _check_plan(cap)
    for g, _, shapes in plan.blocks():
        for fs, composite in shapes:
            blocks, total = _blocks(fs)
            tops = list(_composites(view, g, fs, report, view.gamma_table(g, fs).__getitem__))
            columns = list(zip(*[(top, c, *xs) for c, xs, top in tops]))
            for hs, inner_targets in zip(plan.argument_tuples(total), plan.inner[fs]):
                h_pools = [view.component[h] for h in hs]
                size = len(tops) * math.prod(map(len, h_pools))
                shape = g, fs, hs
                sides = view, shape, composite, blocks, inner_targets, columns
                if _holds_whole(size, _associativity_ids, *sides):
                    yield size
                    continue
                tables = (
                    view.gamma_table(composite, hs),
                    [(view.gamma_table(fs[s], hs[a:b]), a, b) for s, (a, b) in enumerate(blocks)],
                    view.gamma_table(g, inner_targets),
                )
                yield from _associativity_instances(view, report, shape, tops, h_pools, *tables)


def _associativity_ids(view, shape, composite, blocks, inner_targets, columns):
    """The left and right row ids of a block's tops, or None if a left row
    reads a `_SKIP`; a right one that does is None and fails the comparison."""
    g, fs, hs = shape
    top_ids, cs, *x_columns = columns
    lhs = list(map(view.composed_rows[composite, hs].__getitem__, top_ids))
    if None in lhs:
        return None
    inner = [
        map(view.composed_rows[f, hs[a:b]].__getitem__, xs)
        for f, (a, b), xs in zip(fs, blocks, x_columns)
    ]
    return lhs, list(map(view.nested_rows[g, inner_targets].__getitem__, zip(cs, *inner)))


def _associativity_instances(
    view, report, shape, tops, h_pools, lhs_table, nested_tables, rhs_table
):
    """The block one instance at a time, as the block contract replays it."""
    g, fs, hs = shape
    decode = view.decode
    for c, xs, top in tops:
        for ys in itertools.product(*h_pools):
            lhs = lhs_table[(top, *ys)]
            rhs = _SKIP
            if lhs is not _SKIP:
                nested = [c]
                for (table, a, b), x in zip(nested_tables, xs):
                    inner = table[(x, *ys[a:b])]
                    if inner is _SKIP:
                        break
                    nested.append(inner)
                else:
                    rhs = rhs_table[tuple(nested)]
            if rhs is _SKIP:
                report.skipped += 1
            elif lhs != rhs:
                yield (
                    f"associativity fails for g={g}, args={[str(f) for f in fs]}, "
                    f"inner={[str(h) for h in hs]} at ({view.elements[c]!r}, "
                    f"{decode(xs)!r}, {decode(ys)!r}): "
                    f"{view.elements[lhs]!r} != {view.elements[rhs]!r}"
                )
            else:
                yield None


def _morphisms_within(cap):
    for mor in _all_morphisms(cap):
        if mor.source.arity >= 1 and mor.target.arity >= 1:
            yield mor


# Per basepoint of the extended index set: the message words, which outer
# maps psi the diagram covers, the filler of a slot sent to the basepoint,
# and the map re-indexing the slot composite onto the target composite.
_OUTER_DIAGRAMS = {
    0: (
        "collapse", "collation", lambda psi: E not in psi.images,
        zero_poly(0), lambda operad: operad.zero_element(0), argument_collation,
    ),
    E: (
        "singular", "tilde", lambda psi: psi.is_singular and 0 not in psi.images,
        unit_poly(), lambda operad: operad.unit_element(), psi_tilde,
    ),
}


def _check_outer_equivariance(view, cap, report, basepoint):
    """Outer action by psi; slots psi sends to the basepoint take its filler.
    One block per (mor, fs): every c over the source, then every xs."""
    name, _, covers, filler_poly, filler, _ = _OUTER_DIAGRAMS[basepoint]
    filler_id = view.intern(filler(view.operad))
    plan = _check_plan(cap)
    for mor in _morphisms_within(cap):
        if not covers(mor.map):
            continue
        psi = mor.map
        moved_table = view.act_table(mor)
        source = view.component[mor.source]
        # per slot, the argument index it reads, or None for the filler
        picks = [None if v == basepoint else v - 1 for v in psi.images]
        # the slot key (c, *slot args), read off the tuple (c, *xs, filler)
        slot_key = operator.itemgetter(
            0, *[mor.target.arity + 1 if i is None else i + 1 for i in picks]
        )
        for fs, chi_mor in zip(plan.argument_tuples(mor.target.arity), plan.outer[basepoint, mor]):
            if chi_mor is None:
                continue
            if isinstance(chi_mor, str):
                yield chi_mor
                continue
            tables = (
                moved_table,
                view.gamma_table(mor.target, fs),
                view.gamma_table(mor.source, [filler_poly if i is None else fs[i] for i in picks]),
                view.act_table(chi_mor),
            )
            pools = [view.component[f] for f in fs]
            size = len(source) * math.prod(map(len, pools))
            if _holds_whole(size, _outer_sides, source, pools, slot_key, filler_id, *tables):
                yield size
            else:
                yield from _outer_instances(
                    view, report, (name, psi, mor.source, fs),
                    source, pools, slot_key, filler_id, *tables,
                )


def _outer_sides(
    source, pools, slot_key, filler_id, moved_table, lhs_table, slot_table, chi_table
):
    """gamma(psi c; xs) against chi acting on gamma(c; slot args)."""
    moved = map(moved_table.__getitem__, source)
    lhs = list(map(lhs_table.__getitem__, itertools.product(moved, *pools)))
    if _SKIP in lhs:
        return None
    keys = map(slot_key, itertools.product(source, *pools, (filler_id,)))
    slots = list(map(slot_table.__getitem__, keys))
    if _SKIP in slots:
        return None
    return lhs, list(map(chi_table.__getitem__, slots))


def _outer_instances(
    view, report, where, source, pools, slot_key, filler_id,
    moved_table, lhs_table, slot_table, chi_table,
):
    """The block one instance at a time, as the block contract replays it."""
    name, psi, source_poly, fs = where
    for c in source:
        moved = moved_table[c]
        for xs in itertools.product(*pools):
            lhs = lhs_table[(moved, *xs)]
            slot = _SKIP if lhs is _SKIP else slot_table[slot_key((c, *xs, filler_id))]
            if slot is _SKIP:
                report.skipped += 1
                continue
            yield None if lhs == chi_table[slot] else (
                f"{name} equivariance fails for {psi} on {source_poly} "
                f"with args {[str(f) for f in fs]} at "
                f"{view.elements[c]!r}, {view.decode(xs)!r}"
            )


def _check_equivariance_arguments(view, cap, report):
    """Acting on the arguments commutes with composing along the block sum.
    One block per (g, mors): every c over g, then every xs."""
    plan = _check_plan(cap)
    for k in range(1, cap + 1):
        for g in enumerate_R(k):
            g_elts = view.component[g]
            for src, tgt in itertools.product(_arity_tuples(k, cap), repeat=2):
                pools = plan.argument_pools(src, tgt)
                for mors, bmor in zip(itertools.product(*pools), plan.arguments[g, src, tgt]):
                    if isinstance(bmor, str):
                        yield bmor
                        continue
                    fs = [m.source for m in mors]
                    hs = [m.target for m in mors]
                    tables = (
                        view.gamma_table(g, fs),
                        view.act_table(bmor),
                        view.gamma_table(g, hs),
                        [view.act_table(m) for m in mors],
                    )
                    elt_pools = [view.component[f] for f in fs]
                    size = len(g_elts) * math.prod(map(len, elt_pools))
                    if _holds_whole(size, _argument_sides, g_elts, elt_pools, *tables):
                        yield size
                    else:
                        yield from _argument_instances(
                            view, report, (g, mors), g_elts, elt_pools, *tables
                        )


def _argument_sides(g_elts, elt_pools, source_table, block_act, target_table, arg_acts):
    """The block sum acting on gamma(c; xs) against gamma(c; acted xs)."""
    composed = list(map(source_table.__getitem__, itertools.product(g_elts, *elt_pools)))
    if _SKIP in composed:
        return None
    moved = [list(map(act.__getitem__, pool)) for act, pool in zip(arg_acts, elt_pools)]
    return (
        list(map(block_act.__getitem__, composed)),
        list(map(target_table.__getitem__, itertools.product(g_elts, *moved))),
    )


def _argument_instances(
    view, report, where, g_elts, elt_pools, source_table, block_act, target_table, arg_acts
):
    """The block one instance at a time, as the block contract replays it."""
    g, mors = where
    for c in g_elts:
        for xs in itertools.product(*elt_pools):
            composed = source_table[(c, *xs)]
            if composed is _SKIP:
                report.skipped += 1
                continue
            lhs = block_act[composed]
            rhs = target_table[(c, *[act[x] for act, x in zip(arg_acts, xs)])]
            if rhs is _SKIP:
                report.skipped += 1
            elif lhs != rhs:
                yield (
                    f"argument equivariance fails for g={g}, "
                    f"maps={[str(m.map) for m in mors]} at "
                    f"{view.elements[c]!r}, {view.decode(xs)!r}"
                )
            else:
                yield None


# ---------------------------------------------------------------------------
# Set-level E-infinity conditions


@dataclass
class EinftyReport:
    """Per-condition outcome of the set-level E-infinity checks."""

    operad: str
    cap: int
    conditions: dict[int, tuple[str, str]]

    @property
    def ok(self) -> bool:
        return all(
            status in ("pass", "not-applicable")
            for status, _ in self.conditions.values()
        )

    def lines(self) -> list[str]:
        return [
            f"condition ({num}): {status}" + (f" -- {detail}" if detail else "")
            for num, (status, detail) in sorted(self.conditions.items())
        ]


def check_einfty_set(
    operad: DiscreteRingOperad, cap: int = 2, budget: Union[Budget, None] = None
) -> EinftyReport:
    """Set-level readings of the E-infinity conditions within the cap.

    (1) contractibility is topological and reported as not-applicable;
    (2) injective index maps act bijectively; (3) coincidences over a common
    effective image lift to a shared non-degenerate cover; (4) effective
    actions on non-degenerate sources are free; (5) non-degenerate-class
    actions are injective.
    """
    _check_cap(cap)
    budget = budget or Budget()
    view = _Interned(operad)
    conditions: dict[int, tuple[str, str]] = {
        1: ("not-applicable", "contractibility is out of scope at the set level")
    }
    for num, condition in (
        (2, _einfty_condition2),
        (3, _einfty_condition3),
        (4, _einfty_condition4),
        (5, _einfty_condition5),
    ):
        _, violation = _run(condition(view, cap), budget)
        conditions[num] = ("pass", "") if violation is None else ("fail", violation)
    return EinftyReport(operad.name, cap, conditions)


def _einfty_condition2(view, cap):
    for mor in _all_morphisms(cap):
        if not mor.map.is_injective_setmap:
            continue
        source = view.component[mor.source]
        act = view.act_table(mor)
        images = {act[x] for x in source}
        target = view.members[mor.target]
        yield None if len(images) == len(source) and images == target else (
            f"action along {mor.map} from {mor.source} is not a bijection"
        )


def _nondegenerate_objects(cap):
    return [
        f for n in range(cap + 1) for f in enumerate_R(n) if is_nondegenerate(f)
    ]


def _einfty_condition3(view, cap):
    elements = view.elements
    objects = _nondegenerate_objects(cap)
    for g in objects:
        arrows: list[tuple[RPoly, RMorphism]] = []
        for f in objects:
            for mor in enumerate_hom(f, g, "effective"):
                arrows.append((f, mor))
        for (f1, m1), (f2, m2) in itertools.product(arrows, repeat=2):
            act1, act2 = view.act_table(m1), view.act_table(m2)
            for a1 in view.component[f1]:
                for a2 in view.component[f2]:
                    coincide = act1[a1] == act2[a2]
                    yield None if not coincide or _has_common_cover(view, f1, a1, f2, a2) else (
                        f"no non-degenerate cover for {elements[a1]!r} over {f1} and "
                        f"{elements[a2]!r} over {f2} coinciding in {g}"
                    )


def _has_common_cover(view, f1, a1, f2, a2):
    if type_of(f1) != type_of(f2):
        return False
    special = special_of_type(type_of(f1))
    if special.arity > ENUMERATION_CAP:
        raise ArityCapExceeded(
            f"cover search bound {special.arity} exceeds the enumeration cap"
        )
    for arity in range(max(f1.arity, f2.arity), special.arity + 1):
        for h in component_objects(f1, arity):
            homs1 = enumerate_hom(h, f1, "nondegenerate")
            homs2 = enumerate_hom(h, f2, "nondegenerate")
            if not homs1 or not homs2:
                continue
            acts1 = [view.act_table(psi1) for psi1 in homs1]
            acts2 = [view.act_table(psi2) for psi2 in homs2]
            for beta in view.component[h]:
                for act1 in acts1:
                    if act1[beta] != a1:
                        continue
                    for act2 in acts2:
                        if act2[beta] == a2:
                            return True
    return False


def _einfty_condition4(view, cap):
    elements = view.elements
    objects = _nondegenerate_objects(cap)
    for f in objects:
        for n in range(cap + 1):
            for g in enumerate_R(n):
                homs = enumerate_hom(f, g, "effective")
                for m1, m2 in itertools.combinations(homs, 2):
                    act1, act2 = view.act_table(m1), view.act_table(m2)
                    for alpha in view.component[f]:
                        yield None if act1[alpha] != act2[alpha] else (
                            f"distinct effective maps {m1.map} and {m2.map} from "
                            f"{f} to {g} agree on {elements[alpha]!r}"
                        )


def _einfty_condition5(view, cap):
    objects = _nondegenerate_objects(cap)
    for f in objects:
        for g in objects:
            for mor in enumerate_hom(f, g, "nondegenerate"):
                elts = view.component[f]
                act = view.act_table(mor)
                images = {act[x] for x in elts}
                yield None if len(images) == len(elts) else (
                    f"action along {mor.map} from {f} to {g} is not injective"
                )


def compute_L(
    operad: DiscreteRingOperad, f: RPoly, level: int
) -> dict[RPoly, frozenset]:
    """Saturation subsets: elements hit from strictly higher filtration levels.

    For each non-degenerate g of arity exactly `level` in the component of the
    special f, collects the subset of the component of g reachable by the
    action along a non-degenerate-class morphism from an object of arity
    >= level + 1 in the same component.
    """
    if not is_special(f):
        raise RingopsError(f"{f} is not special")
    out: dict[RPoly, set] = {g: set() for g in component_objects(f, level)}
    sources: list[RPoly] = []
    for arity in range(level + 1, f.arity + 1):
        sources.extend(component_objects(f, arity))
    for g, bucket in out.items():
        for h in sources:
            for mor in enumerate_hom(h, g, "nondegenerate"):
                for beta in operad.component(h):
                    bucket.add(operad.act(mor, beta))
    return {g: frozenset(bucket) for g, bucket in out.items()}


# ---------------------------------------------------------------------------
# Discrete algebras


@dataclass(frozen=True)
class DiscreteAlgebra:
    """A finite carrier with zero and unit points and an evaluation map.

    theta(f, c, xs) evaluates the operator c of the component over f at the
    carrier tuple xs (one entry per variable of f).  Like act and gamma,
    theta must be a function: `validate_algebra` evaluates it once per
    (f, c, xs) and checks a block of tuples at a time, so a theta that
    raises does so before its block is ticked against the budget.
    """

    carrier: tuple
    zero: object
    e: object
    theta: Callable[[RPoly, object, tuple], object]


def eval_rpoly_bool(f: RPoly, bits: Sequence[int]) -> int:
    """Evaluate f in the two-element rig with OR as sum and AND as product:
    1 iff every variable of some monomial is 1."""
    ones = 0
    for i, bit in enumerate(bits):
        ones |= bit << i
    for mask in f.masks:
        if mask & ones == mask:
            return 1
    return 0


def boolean_rig_algebra() -> DiscreteAlgebra:
    """The two-point rig {0, 1}; a strict rig object, hence a strict algebra."""
    return DiscreteAlgebra(
        carrier=(0, 1),
        zero=0,
        e=1,
        theta=lambda f, _elt, xs: eval_rpoly_bool(f, xs),
    )


def one_point_algebra() -> DiscreteAlgebra:
    return DiscreteAlgebra(
        carrier=("p",), zero="p", e="p", theta=lambda f, _elt, xs: "p"
    )


def validate_algebra(
    operad: DiscreteRingOperad,
    algebra: DiscreteAlgebra,
    cap: int = 2,
    budget: Union[Budget, None] = None,
) -> CheckReport:
    """Exhaustively check the algebra diagrams within the arity cap."""
    _check_cap(cap)
    report = CheckReport(f"algebra over {operad.name}@cap{cap}", True, 0, 0, None)
    view = _Interned(operad)
    thetas = _Thetas(view, algebra)
    return _check_sections(report, budget or Budget(), (
        ("unit", _algebra_unit(view, algebra)),
        ("associativity", _algebra_associativity(view, algebra, cap, report, thetas)),
        ("equivariance", _algebra_equivariance(view, algebra, cap, thetas)),
    ))


class _Thetas:
    """theta over one run's element ids, memoised three ways:
    - `at[g, c]` maps one carrier tuple to theta(g, c, tuple);
    - theta rows are interned by the view's `row`, and `row(f, x)` reads
      back the tuple of theta(f, x, v) over the carrier tuples v in product
      order: `ids[f]` maps x to its id, and `over[g, c]` maps a tuple of
      row ids to the id of the row of theta(g, c, ·) over the product of
      those rows.  `over` is the caller's to clear; the associativity
      clears it after each g."""

    def __init__(self, view, algebra):
        elements, theta, carrier, row = view.elements, algebra.theta, algebra.carrier, view.row
        rows = self.rows = view.rows
        self.at = at = _Tables(partial(_Table, lambda gc, v: theta(gc[0], elements[gc[1]], v)))
        self.ids = _Tables(partial(_Table, lambda f, x: row(at[f, x], (carrier,) * f.arity)))
        self.over = _Tables(partial(
            _Table, lambda gc, rids: row(at[gc], map(rows.__getitem__, rids))
        ))

    def row(self, f, x) -> tuple:
        return self.rows[self.ids[f][x]]


def _block_verdicts(lhs, rhs, message):
    """The verdicts of a block whose sides are aligned tuples: its size when
    they agree, else the count before the first difference i and message(i)."""
    if lhs == rhs:
        yield len(lhs)
        return
    i = next(i for i, pair in enumerate(zip(lhs, rhs)) if pair[0] != pair[1])
    yield i
    yield message(i)


def _algebra_unit(view, algebra):
    unit = unit_poly()
    eta = view.operad.unit_element()
    for x in algebra.carrier:
        got = algebra.theta(unit, eta, (x,))
        yield None if got == x else f"theta(unit)({x!r}) != {x!r}"


def _algebra_associativity(view, algebra, cap, report, thetas):
    """One block per (g, arity tuple) of the plan: theta of each composite
    (c, xs, composed) against theta of g at the inner values, replayed one
    composite at a time unless it holds whole.

    A block is settled on theta-row ids in one pass with c outermost: for each
    c, the left side holds the id of theta(composite, composed) per
    (composite, xs), and the right side the id of theta(g, c, ·) over the
    product of the argument rows, read from `over[g, c]`, which is cleared
    after each g.  Both sides list (fs, xs) in plan order, and a block holds
    len(lhs) · |carrier|^total instances.  The argument keys that gamma and
    `over[g, c]` read depend on the arity tuple only, so reusing them is
    exact: `_argument_keys` builds each once per run, one k at a time."""
    row, at = thetas.row, thetas.at
    keys = _Table(partial(_argument_keys, view, thetas), 0)
    for g, blocks in itertools.groupby(_check_plan(cap).blocks(), key=operator.itemgetter(0)):
        keys = keys if keys.shape == g.arity else _Table(keys.row, g.arity)
        for _, arities, shapes in blocks:
            built = _whole_sides(_algebra_sides, view, g, shapes, thetas, keys, arities)
            if built is not None and built[0] == built[1]:
                yield len(built[0]) * len(algebra.carrier) ** sum(arities)
                continue
            for fs, composite in shapes:
                gamma = partial(view.gamma_row, (g, fs))
                for c, xs, composed in _composites(view, g, fs, report, gamma):
                    lhs = row(composite, composed)
                    rhs = tuple(map(at[g, c].__getitem__, itertools.product(*map(row, fs, xs))))
                    yield from _block_verdicts(lhs, rhs, lambda i: (
                        f"g={g}, args={[str(f) for f in fs]}, xs={_nth_tuple(algebra, composite, i)!r}: "
                        f"{lhs[i]!r} != {rhs[i]!r}"
                    ))
        thetas.over.clear()


def _argument_keys(view, thetas, _, arities):
    """The argument keys of one arity tuple, flat over its shapes in plan
    order: each shape's count of element tuples, the tuples of (f, element)
    pairs gamma is called on, and the tuples of theta-row ids `over` reads."""
    polys = [enumerate_R(j) for j in arities]
    pairs = [[tuple((f, view.elements[x]) for x in view.component[f]) for f in fs] for fs in polys]
    rids = [[tuple(map(thetas.ids[f].__getitem__, view.component[f])) for f in fs] for fs in polys]
    counts = [math.prod(map(len, shape)) for shape in itertools.product(*rids)]
    return counts, *(list(itertools.chain.from_iterable(
        itertools.starmap(itertools.product, itertools.product(*pools))
    )) for pools in (pairs, rids))


def _algebra_sides(view, g, shapes, thetas, keys, arities):
    """Both sides of one block as lists of theta-row ids, c outermost; None
    at a `_SKIP`.  The keys depend on the arity tuple only, so every g and c
    reuses them exactly.  The argument blocks are contiguous, so the product
    of the argument rows runs in the order of product(carrier, repeat=total)."""
    counts, pairs, rids = keys[arities]
    tables = [thetas.ids[composite] for _, composite in shapes]
    tables = list(itertools.chain.from_iterable(map(itertools.repeat, tables, counts)))
    lhs, rhs = [], []
    for c in view.component[g]:
        composed = list(map(partial(view.gamma_id, g, view.elements[c]), pairs))
        if _SKIP in composed:
            return None
        lhs += map(operator.getitem, tables, composed)
        rhs += map(thetas.over[g, c].__getitem__, rids)
    return lhs, rhs


def _nth_tuple(algebra, f, i):
    """The i-th carrier tuple over f's variables, in product order."""
    return next(itertools.islice(itertools.product(algebra.carrier, repeat=f.arity), i, None))


def _algebra_equivariance(view, algebra, cap, thetas):
    """One block per (mor, c): theta of the moved operator against theta of c
    at each pulled-back tuple.  The pulled-back tuples depend only on the map,
    and many morphisms share one (11,806 morphisms over 296 maps at cap 3)."""
    row, at = thetas.row, thetas.at
    fillers = {0: algebra.zero, E: algebra.e}
    pulled_by_map = _Table(lambda _, phi: [
        tuple(fillers[v] if v in fillers else xs[v - 1] for v in phi.images)
        for xs in itertools.product(algebra.carrier, repeat=phi.target_size)
    ])
    for mor in _all_morphisms(cap):
        act = view.act_table(mor)
        pulled = pulled_by_map[mor.map]
        for c in view.component[mor.source]:
            lhs = row(mor.target, act[c])
            rhs = tuple(map(at[mor.source, c].__getitem__, pulled))
            if lhs == rhs:
                yield len(lhs)
                continue
            yield from _block_verdicts(lhs, rhs, lambda i: (
                f"map {mor.map} from {mor.source}: {lhs[i]!r} != {rhs[i]!r}"
            ))
