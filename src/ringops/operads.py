"""Discrete ring operads, their axiom checker, and set-level E-infinity tests.

A discrete ring operad assigns a finite component to every RPoly, acts along
validated index-category morphisms, carries a unit in the component of x1,
and composes along polynomial composition.  The checkers instantiate the
defining diagrams exhaustively within an arity cap, counting instances and
aborting at a configurable budget.

Every check is a section: a generator that yields one verdict per instance,
None when the instance holds and a violation message when it does not.
`_run` owns the loop: it ticks the budget once per verdict and stops at the
first violation; `_check_sections` runs named sections into a CheckReport.
A section counts the instances it cannot build (a missing gamma row) in the
report's `skipped` and yields nothing for them.

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
  row, so rows fill in the order the sections first need them and a failing
  row raises at the same instance as calling the operad directly would;
- a missing gamma row (GammaUndefined) is stored as `_SKIP`, and an instance
  stops at its first `_SKIP`, evaluating none of its later gammas;
- violation messages decode ids back to elements, so they name the elements
  exactly as the operad does.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
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
    _substitute,
    compose,
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
        self.limit = limit
        self.used = 0

    def tick(self, count: int = 1):
        self.used += count
        if self.used > self.limit:
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

    Element names must be unique across the whole table.  Missing gamma rows
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
    polys = [f for n in range(cap + 1) for f in enumerate_R(n)]
    naming: dict[tuple[RPoly, object], str] = {}
    components: dict[RPoly, list[str]] = {}
    for f in polys:
        elts = operad.component(f)
        components[f] = []
        for idx, elt in enumerate(elts):
            label = f"e{len(naming)}"
            naming[(f, elt)] = label
            components[f].append(label)
    unit = naming[(unit_poly(), operad.unit_element())]
    action_rows = {}
    for mor in _all_morphisms(cap):
        for elt in operad.component(mor.source):
            key = (mor.source, mor.map.images, mor.target, naming[(mor.source, elt)])
            action_rows[key] = naming[(mor.target, operad.act(mor, elt))]
    gamma_rows = {}
    for g, arg_polys in _composition_shapes(cap):
        if not arg_polys:
            continue
        target = compose(g, arg_polys)
        for g_elt in operad.component(g):
            pools = [operad.component(f) for f in arg_polys]
            for xs in itertools.product(*pools):
                result = operad.gamma(g, g_elt, list(zip(arg_polys, xs)))
                key = (naming[(g, g_elt)], tuple(naming[(f, x)] for f, x in zip(arg_polys, xs)))
                gamma_rows[key] = naming[(target, result)]
    return TableRingOperad(
        components, unit, gamma_rows, action_rows, name=name or f"table[{operad.name}]"
    )


# ---------------------------------------------------------------------------
# Shape and morphism enumeration helpers


def _arity_tuples(k: int, total_cap: int) -> Iterator[tuple[int, ...]]:
    """All k-tuples of non-negative arities with sum <= total_cap."""
    if k == 0:
        yield ()
        return
    for head in range(total_cap + 1):
        for rest in _arity_tuples(k - 1, total_cap - head):
            yield (head,) + rest


def _poly_tuples(k: int, total_cap: int) -> Iterator[tuple[RPoly, ...]]:
    for arities in _arity_tuples(k, total_cap):
        pools = [enumerate_R(j) for j in arities]
        yield from itertools.product(*pools)


def _composition_shapes(cap: int) -> Iterator[tuple[RPoly, tuple[RPoly, ...]]]:
    """Pairs (g, args) with |g| in 1..cap and total argument arity <= cap."""
    for k in range(1, cap + 1):
        for g in enumerate_R(k):
            for args in _poly_tuples(k, cap):
                yield g, args


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


@lru_cache(maxsize=8)
def _all_morphisms(cap: int) -> tuple[RMorphism, ...]:
    out = []
    for m in range(cap + 1):
        for f in enumerate_R(m):
            for n in range(cap + 1):
                for phi in _all_maps(m, n):
                    g = _substitute(phi.images, n, f)
                    if g is not None:
                        out.append(RMorphism(f, phi, g))
    return tuple(out)


# ---------------------------------------------------------------------------
# The interned view every checker section reads

_SKIP = object()  # the gamma-table entry of a missing gamma row
# Tables kept per kind: every table of a cap-2 run (223 gamma, 160 act) fits,
# and a cap-3 run, with 70,750 composition shapes, stays in bounded memory.
_TABLES_KEPT = 4096


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
    """One `_Table` of `row` per shape or morphism, made on first fetch; all
    are dropped once `_TABLES_KEPT` are held and another is needed."""

    __slots__ = ("row",)

    def __init__(self, row):
        super().__init__()
        self.row = row

    def __missing__(self, shape):
        if len(self) >= _TABLES_KEPT:
            self.clear()
        table = self[shape] = _Table(self.row, shape)
        return table


class _Interned:
    """Element ids, components as id tuples, and lazy int tables for act and
    gamma over one operad; the module docstring states the contract."""

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

        def gamma_row(shape, key):
            g, fs = shape
            args = [(f, elements[x]) for f, x in zip(fs, key[1:])]
            try:
                return intern(operad.gamma(g, elements[key[0]], args))
            except GammaUndefined:
                return _SKIP

        def act_row(mor, x):
            return intern(operad.act(mor, elements[x]))

        # The rows close over these locals, never over self, so a dropped
        # view is freed at once rather than by the cycle collector.
        self.operad = operad
        self.elements = elements
        self.intern = intern
        self.component = components = _Table(component_row)
        self.members = _Table(lambda _, f: frozenset(components[f]))
        self._gamma = _Tables(gamma_row)
        self._act = _Tables(act_row)

    def gamma_table(self, g: RPoly, fs: Sequence[RPoly]) -> dict:
        return self._gamma[g, tuple(fs)]

    def act_table(self, mor: RMorphism) -> dict:
        return self._act[mor]

    def decode(self, xs: Sequence[int]) -> tuple:
        return tuple(self.elements[x] for x in xs)


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


_Verdicts = Iterator[Union[str, None]]


def _run(instances: _Verdicts, budget: Budget) -> tuple[int, Union[str, None]]:
    """Tick the budget once per verdict; stop at the first violation."""
    count = 0
    for verdict in instances:
        budget.tick()
        count += 1
        if verdict is not None:
            return count, verdict
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
    morphisms = _all_morphisms(cap)
    by_source: dict[RPoly, list[tuple[RMorphism, dict]]] = {}
    for mor in morphisms:
        by_source.setdefault(mor.source, []).append((mor, view.act_table(mor)))
    for f in dict.fromkeys(m.source for m in morphisms):
        ident = view.act_table(validate(f, ExtMap.identity(f.arity), f))
        for x in view.component[f]:
            yield None if ident[x] == x else (
                f"identity action moved {elements[x]!r} over {f}"
            )
    for first in morphisms:
        act_first = view.act_table(first)
        middle = view.members[first.target]
        for second, act_second in by_source.get(first.target, ()):
            combined = first.then(second)
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


def _composites(view, g, fs, report):
    """Each (c, xs, gamma) id triple over g and fs; missing rows are skipped."""
    table = view.gamma_table(g, fs)
    for c in view.component[g]:
        for xs in itertools.product(*(view.component[f] for f in fs)):
            composed = table[(c, *xs)]
            if composed is _SKIP:
                report.skipped += 1
                continue
            yield c, xs, composed


def _check_associativity(view, cap, report):
    decode = view.decode
    for g, fs in _composition_shapes(cap):
        composite = compose(g, fs)
        blocks, total = _blocks(fs)
        tops = list(_composites(view, g, fs, report))
        for hs in _poly_tuples(total, cap):
            inner_targets = [
                compose(fs[s], hs[a:b]) if b > a else fs[s]
                for s, (a, b) in enumerate(blocks)
            ]
            lhs_table = view.gamma_table(composite, hs)
            nested_tables = [
                (view.gamma_table(fs[s], hs[a:b]), a, b)
                for s, (a, b) in enumerate(blocks)
            ]
            rhs_table = view.gamma_table(g, inner_targets)
            h_pools = [view.component[h] for h in hs]
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
    """Outer action by psi; slots psi sends to the basepoint take its filler."""
    name, map_name, covers, filler_poly, filler, reindex = _OUTER_DIAGRAMS[basepoint]
    filler_id = view.intern(filler(view.operad))
    for mor in _morphisms_within(cap):
        psi = mor.map
        if not covers(psi):
            continue
        moved_table = view.act_table(mor)
        # per slot, the argument index it reads, or None for the filler
        picks = [None if v == basepoint else v - 1 for v in psi.images]
        for fs in _poly_tuples(mor.target.arity, cap):
            slot_polys = [filler_poly if i is None else fs[i] for i in picks]
            if sum(p.arity for p in slot_polys) > cap:
                continue
            chi = reindex(psi, [f.arity for f in fs])
            source_comp = compose(mor.source, slot_polys)
            target_comp = compose(mor.target, fs)
            try:
                chi_mor = validate(source_comp, chi, target_comp)
            except (NotAMorphism, ArityMismatch):
                yield f"{map_name} map invalid for {psi} with args {[str(f) for f in fs]}"
                continue
            lhs_table = view.gamma_table(mor.target, fs)
            slot_table = view.gamma_table(mor.source, slot_polys)
            chi_table = view.act_table(chi_mor)
            pools = [view.component[f] for f in fs]
            for c in view.component[mor.source]:
                moved = moved_table[c]
                for xs in itertools.product(*pools):
                    lhs = lhs_table[(moved, *xs)]
                    slot = _SKIP if lhs is _SKIP else slot_table[
                        (c, *[filler_id if i is None else xs[i] for i in picks])
                    ]
                    if slot is _SKIP:
                        report.skipped += 1
                        continue
                    yield None if lhs == chi_table[slot] else (
                        f"{name} equivariance fails for {psi} on {mor.source} "
                        f"with args {[str(f) for f in fs]} at "
                        f"{view.elements[c]!r}, {view.decode(xs)!r}"
                    )


def _check_equivariance_arguments(view, cap, report):
    """Acting on the arguments commutes with composing along the block sum."""
    morphisms = _all_morphisms(cap)
    by_shape: dict[tuple[int, int], list[RMorphism]] = {}
    for mor in morphisms:
        by_shape.setdefault((mor.source.arity, mor.target.arity), []).append(mor)
    for k in range(1, cap + 1):
        for g in enumerate_R(k):
            for src_arities in _arity_tuples(k, cap):
                for tgt_arities in _arity_tuples(k, cap):
                    pools = [
                        by_shape.get((src_arities[s], tgt_arities[s]), [])
                        for s in range(k)
                    ]
                    for mors in itertools.product(*pools):
                        fs = [m.source for m in mors]
                        hs = [m.target for m in mors]
                        bsum = block_sum([m.map for m in mors])
                        comp_f = compose(g, fs)
                        comp_h = compose(g, hs)
                        try:
                            bmor = validate(comp_f, bsum, comp_h)
                        except (NotAMorphism, ArityMismatch):
                            yield (
                                f"block sum of {[str(m.map) for m in mors]} is not a "
                                f"morphism {comp_f} -> {comp_h}"
                            )
                            continue
                        source_table = view.gamma_table(g, fs)
                        target_table = view.gamma_table(g, hs)
                        block_act = view.act_table(bmor)
                        arg_acts = [view.act_table(m) for m in mors]
                        elt_pools = [view.component[f] for f in fs]
                        for c in view.component[g]:
                            for xs in itertools.product(*elt_pools):
                                composed = source_table[(c, *xs)]
                                if composed is _SKIP:
                                    report.skipped += 1
                                    continue
                                lhs = block_act[composed]
                                rhs = target_table[
                                    (c, *[act[x] for act, x in zip(arg_acts, xs)])
                                ]
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
                    yield None if not coincide or _has_common_cover(
                        view, f1, a1, m1, f2, a2, m2
                    ) else (
                        f"no non-degenerate cover for {elements[a1]!r} over {f1} and "
                        f"{elements[a2]!r} over {f2} coinciding in {g}"
                    )


def _has_common_cover(view, f1, a1, m1, f2, a2, m2):
    if type_of(f1) != type_of(f2):
        return False
    special = special_of_type(type_of(f1))
    if special.arity > 4:
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
    carrier tuple xs (one entry per variable of f).
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


# theta of the boolean rig, memoised on (f, xs): a cap-3 algebra check makes
# 2.8M evaluations of about a thousand distinct arguments.
_cached_eval_bool = lru_cache(maxsize=1 << 16)(eval_rpoly_bool)


def boolean_rig_algebra() -> DiscreteAlgebra:
    """The two-point rig {0, 1}; a strict rig object, hence a strict algebra."""
    return DiscreteAlgebra(
        carrier=(0, 1),
        zero=0,
        e=1,
        theta=lambda f, _elt, xs: _cached_eval_bool(f, xs),
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
    return _check_sections(report, budget or Budget(), (
        ("unit", _algebra_unit(view, algebra)),
        ("associativity", _algebra_associativity(view, algebra, cap, report)),
        ("equivariance", _algebra_equivariance(view, algebra, cap)),
    ))


def _algebra_unit(view, algebra):
    unit = unit_poly()
    eta = view.operad.unit_element()
    for x in algebra.carrier:
        got = algebra.theta(unit, eta, (x,))
        yield None if got == x else f"theta(unit)({x!r}) != {x!r}"


def _algebra_associativity(view, algebra, cap, report):
    elements, theta = view.elements, algebra.theta
    for g, fs in _composition_shapes(cap):
        composite = compose(g, fs)
        blocks, total = _blocks(fs)
        for c, xs, composed in _composites(view, g, fs, report):
            g_elt, top = elements[c], elements[composed]
            slots = [(f, elements[x], a, b) for f, x, (a, b) in zip(fs, xs, blocks)]
            for values in itertools.product(algebra.carrier, repeat=total):
                lhs = theta(composite, top, values)
                inner = tuple([theta(f, elt, values[a:b]) for f, elt, a, b in slots])
                rhs = theta(g, g_elt, inner)
                yield None if lhs == rhs else (
                    f"g={g}, args={[str(f) for f in fs]}, xs={values!r}: {lhs!r} != {rhs!r}"
                )


def _algebra_equivariance(view, algebra, cap):
    elements = view.elements
    fillers = {0: algebra.zero, E: algebra.e}
    for mor in _all_morphisms(cap):
        act = view.act_table(mor)
        for c in view.component[mor.source]:
            moved = act[c]
            for xs in itertools.product(algebra.carrier, repeat=mor.target.arity):
                pulled = tuple(
                    fillers[v] if v in fillers else xs[v - 1] for v in mor.map.images
                )
                lhs = algebra.theta(mor.target, elements[moved], xs)
                rhs = algebra.theta(mor.source, elements[c], pulled)
                yield None if lhs == rhs else (
                    f"map {mor.map} from {mor.source}: {lhs!r} != {rhs!r}"
                )
