"""The wreath category of based finite sets and its polynomial assignment.

Objects are tuples (n, s_1..s_n); a morphism carries a based map phi of outer
index sets together with one based map d_j per target slot, defined on the
smash product of the source slots over j (the empty smash product is the
two-point set).  Each morphism induces a family of polynomials indexed by
target coordinates, and composition of morphisms matches polynomial
composition followed by a block-folding re-indexing.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .errors import ArityMismatch, NotInR, PreconditionViolation
from .indexcat import E, ExtMap, validate
from .operads import DiscreteRingOperad, DiscreteAlgebra
from .polynomials import (
    IntPoly,
    RPoly,
    UNIT,
    _block_offsets,
    _expand,
    _image_key,
    compose,
    rpoly,
    to_rpoly,
    unit_poly,
    zero_poly,
)

Assignment = dict[tuple[int, int], Union[RPoly, object]]


@dataclass(frozen=True)
class FFObject:
    """An object (n, S): an outer length with one inner size per slot."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if any(s < 0 for s in self.sizes):
            raise ArityMismatch("inner sizes must be non-negative")

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def offset(self, i: int) -> int:
        return _block_offsets(self.sizes)[0][i - 1]

    def __str__(self):
        return f"({self.n}:[{','.join(str(s) for s in self.sizes)}])"


@dataclass(frozen=True)
class FFMorphism:
    """A based outer map with smash-indexed component maps.

    phi[i-1] in 0..n is the image of source slot i.  ds[j-1] is the component
    map into target slot j, stored as sorted rows (key tuple, value), where a
    key lists one coordinate per source slot in the fiber of j (ascending)
    and a value 0 records the basepoint.
    """

    source: FFObject
    target: FFObject
    phi: tuple[int, ...]
    ds: tuple[tuple[tuple[tuple[int, ...], int], ...], ...]

    def __post_init__(self):
        if len(self.phi) != self.source.n:
            raise ArityMismatch("phi length differs from source length")
        if any(not 0 <= v <= self.target.n for v in self.phi):
            raise ArityMismatch("phi image out of range")
        if len(self.ds) != self.target.n:
            raise ArityMismatch("one component map per target slot is required")
        for j in range(1, self.target.n + 1):
            fiber = self.fiber(j)
            expected = set(
                itertools.product(*[range(1, self.source.sizes[i - 1] + 1) for i in fiber])
            )
            rows = dict(self.ds[j - 1])
            if set(rows) != expected:
                raise ArityMismatch(
                    f"component map {j} must cover exactly the smash tuples"
                )
            if any(not 0 <= v <= self.target.sizes[j - 1] for v in rows.values()):
                raise ArityMismatch(f"component map {j} has a value out of range")

    @staticmethod
    def make(
        source: FFObject,
        target: FFObject,
        phi: Sequence[int],
        ds: Sequence[dict[tuple[int, ...], int]],
    ) -> "FFMorphism":
        packed = tuple(tuple(sorted(d.items())) for d in ds)
        return FFMorphism(source, target, tuple(phi), packed)

    def fiber(self, j: int) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.source.n + 1) if self.phi[i - 1] == j)

    def d(self, j: int) -> dict[tuple[int, ...], int]:
        return dict(self.ds[j - 1])

    def coordinates(self) -> Iterator[tuple[int, int]]:
        """All target coordinates (h, j), h inside slot j."""
        for j in range(1, self.target.n + 1):
            for h in range(1, self.target.sizes[j - 1] + 1):
                yield (h, j)


def identity_ff(obj: FFObject) -> FFMorphism:
    ds = []
    for j in range(1, obj.n + 1):
        ds.append({(k,): k for k in range(1, obj.sizes[j - 1] + 1)})
    return FFMorphism.make(obj, obj, tuple(range(1, obj.n + 1)), ds)


def ff_compose(outer: FFMorphism, inner: FFMorphism) -> FFMorphism:
    """Compose (outer o inner) with smash-product bookkeeping.

    The composite fiber over a target slot regroups by the outer fiber; a
    basepoint anywhere in an inner evaluation kills the whole tuple.
    """
    if inner.target != outer.source:
        raise ArityMismatch("inner target differs from outer source")
    phi = tuple(
        0 if v == 0 else outer.phi[v - 1] for v in inner.phi
    )
    composite_sizes = inner.source.sizes
    ds = []
    for j in range(1, outer.target.n + 1):
        fiber = tuple(
            i for i in range(1, inner.source.n + 1) if phi[i - 1] == j
        )
        outer_fiber = outer.fiber(j)
        rows = {}
        for key in itertools.product(
            *[range(1, composite_sizes[i - 1] + 1) for i in fiber]
        ):
            coords = dict(zip(fiber, key))
            middle = []
            dead = False
            for mid in outer_fiber:
                inner_fiber = inner.fiber(mid)
                sub = tuple(coords[i] for i in inner_fiber)
                value = inner.d(mid)[sub]
                if value == 0:
                    dead = True
                    break
                middle.append(value)
            rows[key] = 0 if dead else outer.d(j)[tuple(middle)]
        ds.append(rows)
    return FFMorphism.make(inner.source, outer.target, phi, ds)


def is_pi_wr_pi(mor: FFMorphism) -> bool:
    """True iff all non-basepoint fibers of phi and of every d_j have size <= 1."""
    for j in range(1, mor.target.n + 1):
        if len(mor.fiber(j)) > 1:
            return False
        values = [v for v in mor.d(j).values() if v != 0]
        if len(values) != len(set(values)):
            return False
    return True


def polynomial_assignment(mor: FFMorphism) -> Assignment:
    """The polynomial family indexed by target coordinates (h, j).

    Over a non-empty fiber the polynomial sums, over the tuples hitting h,
    the products of block-offset variables; over an empty fiber the value is
    the unit marker when the non-basepoint maps to h and the zero polynomial
    otherwise.  A duplicated monomial is reported as NotInR.
    """
    total = mor.source.total
    out: Assignment = {}
    for (h, j) in mor.coordinates():
        fiber = mor.fiber(j)
        rows = mor.d(j)
        if not fiber:
            out[(h, j)] = UNIT if rows[()] == h else zero_poly(total)
            continue
        supports = []
        for key, value in rows.items():
            if value != h:
                continue
            support = tuple(
                mor.source.offset(i) + k for i, k in zip(fiber, key)
            )
            supports.append(support)
        if len({tuple(sorted(s)) for s in supports}) != len(supports):
            raise NotInR(f"assignment for coordinate ({h},{j}) duplicates a monomial")
        out[(h, j)] = rpoly(total, supports)
    return out


def _middle_slot_order(mor: FFMorphism) -> list[tuple[int, int]]:
    """Coordinates of the source object in block-position order."""
    return [
        (h, j)
        for j in range(1, mor.source.n + 1)
        for h in range(1, mor.source.sizes[j - 1] + 1)
    ]


@dataclass(frozen=True)
class FoldedComposite:
    """One coordinate of a composite assignment, with its folding map."""

    expanded: IntPoly
    fold: ExtMap
    folded: Union[RPoly, object]


def fold_composite(
    outer_poly: Union[RPoly, object],
    inner_family: Sequence[Union[RPoly, object]],
    inner_total: int,
) -> FoldedComposite:
    """Expand an outer polynomial over replicated inner blocks, then fold.

    Every slot receives a full copy of the inner variable block; unit-marker
    slots substitute a fresh trailing variable each.  The folding map sends a
    replicated position to its residue inside the inner block and every
    trailing unit variable to e.
    """
    if outer_poly is UNIT:
        raise PreconditionViolation("unit outer coordinates fold to themselves")
    width = inner_total
    n = len(inner_family)
    markers = [idx for idx, g in enumerate(inner_family) if g is UNIT]
    big_arity = n * width + len(markers)
    trailing = {idx: n * width + rank for rank, idx in enumerate(markers, start=1)}
    slots = [
        [(trailing[idx],)] if g is UNIT
        else [tuple(v + idx * width for v in m.support) for m in g.monomials]
        for idx, g in enumerate(inner_family)
    ]
    keys = [key for _, _, key in _expand([m.support for m in outer_poly.monomials], slots)]
    fold = ExtMap(big_arity, width, tuple(list(range(1, width + 1)) * n + [E] * len(markers)))
    folded = Counter(_image_key(fold.images, key) for key in keys)
    folded.pop(None, None)
    folded_int = IntPoly.make(width, folded)
    acc = IntPoly.make(big_arity, Counter(keys))
    if folded_int.coeffs() == {(): 1}:
        return FoldedComposite(acc, fold, UNIT)
    return FoldedComposite(acc, fold, to_rpoly(folded_int))


@dataclass(frozen=True)
class FunctorialityReport:
    ok: bool
    details: dict[tuple[int, int], bool]
    composites: Assignment
    folds: dict[tuple[int, int], ExtMap]


def verify_assignment_functoriality(
    outer: FFMorphism, inner: FFMorphism
) -> FunctorialityReport:
    """Check that composing morphisms matches composing their polynomials.

    For each target coordinate the outer polynomial is expanded over the
    inner family with replicated blocks, folded, and compared against the
    assignment of the composed morphism.
    """
    if inner.target != outer.source:
        raise ArityMismatch("inner target differs from outer source")
    composed = ff_compose(outer, inner)
    direct = polynomial_assignment(composed)
    outer_assignment = polynomial_assignment(outer)
    inner_assignment = polynomial_assignment(inner)
    inner_family = [
        inner_assignment[coord] for coord in _middle_slot_order(outer)
    ]
    inner_total = inner.source.total
    details = {}
    folds = {}
    for coord, outer_poly in outer_assignment.items():
        expected = direct[coord]
        if outer_poly is UNIT:
            details[coord] = expected is UNIT
            continue
        folded = fold_composite(outer_poly, inner_family, inner_total)
        folds[coord] = folded.fold
        details[coord] = folded.folded == expected
    return FunctorialityReport(all(details.values()), details, direct, folds)


def tilde_compose(
    operad: DiscreteRingOperad,
    outer: FFMorphism,
    inner: FFMorphism,
    outer_elements: dict[tuple[int, int], object],
    inner_elements: dict[tuple[int, int], object],
) -> dict[tuple[int, int], object]:
    """Compose element families over the polynomial assignment.

    Unit-marker slots insert the operad unit, the operad composition runs
    across the inner family, and the result is pushed along the folding map
    onto the composite assignment.
    """
    composed = ff_compose(outer, inner)
    direct = polynomial_assignment(composed)
    outer_assignment = polynomial_assignment(outer)
    inner_assignment = polynomial_assignment(inner)
    slot_order = _middle_slot_order(outer)
    out: dict[tuple[int, int], object] = {}
    for coord, outer_poly in outer_assignment.items():
        target_poly = direct[coord]
        if outer_poly is UNIT or target_poly is UNIT:
            out[coord] = UNIT
            continue
        args = []
        for slot in slot_order:
            inner_poly = inner_assignment[slot]
            if inner_poly is UNIT:
                args.append((unit_poly(), operad.unit_element()))
            else:
                args.append((inner_poly, inner_elements[slot]))
        composite_poly = compose(outer_poly, [p for p, _ in args])
        composed_elt = operad.gamma(outer_poly, outer_elements[coord], args)
        fold = _operadic_fold(
            [inner_assignment[slot] for slot in slot_order], inner.source.total
        )
        mor = validate(composite_poly, fold, target_poly)
        out[coord] = operad.act(mor, composed_elt)
    return out


def _operadic_fold(inner_family, inner_total) -> ExtMap:
    """Folding map for block-composed polynomials: residues and unit slots."""
    images = []
    for g in inner_family:
        if g is UNIT:
            images.append(E)
        else:
            images.extend(range(1, inner_total + 1))
    return ExtMap(len(images), inner_total, tuple(images))


def nu_evaluate(
    operad: DiscreteRingOperad,
    algebra: DiscreteAlgebra,
    mor: FFMorphism,
    elements: dict[tuple[int, int], object],
    inputs: tuple,
) -> tuple:
    """Evaluate a wreath morphism on product carriers.

    inputs lists one carrier element per source coordinate in block order;
    output coordinate (h, j) evaluates its assigned operator, or is the
    algebra unit point for marker coordinates.
    """
    if len(inputs) != mor.source.total:
        raise ArityMismatch(
            f"expected {mor.source.total} inputs, got {len(inputs)}"
        )
    assignment = polynomial_assignment(mor)
    out = []
    for coord in mor.coordinates():
        poly = assignment[coord]
        if poly is UNIT:
            out.append(algebra.e)
        else:
            out.append(algebra.theta(poly, elements.get(coord), tuple(inputs)))
    return tuple(out)
