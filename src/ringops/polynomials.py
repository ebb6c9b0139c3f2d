"""Exact arithmetic on square-free multilinear polynomials.

The central index set R(n) consists of the polynomials in n variables that
are finite sums of distinct monic square-free monomials of positive degree,
plus the zero polynomial 0_n.  R(n) is finite with exactly 2^(2^n - 1)
elements.

Mask encoding: a monomial is an int whose bit i-1 is set when variable i
occurs, so the monomials of R(n) are the masks 1..2^n - 1.  An RPoly is the
pair (arity, masks) with its masks in lambda order, the order of their
exponent tuples read from variable 1; that is ascending order of the
bit-reversed mask (`_lambda_key`), so printing and `lambda_of` read the masks
as stored.  `Monomial` and `RPoly.monomials` are views derived from the masks.
IntPoly is the larger integer-coefficient space that keeps non-members
visible: substitution results, composition with UNIT slots and term
projections.

Block convention: composing g with arguments f_1, ..., f_k writes argument t
in its own block of fresh variables, shifted past the blocks of f_1..f_{t-1}
(`_block_offsets`); on masks that is a left shift by the block's offset.  A
product of an outer monomial ORs one shifted mask per slot it uses
(`_products`).  Why no product of RPoly arguments needs a membership check:
the blocks are disjoint, so an OR never meets a bit twice (no square);
every argument monomial is a non-zero mask, so a product is non-zero (no
constant) and marks exactly the blocks of its outer monomial's slots, so
products of distinct outer monomials differ, and products of one outer
monomial differ in the block where their choices differ (no repeat).  A UNIT
slot is the constant 1, an empty block, which breaks the last two steps;
composition with UNIT counts its products into an IntPoly and re-checks.

A based map acts on a monomial by substitution, where an image 0 kills the
monomial and an image e (-1) drops the variable: `_image_key` substitutes one
monomial keeping squares visible, and `_image_mask` maps it onto a mask.
`_substitute` is the one substitution kernel: it reads each mask's image
from the map's table (`_images_of`), built once per images tuple.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import itemgetter, or_
from typing import Iterable, Sequence, Union

from .errors import (
    ArityCapExceeded,
    ArityMismatch,
    InvalidSignature,
    NotInR,
    PreconditionViolation,
)

ENUMERATION_CAP = 4


class _UnitMarker:
    """Placeholder argument standing for the constant 1 in extended composition."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNIT"


UNIT = _UnitMarker()


@lru_cache(maxsize=None)
def _support(mask: int) -> tuple[int, ...]:
    """The variables of a monomial mask, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=None)
def _lambda_key(mask: int) -> str:
    """Sort key of lambda order: the mask's binary digits from variable 1 on.

    Strings compare like the bit-reversed masks at any common width: a key
    that is a proper prefix of another is smaller, since the longer one ends
    in the 1 of its highest variable.
    """
    return bin(mask)[:1:-1]


@lru_cache(maxsize=None)
def _monomial_text(mask: int) -> str:
    return "*".join(f"x{i}" for i in _support(mask))


def _mask(support: Iterable[int]) -> int:
    return sum(1 << (i - 1) for i in support)


class Monomial(tuple):
    """A monic square-free monomial: the pair (arity, mask), mask non-zero."""

    __slots__ = ()

    def __new__(cls, arity: int, support: Sequence[int]):
        support = tuple(support)
        if not support:
            raise NotInR("a Monomial must have positive degree")
        if any(b <= a for a, b in zip(support, support[1:])):
            raise NotInR(f"support {support} is not strictly increasing")
        if support[0] < 1 or support[-1] > arity:
            raise ArityMismatch(f"support {support} out of range for arity {arity}")
        return tuple.__new__(cls, (arity, _mask(support)))

    arity = property(itemgetter(0))
    mask = property(itemgetter(1))

    @property
    def support(self) -> tuple[int, ...]:
        return _support(self[1])

    def exponents(self) -> tuple[int, ...]:
        """0/1 tuple of length arity, read from variable 1."""
        return tuple(self[1] >> i & 1 for i in range(self[0]))

    def __repr__(self):
        return f"Monomial({self[0]}, {self.support})"

    def __str__(self):
        return _monomial_text(self[1])


def _monomial(arity: int, mask: int) -> Monomial:
    return tuple.__new__(Monomial, (arity, mask))


class RPoly(tuple):
    """An element of R(n): the pair (arity, masks), masks in lambda order.

    A tuple, so hashing and equality run no Python code, and the hash of
    ints does not depend on PYTHONHASHSEED.  Build members with `rpoly`,
    `zero_poly`, `to_rpoly` or `compose`; the constructor trusts its masks.
    """

    __slots__ = ()

    def __new__(cls, arity: int, masks: Iterable[int]):
        return tuple.__new__(cls, (arity, tuple(masks)))

    arity = property(itemgetter(0))
    masks = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    @property
    def monomials(self) -> frozenset[Monomial]:
        return frozenset(lambda_of(self))

    @property
    def is_zero(self) -> bool:
        return not self[1]

    def __len__(self):
        return len(self[1])

    def __repr__(self):
        return f"RPoly({canon_str(self)!r})"

    def __str__(self):
        return canon_str(self)


def _lambda_sorted(arity: int, masks: Iterable[int]) -> RPoly:
    return RPoly(arity, sorted(masks, key=_lambda_key))


def rpoly(arity: int, supports: Iterable[Sequence[int]]) -> RPoly:
    """Build an RPoly from raw supports; rejects duplicated monomials."""
    masks = [Monomial(arity, sorted(s))[1] for s in supports]
    if len(set(masks)) != len(masks):
        raise NotInR("duplicate monomial")
    return _lambda_sorted(arity, masks)


def zero_poly(arity: int) -> RPoly:
    return RPoly(arity, ())


def unit_poly() -> RPoly:
    """The composition unit a_1 in one variable."""
    return RPoly(1, (1,))


def lambda_of(f: RPoly) -> tuple[Monomial, ...]:
    """The monomials of f ordered lexicographically on their exponent tuples.

    Tuples are compared leftmost-variable first with 0 < 1, which reproduces
    the ordering {5} < {1,4} < {1,2,3} for x1*x2*x3 + x1*x4 + x5.
    """
    return tuple(_monomial(f.arity, m) for m in f.masks)


def canon_str(f: RPoly) -> str:
    """Canonical text form: arity header, monomials in lambda order."""
    if not f.masks:
        return f"R({f.arity}): 0"
    return f"R({f.arity}): " + " + ".join(map(_monomial_text, f.masks))


# ---------------------------------------------------------------------------
# IntPoly: the integer-coefficient expansion space


@dataclass(frozen=True)
class IntPoly:
    """Integer-coefficient polynomial with explicit exponent bookkeeping.

    Keys are sorted variable tuples; a repeated entry records a square or
    higher power, and the empty tuple records the constant term.  This is the
    value space of substitutions, where failures of R-membership (coefficient
    2, squares, constant terms) stay visible until explicitly checked.
    """

    arity: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def make(arity: int, coeffs: dict[tuple[int, ...], int]) -> "IntPoly":
        cleaned = {k: c for k, c in coeffs.items() if c != 0}
        for key in cleaned:
            if any(v < 1 or v > arity for v in key):
                raise ArityMismatch(f"variable in {key} out of range 1..{arity}")
            if tuple(sorted(key)) != key:
                raise ValueError(f"key {key} is not sorted")
        return IntPoly(arity, tuple(sorted(cleaned.items())))

    def coeffs(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "IntPoly") -> "IntPoly":
        if other.arity != self.arity:
            raise ArityMismatch("cannot add polynomials of different arities")
        out = self.coeffs()
        for key, c in other.terms:
            out[key] = out.get(key, 0) + c
        return self._from_valid(out)

    def mul(self, other: "IntPoly", max_terms: Union[int, None] = None) -> "IntPoly":
        """The product.  With `max_terms`, it stops as soon as the product
        has more monomials; it counts every key met, so coefficients must
        not cancel, as in a projection, where all of them are positive."""
        if other.arity != self.arity:
            raise ArityMismatch("cannot multiply polynomials of different arities")
        # A monomial is packed as the int sum of B^(v-1) over its variables v,
        # with B = 2^width above the sum of the two largest degrees, so no
        # exponent of a product carries into the next variable's digit and
        # the product of two monomials is the sum of their packed keys.
        degrees = [max((len(k) for k, _ in p.terms), default=0) for p in (self, other)]
        width = sum(degrees).bit_length()

        def pack(key):
            return sum(1 << width * (v - 1) for v in key)

        right = [(pack(k2), c2) for k2, c2 in other.terms]
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in self.terms:
            p1 = pack(k1)
            for p2, c2 in right:
                key = p1 + p2
                out[key] = get(key, 0) + c1 * c2
            if max_terms is not None and len(out) > max_terms:
                raise PreconditionViolation(
                    f"a partial expansion has more than {max_terms} monomials"
                )
        digit = (1 << width) - 1

        def unpack(packed):
            key = []
            for v in range(1, self.arity + 1):
                key += [v] * (packed >> width * (v - 1) & digit)
            return tuple(key)

        return self._from_valid({unpack(key): c for key, c in out.items()})

    def _from_valid(self, coeffs: dict[tuple[int, ...], int]) -> "IntPoly":
        """`make` without its key checks, for a sum or product of two
        polynomials of this arity: their keys, sorted, stay valid."""
        return IntPoly(self.arity, tuple(sorted((k, c) for k, c in coeffs.items() if c != 0)))


def int_zero(arity: int) -> IntPoly:
    return IntPoly.make(arity, {})


def int_const(arity: int, value: int) -> IntPoly:
    return IntPoly.make(arity, {(): value})


def membership_failure(p: IntPoly) -> Union[str, None]:
    """Name the R-membership condition p violates, or None if p is a member.

    The three conditions: square-free in every variable, all coefficients
    0 or 1, and zero constant term.
    """
    for key, c in p.terms:
        if len(set(key)) != len(key):
            return f"monomial {key} contains a square"
        if c not in (0, 1):
            return f"monomial {key} has coefficient {c}"
        if not key and c != 0:
            return "non-zero constant term"
    return None


def is_member(p: IntPoly) -> bool:
    """True iff p encodes an element of R(arity)."""
    return membership_failure(p) is None


def to_rpoly(p: IntPoly) -> RPoly:
    reason = membership_failure(p)
    if reason is not None:
        raise NotInR(reason)
    return _lambda_sorted(p.arity, (_mask(key) for key, _ in p.terms))


# ---------------------------------------------------------------------------
# Enumeration and composition


def enumerate_R(n: int) -> list[RPoly]:
    """Every element of R(n) exactly once, n <= 4.

    Deterministic order: by monomial count, then lexicographically on the
    lambda-ordered exponent tuples.
    """
    if n < 0:
        raise ArityMismatch("arity must be non-negative")
    if n > ENUMERATION_CAP:
        raise ArityCapExceeded(
            f"enumerate_R capped at n = {ENUMERATION_CAP}; |R({n})| = 2^(2^{n}-1)"
        )
    return list(_enumerate_R_cached(n))


@lru_cache(maxsize=None)
def _enumerate_R_cached(n: int) -> tuple[RPoly, ...]:
    """Combinations of the lambda-ordered monomials come out in the listing
    order and each in lambda order, so nothing is sorted."""
    monomials = sorted(range(1, 1 << n), key=_lambda_key)
    return tuple(
        RPoly(n, chosen)
        for count in range(len(monomials) + 1)
        for chosen in itertools.combinations(monomials, count)
    )


def _block_offsets(widths: Iterable[int]) -> tuple[list[int], int]:
    """Offsets of blocks of these widths placed side by side, and the total."""
    offsets = []
    total = 0
    for width in widths:
        offsets.append(total)
        total += width
    return offsets, total


def _slot(arg: Union[RPoly, _UnitMarker], offset: int) -> tuple[int, ...]:
    """The masks one argument contributes to `_products` from the block at
    offset: an RPoly's masks shifted left into it, (0,) for UNIT."""
    return (0,) if arg is UNIT else tuple(m << offset for m in arg.masks)


def _products(outer: Sequence[int], slots: Sequence[Sequence[int]]) -> list[int]:
    """Multiply out outer monomials over per-slot lists of shifted masks.

    outer lists the outer monomials as masks over slot numbers (bit t-1 is
    slot t), and slots[t-1] the masks slot t contributes, already shifted
    into its block (0 is the constant 1, an empty list the zero polynomial).
    Lists, outer monomial by outer monomial in the order given and then in
    `itertools.product` order of one entry per slot it uses, the OR of the
    chosen masks.  Disjoint blocks make the OR the product.
    """
    out = []
    for u in outer:
        acc = [0]
        for t in _support(u):
            acc = [a | m for a in acc for m in slots[t - 1]]
        out += acc
    return out


def _expand(outer: Sequence[int], slots: Sequence[Sequence[int]]) -> list:
    """`_products` with its bookkeeping: (outer index, choice indices,
    product mask), in the same order."""
    choices = (
        (idx, choice)
        for idx, u in enumerate(outer)
        for choice in itertools.product(*(range(len(slots[t - 1])) for t in _support(u)))
    )
    return [(idx, choice, key) for (idx, choice), key in zip(choices, _products(outer, slots))]


def _image_key(images: Sequence[int], mask: int) -> Union[tuple[int, ...], None]:
    """The sorted image of one monomial under a based map, or None if killed.

    images[i-1] is the image of variable i: 0 kills the monomial, -1 (the e
    marker) drops the variable, and a repeat leaves a square in the key.
    """
    hit = []
    for i in _support(mask):
        v = images[i - 1]
        if v == 0:
            return None
        if v != -1:
            hit.append(v)
    return tuple(sorted(hit))


def _image_mask(images: Sequence[int], mask: int) -> Union[int, None]:
    """The image of one monomial as a mask (0 when every variable goes to
    e), None if killed, and -1 if it has a square."""
    key = _image_key(images, mask)
    if key is None:
        return None
    return _mask(key) if len(set(key)) == len(key) else -1


class _Images(dict):
    """One map's image table: mask -> `_image_mask(images, mask)`, each
    entry computed on its first lookup."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        super().__init__()
        self.images = images

    def __missing__(self, mask: int) -> Union[int, None]:
        image = self[mask] = _image_mask(self.images, mask)
        return image


# One image table per map: 156 of them serve the 11,806 morphisms of cap 3.
_images_of = lru_cache(maxsize=1 << 12)(_Images)


def _substitute(images: tuple[int, ...], target_arity: int, f: RPoly) -> Union[RPoly, None]:
    """f(a_phi(1), ..., a_phi(m)) as an RPoly, or None when it is not in R
    (a square, a repeated monomial or a constant term).  Each monomial's
    image is read from the map's table, so a map shared by many sources
    substitutes each mask once."""
    table = _images_of(images)
    out = []
    for mask in f.masks:
        image = table[mask]
        if image is None:
            continue
        if image <= 0:
            return None
        out.append(image)
    if len(set(out)) != len(out):
        return None
    return _lambda_sorted(target_arity, out)


def compose(g: RPoly, args: Sequence[RPoly]) -> RPoly:
    """Operadic composition g(f_1, ..., f_k) with block re-indexing.

    Argument t is written in its own block of fresh variables shifted past
    the blocks of the earlier arguments; R(n) is closed under this operation.
    """
    if len(args) != g.arity:
        raise ArityMismatch(f"{g.arity}-ary polynomial applied to {len(args)} arguments")
    return _compose_intpoly(g, tuple(args))


@lru_cache(maxsize=200000)
def _compose_intpoly(g: RPoly, args: tuple[Union[RPoly, _UnitMarker], ...]) -> RPoly:
    """g(args); a UNIT argument is the constant 1.

    The lru cache keeps up to 200,000 (g, args) pairs.  The composition-shape
    plan, `operads._composition_blocks`, ORs each composite from bitsets of
    the products of g's monomials, built once per arity tuple, and leaves
    this cache alone.

    With RPoly arguments the products are the composite's masks (see the
    module docstring) and are only sorted.  With a UNIT slot they can repeat
    or be constant, so they go through IntPoly and `to_rpoly` names the
    failure.  The name is older than the mask kernel; it stays because the
    benchmark's tracer (perfbench/tracer.py) reads this cache's cache_info().
    """
    offsets, total = _block_offsets(0 if a is UNIT else a.arity for a in args)
    products = _products(g.masks, [_slot(a, offset) for a, offset in zip(args, offsets)])
    if UNIT in args:
        return to_rpoly(IntPoly.make(total, Counter(map(_support, products))))
    return _lambda_sorted(total, products)


def extended_compose(g: RPoly, args: Sequence[Union[RPoly, _UnitMarker]]) -> RPoly:
    """Composition where a UNIT argument substitutes the constant 1.

    UNIT slots occupy zero block width.  Unlike plain composition the result
    can leave R (duplicate monomials after collapsing), which is reported as
    NotInR rather than silently accepted.
    """
    return compose(g, args)


# ---------------------------------------------------------------------------
# Classification


def is_nondegenerate(f: RPoly) -> bool:
    """True iff every variable 1..arity occurs in some monomial."""
    return reduce(or_, f.masks, 0) == (1 << f.arity) - 1


@dataclass(frozen=True)
class TypeSignature:
    """Monomial count and the non-decreasing list of monomial sizes."""

    l: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) != self.l:
            raise InvalidSignature("length of sizes must equal l")
        if any(k <= 0 for k in self.sizes):
            raise InvalidSignature("sizes must be positive")
        if any(b < a for a, b in zip(self.sizes, self.sizes[1:])):
            raise InvalidSignature("sizes must be non-decreasing")

    def __str__(self):
        return f"({self.l}; {','.join(str(k) for k in self.sizes)})"


def type_of(f: RPoly) -> TypeSignature:
    sizes = tuple(sorted(m.bit_count() for m in f.masks))
    return TypeSignature(len(sizes), sizes)


def special_of_type(sig: TypeSignature) -> RPoly:
    """The canonical consecutive-block representative of a type.

    Block j covers k_j fresh variables, so the result is non-degenerate of
    arity k_1 + ... + k_l and of exactly the requested type.
    """
    offsets, total = _block_offsets(sig.sizes)
    return _lambda_sorted(total, ((1 << k) - 1 << o for o, k in zip(offsets, sig.sizes)))


def is_special(f: RPoly) -> bool:
    return f == special_of_type(type_of(f))


def substitute_images(images: Sequence[int], target_arity: int, f: RPoly) -> IntPoly:
    """Expand f(a_phi(1), ..., a_phi(m)) over the integers.

    images[i-1] is the target index of variable i; 0 kills a monomial and -1
    (the e marker) deletes the variable from its monomial.  Repeats inside one
    monomial produce squares, which stay visible in the IntPoly result.
    """
    if len(images) != f.arity:
        raise ArityMismatch("map source size differs from polynomial arity")
    out = Counter(_image_key(images, m) for m in f.masks)
    out.pop(None, None)
    return IntPoly.make(target_arity, out)
