"""Exact arithmetic on square-free multilinear polynomials.

The central index set R(n) consists of the polynomials in n variables that
are finite sums of distinct monic square-free monomials of positive degree,
plus the zero polynomial 0_n.  R(n) is finite with exactly 2^(2^n - 1)
elements.  RPoly values are the members of R(n); IntPoly is the larger
integer-coefficient space in which substitutions and expansions are computed
before membership is re-checked.

Block convention: composing g with arguments f_1, ..., f_k writes argument t
in its own block of fresh variables, shifted past the blocks of f_1..f_{t-1}
(`_block_offsets`).  A based map acts on a monomial by substitution, where an
image 0 kills the monomial and an image e (-1) drops the variable.  Two
kernels are the only code that knows these rules: `_expand` multiplies out
an outer polynomial over per-slot lists of shifted supports, and
`_image_key` substitutes one monomial.  Every block expansion and every
substitution of a polynomial along a based map goes through them.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .errors import ArityCapExceeded, ArityMismatch, InvalidSignature, NotInR

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


@dataclass(frozen=True, eq=False)
class Monomial:
    """A monic square-free monomial: an ordered non-empty support in 1..arity."""

    arity: int
    support: tuple[int, ...]

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.arity == other.arity and self.support == other.support

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash((self.arity, self.support))
            object.__setattr__(self, "_hash", value)
        return value

    def __post_init__(self):
        object.__setattr__(self, "_hash", None)
        if not self.support:
            raise NotInR("a Monomial must have positive degree")
        if any(b <= a for a, b in zip(self.support, self.support[1:])):
            raise NotInR(f"support {self.support} is not strictly increasing")
        if self.support[0] < 1 or self.support[-1] > self.arity:
            raise ArityMismatch(
                f"support {self.support} out of range for arity {self.arity}"
            )

    def exponents(self) -> tuple[int, ...]:
        """0/1 tuple of length arity, read from variable 1."""
        marks = set(self.support)
        return tuple(1 if i in marks else 0 for i in range(1, self.arity + 1))

    def __str__(self):
        return "*".join(f"x{i}" for i in self.support)


@dataclass(frozen=True, eq=False)
class RPoly:
    """An element of R(n): a set of distinct square-free monomials, or 0_n."""

    arity: int
    monomials: frozenset[Monomial]

    def __eq__(self, other):
        if not isinstance(other, RPoly):
            return NotImplemented
        return self.arity == other.arity and self.monomials == other.monomials

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash((self.arity, self.monomials))
            object.__setattr__(self, "_hash", value)
        return value

    def __post_init__(self):
        object.__setattr__(self, "_hash", None)
        for m in self.monomials:
            if m.arity != self.arity:
                raise ArityMismatch(
                    f"monomial arity {m.arity} inside RPoly of arity {self.arity}"
                )

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def __len__(self):
        return len(self.monomials)

    def __str__(self):
        return canon_str(self)


def rpoly(arity: int, supports: Iterable[Sequence[int]]) -> RPoly:
    """Build an RPoly from raw supports; rejects duplicated monomials."""
    monos = [Monomial(arity, tuple(sorted(s))) for s in supports]
    if len(set(monos)) != len(monos):
        raise NotInR("duplicate monomial")
    return RPoly(arity, frozenset(monos))


def zero_poly(arity: int) -> RPoly:
    return RPoly(arity, frozenset())


def unit_poly() -> RPoly:
    """The composition unit a_1 in one variable."""
    return rpoly(1, [(1,)])


def additive_poly(j: int) -> RPoly:
    """x1 + x2 + ... + xj in j variables."""
    return rpoly(j, [(i,) for i in range(1, j + 1)])


def multiplicative_poly(j: int) -> RPoly:
    """x1*x2*...*xj in j variables."""
    return rpoly(j, [tuple(range(1, j + 1))])


def lambda_of(f: RPoly) -> tuple[Monomial, ...]:
    """The monomials of f ordered lexicographically on their exponent tuples.

    Tuples are compared leftmost-variable first with 0 < 1, which reproduces
    the ordering {5} < {1,4} < {1,2,3} for x1*x2*x3 + x1*x4 + x5.
    """
    return tuple(sorted(f.monomials, key=Monomial.exponents))


def gamma_of(m: Monomial) -> tuple[int, ...]:
    """The ordered variable support of a monomial."""
    return m.support


def canon_str(f: RPoly) -> str:
    """Canonical text form: arity header, monomials in lambda order."""
    if f.is_zero:
        return f"R({f.arity}): 0"
    body = " + ".join(str(m) for m in lambda_of(f))
    return f"R({f.arity}): {body}"


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
        return IntPoly.make(self.arity, out)

    def mul(self, other: "IntPoly") -> "IntPoly":
        if other.arity != self.arity:
            raise ArityMismatch("cannot multiply polynomials of different arities")
        out: dict[tuple[int, ...], int] = {}
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                key = tuple(sorted(k1 + k2))
                out[key] = out.get(key, 0) + c1 * c2
        return IntPoly.make(self.arity, out)


def int_zero(arity: int) -> IntPoly:
    return IntPoly.make(arity, {})


def int_const(arity: int, value: int) -> IntPoly:
    return IntPoly.make(arity, {(): value})


def from_rpoly(f: RPoly) -> IntPoly:
    return IntPoly.make(f.arity, {m.support: 1 for m in f.monomials})


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
    return RPoly(p.arity, frozenset(Monomial(p.arity, key) for key, _ in p.terms))


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
    variables = range(1, n + 1)
    supports = []
    for size in range(1, n + 1):
        supports.extend(itertools.combinations(variables, size))
    polys = []
    for count in range(len(supports) + 1):
        for chosen in itertools.combinations(supports, count):
            polys.append(rpoly(n, chosen))
    polys.sort(key=_canonical_sort_key)
    return tuple(polys)


def _canonical_sort_key(f: RPoly):
    return (len(f.monomials), tuple(m.exponents() for m in lambda_of(f)))


def _block_offsets(widths: Iterable[int]) -> tuple[list[int], int]:
    """Offsets of blocks of these widths placed side by side, and the total."""
    offsets = []
    total = 0
    for width in widths:
        offsets.append(total)
        total += width
    return offsets, total


def _expand(outer: Sequence[tuple[int, ...]], slots: Sequence[Sequence[tuple[int, ...]]]):
    """Multiply out outer supports over per-slot lists of shifted supports.

    outer lists the outer monomials as supports over slot numbers 1..k, and
    slots[t-1] the supports slot t contributes (already shifted into its
    block; `()` is the constant 1, an empty list the zero polynomial).  For
    each outer monomial, in the order given, and each choice of one entry per
    slot it uses, yields (outer index, choice indices, sorted concatenated
    key).  Keys may repeat and may contain squares; counting them gives the
    integer expansion.
    """
    for idx, support in enumerate(outer):
        pools = [slots[i - 1] for i in support]
        for choice in itertools.product(*(range(len(pool)) for pool in pools)):
            key: list[int] = []
            for pool, c in zip(pools, choice):
                key.extend(pool[c])
            yield idx, choice, tuple(sorted(key))


def _image_key(images: Sequence[int], support: Iterable[int]) -> Union[tuple[int, ...], None]:
    """The sorted image of one monomial under a based map, or None if killed.

    images[i-1] is the image of variable i: 0 kills the monomial, -1 (the e
    marker) drops the variable, and a repeat leaves a square in the key.
    """
    hit = []
    for i in support:
        v = images[i - 1]
        if v == 0:
            return None
        if v != -1:
            hit.append(v)
    return tuple(sorted(hit))


def compose(g: RPoly, args: Sequence[RPoly]) -> RPoly:
    """Operadic composition g(f_1, ..., f_k) with block re-indexing.

    Argument t is written in its own block of fresh variables shifted past
    the blocks of the earlier arguments; R(n) is closed under this operation.
    """
    if len(args) != g.arity:
        raise ArityMismatch(f"{g.arity}-ary polynomial applied to {len(args)} arguments")
    return to_rpoly(_compose_intpoly(g, tuple(args)))


@lru_cache(maxsize=200000)
def _compose_intpoly(g: RPoly, args: tuple[Union[RPoly, _UnitMarker], ...]) -> IntPoly:
    """The integer expansion of g(args); a UNIT argument is the constant 1."""
    offsets, total = _block_offsets([0 if a is UNIT else a.arity for a in args])
    slots = [
        [()] if a is UNIT else [tuple(v + offset for v in m.support) for m in a.monomials]
        for a, offset in zip(args, offsets)
    ]
    outer = [m.support for m in g.monomials]
    return IntPoly.make(total, Counter(key for _, _, key in _expand(outer, slots)))


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
    used = set()
    for m in f.monomials:
        used.update(m.support)
    return len(used) == f.arity


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
    sizes = tuple(sorted(len(m.support) for m in f.monomials))
    return TypeSignature(len(sizes), sizes)


def special_of_type(sig: TypeSignature) -> RPoly:
    """The canonical consecutive-block representative of a type.

    Block j covers k_j fresh variables, so the result is non-degenerate of
    arity k_1 + ... + k_l and of exactly the requested type.
    """
    offsets, total = _block_offsets(sig.sizes)
    return rpoly(total, [tuple(range(o + 1, o + k + 1)) for o, k in zip(offsets, sig.sizes)])


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
    out = Counter(_image_key(images, m.support) for m in f.monomials)
    out.pop(None, None)
    return IntPoly.make(target_arity, out)
