"""The indexing category over R(n) and its effective subcategory.

Objects are RPoly values; a morphism from f to g is a based map of extended
index sets {0, e, 1..m} -> {0, e, 1..n} (0 and e fixed) whose substitution
action carries f exactly onto g.  This module provides morphism validation,
hom-set enumeration, the unique singular/effective factorization, block sums,
the collapse re-indexing map, induced monomial maps, special representatives,
connected components and the arity filtration.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import itemgetter, or_
from typing import Iterator, Sequence, Union

from .errors import (
    ArityCapExceeded,
    ArityMismatch,
    NotAMorphism,
    NotSpecial,
    PreconditionViolation,
    SearchBudgetExceeded,
)
from .polynomials import (
    ENUMERATION_CAP,
    IntPoly,
    Monomial,
    RPoly,
    TypeSignature,
    _block_offsets,
    _images_of,
    _monomial,
    _substitute,
    _support,
    enumerate_R,
    is_nondegenerate,
    is_special,
    special_of_type,
    substitute_images,
    type_of,
)

E = -1  # image marker for the unit basepoint; 0 marks the zero basepoint

HOM_SEARCH_GUARD = 10**7


def _entry_str(v: int) -> str:
    return "e" if v == E else str(v)


class ExtMap(tuple):
    """A based map {0,e,1..m} -> {0,e,1..n}; 0 and e are implicitly fixed.

    A tuple (source_size, target_size, images), so hashing and equality run
    no Python code; the hash is the one the fields' tuple has.
    """

    __slots__ = ()

    def __new__(cls, source_size: int, target_size: int, images: tuple[int, ...]):
        if len(images) != source_size:
            raise ArityMismatch("images length differs from source size")
        for v in images:
            if v != E and not 0 <= v <= target_size:
                raise ArityMismatch(f"image {v} out of range 0..{target_size}")
        return tuple.__new__(cls, (source_size, target_size, images))

    source_size = property(itemgetter(0))
    target_size = property(itemgetter(1))
    images = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"ExtMap(source_size={self[0]!r}, target_size={self[1]!r}, images={self[2]!r})"

    def __call__(self, i: int) -> int:
        if i == 0 or i == E:
            return i
        return self.images[i - 1]

    def compose(self, inner: "ExtMap") -> "ExtMap":
        """self after inner."""
        if inner.target_size != self.source_size:
            raise ArityMismatch("sizes do not match for composition")
        return ExtMap(
            inner.source_size, self.target_size, tuple(self(v) for v in inner.images)
        )

    @staticmethod
    def identity(n: int) -> "ExtMap":
        return ExtMap(n, n, tuple(range(1, n + 1)))

    @property
    def is_effective(self) -> bool:
        """Only basepoints hit basepoints."""
        return all(v not in (0, E) for v in self.images)

    @property
    def is_singular(self) -> bool:
        """Surjective, and strictly increasing on positions with positive images."""
        positive = [v for v in self.images if v not in (0, E)]
        if sorted(set(positive)) != list(range(1, self.target_size + 1)):
            return False
        return all(b > a for a, b in zip(positive, positive[1:]))

    @property
    def is_injective_setmap(self) -> bool:
        """Injectivity on the whole extended set: effective and no repeats."""
        return self.is_effective and len(set(self.images)) == len(self.images)

    @property
    def is_surjective(self) -> bool:
        return set(range(1, self.target_size + 1)) <= set(self.images)

    def __str__(self):
        inside = ", ".join(
            f"{i}->{_entry_str(v)}" for i, v in enumerate(self.images, start=1)
        )
        return "{" + inside + "}"


def substitute(phi: ExtMap, f: RPoly) -> IntPoly:
    """Full integer expansion of f along phi, with a_0 = 0 and a_e = 1."""
    if phi.source_size != f.arity:
        raise ArityMismatch("map source size differs from polynomial arity")
    return substitute_images(phi.images, phi.target_size, f)


class RMorphism(tuple):
    """A validated triple (source, map, target) with substitute(map, source) = target.

    A tuple, so hashing and equality run no Python code; the hash is the one
    the fields' tuple has.
    """

    __slots__ = ()

    def __new__(cls, source: RPoly, map: ExtMap, target: RPoly):
        return tuple.__new__(cls, (source, map, target))

    source = property(itemgetter(0))
    map = property(itemgetter(1))
    target = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"RMorphism(source={self[0]!r}, map={self[1]!r}, target={self[2]!r})"

    @property
    def is_effective(self) -> bool:
        return self.map.is_effective

    @property
    def is_singular(self) -> bool:
        return self.map.is_singular

    def then(self, outer: "RMorphism") -> "RMorphism":
        if outer.source != self.target:
            raise ArityMismatch("morphisms are not composable")
        return RMorphism(self.source, outer.map.compose(self.map), outer.target)

    def __str__(self):
        return f"{self.source} |{self.map}| {self.target}"


def validate(f: RPoly, phi: ExtMap, g: RPoly) -> RMorphism:
    """Check the defining condition phi_*(f) = g and return the morphism."""
    if phi.source_size != f.arity or phi.target_size != g.arity:
        raise ArityMismatch("map sizes do not match the polynomial arities")
    if _substitute(phi.images, g.arity, f) != g:
        raise NotAMorphism(f"substitution of {f} along {phi} does not give {g}")
    return RMorphism(f, phi, g)


def is_morphism(f: RPoly, phi: ExtMap, g: RPoly) -> bool:
    try:
        validate(f, phi, g)
        return True
    except (NotAMorphism, ArityMismatch):
        return False


# ---------------------------------------------------------------------------
# Hom-set enumeration


def _all_maps(m: int, n: int) -> Iterator[ExtMap]:
    values = [0, E] + list(range(1, n + 1))
    for images in itertools.product(values, repeat=m):
        yield ExtMap(m, n, images)


def _effective_maps_onto(f: RPoly, g: RPoly) -> Iterator[ExtMap]:
    """Structural enumeration of effective maps with phi_*(f) = g.

    An effective map must carry each source monomial bijectively onto a
    distinct target monomial of the same size, so f and g share a type and
    candidates are built from size-preserving monomial matchings plus
    per-monomial support bijections; variables outside every monomial are
    free over 1..|g|.

    Every candidate is a morphism: it carries each source monomial onto its
    matched target monomial, and the matching is a bijection, so phi_*(f) = g.
    Distinct candidates are distinct maps: phi_* sends a source monomial to
    one target monomial, so it fixes the matching; the assignment and the
    free values are then phi itself on the covered and the free variables.
    """
    if type_of(f) != type_of(g):
        return
    m, n = f.arity, g.arity
    covered = _support(reduce(or_, f.masks, 0))
    free = [i for i in range(1, m + 1) if i not in covered]
    for matching in _size_preserving_bijections(f.masks, g.masks):
        for assignment in _support_assignments(matching):
            for extra in itertools.product(range(1, n + 1), repeat=len(free)):
                full = {**assignment, **dict(zip(free, extra))}
                yield ExtMap(m, n, tuple(full[i] for i in range(1, m + 1)))


def _size_preserving_bijections(src, tgt):
    """All bijections of monomial masks src -> tgt matching sizes (src and
    tgt share a type)."""
    sizes = sorted({mask.bit_count() for mask in tgt})
    sources = [[mask for mask in src if mask.bit_count() == k] for k in sizes]
    targets = [[mask for mask in tgt if mask.bit_count() == k] for k in sizes]
    for combo in itertools.product(*map(itertools.permutations, targets)):
        yield [pair for group, perm in zip(sources, combo) for pair in zip(group, perm)]


def _support_assignments(pairing):
    """Per-monomial support bijections merged into one consistent variable map."""

    def extend(idx, acc):
        if idx == len(pairing):
            yield dict(acc)
            return
        source_mono, target_mono = pairing[idx]
        for perm in itertools.permutations(_support(target_mono)):
            trial = dict(acc)
            if all(trial.setdefault(i, v) == v for i, v in zip(_support(source_mono), perm)):
                yield from extend(idx + 1, trial)

    yield from extend(0, {})


def enumerate_hom(f: RPoly, g: RPoly, kind: str = "all") -> list[RMorphism]:
    """All morphisms f -> g of the requested class.

    kind "all" brute-forces every based map under the (n+2)^m <= 10^7 guard;
    "effective" uses the structural enumeration; "nondegenerate" additionally
    requires both endpoints non-degenerate (surjectivity then comes for free,
    but is still asserted).
    """
    if kind == "all":
        count = (g.arity + 2) ** f.arity
        if count > HOM_SEARCH_GUARD:
            raise SearchBudgetExceeded(
                f"{count} candidate maps exceed the hom search guard {HOM_SEARCH_GUARD}"
            )
        return [
            RMorphism(f, phi, g) for phi in _all_maps(f.arity, g.arity)
            if is_morphism(f, phi, g)
        ]
    if kind == "effective":
        return [RMorphism(f, phi, g) for phi in _effective_maps_onto(f, g)]
    if kind == "nondegenerate":
        if not (is_nondegenerate(f) and is_nondegenerate(g)):
            return []
        out = []
        for phi in _effective_maps_onto(f, g):
            assert phi.is_surjective, "effective map between non-degenerate objects"
            out.append(RMorphism(f, phi, g))
        return out
    raise PreconditionViolation(f"unknown hom class {kind!r}")


def has_effective_hom(f: RPoly, g: RPoly) -> bool:
    """Existence test for an effective morphism f -> g, short-circuiting."""
    return next(iter(_effective_maps_onto(f, g)), None) is not None


def automorphisms(f: RPoly) -> list[RMorphism]:
    """Effective self-maps fixing f; these are exactly the bijective ones."""
    return [m for m in enumerate_hom(f, f, "effective") if m.map.is_injective_setmap]


# ---------------------------------------------------------------------------
# Canonical decomposition and equivariance constructions


def _split(phi: ExtMap, labels: Sequence[int]) -> tuple[ExtMap, ExtMap]:
    """The singular map with these labels and the map phi reads on its image.

    labels[i-1] is 0 or e for a position sigma sends there and 1 for a kept
    position; sigma numbers the kept positions in order, and p sends the t-th
    kept position where phi sends it.
    """
    kept = [i for i, label in enumerate(labels, start=1) if label == 1]
    rank = {i: t for t, i in enumerate(kept, start=1)}
    sigma = ExtMap(
        phi.source_size,
        len(kept),
        tuple(rank.get(i, label) for i, label in enumerate(labels, start=1)),
    )
    p = ExtMap(len(kept), phi.target_size, tuple(phi(i) for i in kept))
    return sigma, p


def canonical_decompose(phi: ExtMap) -> tuple[ExtMap, ExtMap]:
    """The unique factorization phi = p o sigma, sigma singular, p effective.

    sigma collapses exactly the 0- and e-preimages of phi and renumbers the
    remaining positions in order; p is then forced on the image positions.
    """
    return _split(phi, [v if v in (0, E) else 1 for v in phi.images])


def all_factorizations(phi: ExtMap) -> list[tuple[ExtMap, ExtMap]]:
    """Every (sigma singular, p effective) pair with p o sigma = phi.

    A singular map out of m is determined by its 0-set and e-set, so the
    search space is 3^m; p is then forced by surjectivity of sigma.
    """
    found = []
    for labels in itertools.product((0, E, 1), repeat=phi.source_size):
        sigma, p = _split(phi, labels)
        if p.is_effective and p.compose(sigma) == phi:
            found.append((sigma, p))
    return found


def block_sum(maps: Sequence[ExtMap]) -> ExtMap:
    """Blockwise sum: block t maps into target block t, basepoints pass through."""
    offsets, target = _block_offsets(phi.target_size for phi in maps)
    images = tuple(
        v if v in (0, E) else v + offset
        for phi, offset in zip(maps, offsets)
        for v in phi.images
    )
    return ExtMap(len(images), target, images)


def psi_tilde(psi: ExtMap, arities: Sequence[int]) -> ExtMap:
    """The induced map on argument blocks for a singular collapse onto e.

    Slot t of the source carries width j_{psi(t)}, where e-slots have width 1;
    each e-slot's position is sent to e and everything else order-preservingly
    onto the target block space.
    """
    if not psi.is_singular:
        raise PreconditionViolation("psi must be singular")
    if any(v == 0 for v in psi.images):
        raise PreconditionViolation("psi must not collapse to 0")
    if len(arities) != psi.target_size:
        raise ArityMismatch("arities must list one width per target index")
    return _block_images(psi, arities)


def argument_collation(psi: ExtMap, arities: Sequence[int]) -> ExtMap:
    """Re-indexing from psi-selected argument blocks onto target blocks.

    Used for the equivariance diagram where the operad acts by psi on the
    outer polynomial: slot t (width j_{psi(t)}, zero for psi(t) = 0) maps
    identically onto target block psi(t).  Substitution along the result
    carries the slot-composite polynomial onto the target composite.
    """
    if any(v == E for v in psi.images):
        raise PreconditionViolation("collation expects no collapse onto e")
    if len(arities) != psi.target_size:
        raise ArityMismatch("arities must list one width per target index")
    return _block_images(psi, arities)


def _block_images(psi: ExtMap, arities: Sequence[int]) -> ExtMap:
    """Send slot t onto target block psi(t); an e-slot is one position sent
    to e, and a 0-slot has no positions."""
    offsets, total = _block_offsets(arities)
    images = []
    for v in psi.images:
        if v == E:
            images.append(E)
        elif v != 0:
            images.extend(range(offsets[v - 1] + 1, offsets[v - 1] + arities[v - 1] + 1))
    return ExtMap(len(images), total, tuple(images))


# ---------------------------------------------------------------------------
# Induced monomial maps


@dataclass(frozen=True)
class LambdaMaps:
    """The monomial-level data induced by a morphism.

    phi_prime sends each target monomial to the unique source monomial over
    it; per_monomial[J] is the variable-level injection from J's support into
    its source monomial's support; phi_tilde inverts phi_prime when the map
    is effective.
    """

    phi_prime: dict[Monomial, Monomial]
    per_monomial: dict[Monomial, dict[int, int]]
    phi_tilde: Union[dict[Monomial, Monomial], None]


def induced_lambda_maps(mor: RMorphism) -> LambdaMaps:
    phi = mor.map
    source_arity, target_arity = mor.source.arity, mor.target.arity
    phi_prime: dict[Monomial, Monomial] = {}
    per_monomial: dict[Monomial, dict[int, int]] = {}
    for mask in mor.source.masks:
        image = _images_of(phi.images)[mask]
        if image is None:
            continue
        target_mono = _monomial(target_arity, image)
        if target_mono in phi_prime:
            raise NotAMorphism("two source monomials map onto one target monomial")
        phi_prime[target_mono] = _monomial(source_arity, mask)
        per_monomial[target_mono] = {
            phi(i): i for i in _support(mask) if phi(i) not in (0, E)
        }
    if {mono.mask for mono in phi_prime} != set(mor.target.masks):
        raise NotAMorphism("monomial images do not cover the target")
    phi_tilde = None
    if phi.is_effective:
        phi_tilde = {src: tgt for tgt, src in phi_prime.items()}
    return LambdaMaps(phi_prime, per_monomial, phi_tilde)


# ---------------------------------------------------------------------------
# Special representatives, components and the filtration


def special_rep_morphism(f: RPoly) -> RMorphism:
    """The block-assignment morphism from the special of f's type onto f.

    Monomials are listed by size with lambda-order breaking ties; block j of
    the special is sent onto the ordered support of the j-th monomial.  For
    0_n the special is 0_0 and the map is empty.
    """
    source = special_of_type(type_of(f))
    images = []
    for mask in sorted(f.masks, key=int.bit_count):
        images.extend(_support(mask))
    phi = ExtMap(source.arity, f.arity, tuple(images))
    return validate(source, phi, f)


def connected_components(n: int) -> list[frozenset[RPoly]]:
    """Partition of R(n) by zig-zag connectivity in the effective subcategory.

    The components are exactly the type classes.  An effective morphism
    sends the monomials of its source bijectively, with their sizes, onto
    those of its target, so every zig-zag stays inside one type; and
    `special_rep_morphism` joins each f to the special of its type, so one
    type is one component.  Blocks are listed in order of their first member
    in `enumerate_R(n)`.
    """
    if n > 3:
        raise ArityCapExceeded("connected_components capped at n = 3")
    return [frozenset(block) for block in _type_classes(n).values()]


@lru_cache(maxsize=None)
def _type_classes(n: int) -> dict[TypeSignature, tuple[RPoly, ...]]:
    """R(n) grouped by type, each class in `enumerate_R(n)` order and the
    classes in order of their first member.  Cached: callers only read it."""
    classes: dict[TypeSignature, list[RPoly]] = {}
    for f in enumerate_R(n):
        classes.setdefault(type_of(f), []).append(f)
    return {sig: tuple(members) for sig, members in classes.items()}


def component_objects(f: RPoly, arity: int) -> list[RPoly]:
    """Non-degenerate objects of f's connected component with the given arity.

    The component of f is its type class (see `connected_components`), so
    these are the non-degenerate g of that arity with f's type;
    `special_rep_morphism(g)` is the effective morphism from the special
    onto each of them.  Such a morphism is surjective on variables, which
    bounds arities by |special|.
    """
    sig = type_of(f)
    if arity > sum(sig.sizes):
        return []
    if arity > ENUMERATION_CAP:
        raise ArityCapExceeded("component enumeration needs enumerate_R at this arity")
    return [g for g in _type_classes(arity).get(sig, ()) if is_nondegenerate(g)]


def filtration(f: RPoly, level: int) -> frozenset[RPoly]:
    """Non-degenerate objects of f's component with arity >= level.

    Defined for special f and 0 <= level <= |f| + 1; the top level is empty
    and level 0 is the entire non-degenerate component.
    """
    if not is_special(f):
        raise NotSpecial(f"{f} is not special")
    if not 0 <= level <= f.arity + 1:
        raise PreconditionViolation(f"level must lie in 0..{f.arity + 1}")
    out: set[RPoly] = set()
    for arity in range(level, f.arity + 1):
        out.update(component_objects(f, arity))
    return frozenset(out)
