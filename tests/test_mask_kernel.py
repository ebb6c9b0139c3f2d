"""The mask kernel against the Monomial-set code it replaced.

The reference below keeps a polynomial as its arity and a frozenset of
support tuples, the way the kernel stored it before monomials became bit
masks, and computes lambda order, printing, the enumeration order, type,
non-degeneracy and boolean evaluation from that.  Each test
compares the mask kernel with it on all of R(0..3), and the enumeration
order on R(4) too.  The substitution kernel, which reads one image table per
map, is also compared with the per-monomial loop it replaced.
"""
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringops
from ringops.errors import NotInR
from ringops.indexcat import RMorphism, _all_maps
from ringops.operads import _all_morphisms, eval_rpoly_bool
from ringops.polynomials import (
    TypeSignature,
    _expand,
    _image_mask,
    _lambda_sorted,
    _products,
    _substitute,
    canon_str,
    enumerate_R,
    is_nondegenerate,
    lambda_of,
    substitute_images,
    to_rpoly,
    type_of,
)

POLYS = [f for n in range(4) for f in enumerate_R(n)]


def _supports(f):
    return frozenset(m.support for m in f.monomials)


# ---------------------------------------------------------------------------
# The reference: supports in frozensets, orders from exponent tuples


def _exponents(arity, support):
    marks = set(support)
    return tuple(1 if i in marks else 0 for i in range(1, arity + 1))


def ref_lambda_of(arity, supports):
    return tuple(sorted(supports, key=lambda s: _exponents(arity, s)))


def ref_canon_str(arity, supports):
    if not supports:
        return f"R({arity}): 0"
    body = " + ".join("*".join(f"x{i}" for i in s) for s in ref_lambda_of(arity, supports))
    return f"R({arity}): {body}"


def _canonical_sort_key(poly):
    arity, supports = poly
    return (len(supports), tuple(_exponents(arity, s) for s in ref_lambda_of(arity, supports)))


def ref_enumerate_R(n):
    variables = range(1, n + 1)
    supports = []
    for size in range(1, n + 1):
        supports.extend(itertools.combinations(variables, size))
    polys = [
        (n, frozenset(chosen))
        for count in range(len(supports) + 1)
        for chosen in itertools.combinations(supports, count)
    ]
    polys.sort(key=_canonical_sort_key)
    return polys


def ref_type_of(supports):
    sizes = tuple(sorted(len(s) for s in supports))
    return TypeSignature(len(sizes), sizes)


def ref_is_nondegenerate(arity, supports):
    return len({i for s in supports for i in s}) == arity


def ref_eval_rpoly_bool(supports, bits):
    total = 0
    for support in supports:
        prod = 1
        for i in support:
            prod &= bits[i - 1]
        total |= prod
    return total


# ---------------------------------------------------------------------------
# Comparisons


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_enumeration_order_matches_reference(n):
    got = enumerate_R(n)
    want = ref_enumerate_R(n)
    assert [(f.arity, _supports(f)) for f in got] == want
    assert [canon_str(f) for f in got] == [ref_canon_str(*poly) for poly in want]


def test_lambda_order_and_printing_match_reference():
    for f in POLYS:
        supports = _supports(f)
        assert tuple(m.support for m in lambda_of(f)) == ref_lambda_of(f.arity, supports)
        assert tuple(m.mask for m in lambda_of(f)) == f.masks
        assert canon_str(f) == ref_canon_str(f.arity, supports)


def test_classification_matches_reference():
    for f in POLYS:
        supports = _supports(f)
        assert type_of(f) == ref_type_of(supports)
        assert is_nondegenerate(f) == ref_is_nondegenerate(f.arity, supports)


def _per_monomial_substitute(images, n, f):
    """`_substitute` as it read each monomial's image before image tables."""
    out = []
    for mask in f.masks:
        image = _image_mask(images, mask)
        if image is None:
            continue
        if image <= 0:
            return None
        out.append(image)
    return None if len(set(out)) != len(out) else _lambda_sorted(n, out)


def test_member_substitution_matches_the_integer_one():
    # substitute_images is compared with the Monomial-set loop in
    # test_polynomials; the per-monomial loop is `_substitute` before it read
    # one image table per map.
    pairs = 0
    for f in POLYS:
        for n in range(4):
            for images in itertools.product([0, -1, *range(1, n + 1)], repeat=f.arity):
                try:
                    member = to_rpoly(substitute_images(images, n, f))
                except NotInR:
                    member = None
                assert _substitute(images, n, f) == member == _per_monomial_substitute(images, n, f)
                pairs += 1
    assert pairs == 29136


@pytest.mark.parametrize("cap", [0, 1, 2, 3])
def test_all_morphisms_match_a_per_source_listing(cap):
    listed = tuple(
        RMorphism(f, phi, g)
        for m in range(cap + 1)
        for f in enumerate_R(m)
        for n in range(cap + 1)
        for phi in _all_maps(m, n)
        for g in [_per_monomial_substitute(phi.images, n, f)]
        if g is not None
    )
    assert _all_morphisms(cap) == listed


def test_boolean_evaluation_matches_reference():
    for f in POLYS:
        supports = _supports(f)
        for bits in itertools.product((0, 1), repeat=f.arity):
            assert eval_rpoly_bool(f, bits) == ref_eval_rpoly_bool(supports, bits)


def test_expand_labels_each_product_with_its_choices():
    pool = enumerate_R(0) + enumerate_R(1) + enumerate_R(2)
    for k in (1, 2):
        for g in enumerate_R(k):
            for args in itertools.product(pool, repeat=k):
                offset, slots = 0, []
                for a in args:
                    slots.append([m << offset for m in a.masks])
                    offset += a.arity
                rows = _expand(g.masks, slots)
                assert [key for _, _, key in rows] == _products(g.masks, slots)
                for idx, choice, key in rows:
                    used = [i for i in range(k) if g.masks[idx] >> i & 1]
                    assert key == sum(slots[i][t] for i, t in zip(used, choice))


def test_hash_does_not_depend_on_the_hash_seed():
    script = (
        "from ringops.polynomials import enumerate_R, lambda_of, rpoly\n"
        "polys = enumerate_R(2) + [rpoly(5, [(1, 2, 3), (1, 4), (5,)])]\n"
        "print([hash(f) for f in polys], [hash(m) for m in lambda_of(polys[-1])])\n"
    )
    src = str(Path(ringops.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1
