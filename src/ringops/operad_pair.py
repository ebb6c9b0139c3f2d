"""Finite classical operads and their translation into ring operads.

An operad pair is an additive operad C, a multiplicative operad G and a
distributivity action lam: G(k) x C(j_1) x ... x C(j_k) -> C(j_1 * ... * j_k).
The translated ring operad assigns to a polynomial f the product of C at the
monomial count with one G-factor per monomial, acts through restrictions
along the induced monomial maps, and composes by diagonal duplication, lam,
both structure maps and a final reordering onto the composite's monomial
order.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ArityMismatch, PreconditionViolation
from .indexcat import RMorphism, induced_lambda_maps
from .operads import DiscreteRingOperad
from .polynomials import RPoly, _block_offsets, _expand, compose, gamma_of, lambda_of


class FiniteOperad:
    """A classical operad with finite components and a permutation action.

    act(j, x, sigma) is the right action: the result reads input sigma(i)
    where x read input i, so act(act(x, sigma), tau) = act(x, tau o sigma).
    gamma composes with the usual block bookkeeping.  component(0) must be a
    single point so that restrictions are defined.
    """

    name = "operad"

    def component(self, j: int) -> tuple:
        raise NotImplementedError

    def identity_element(self):
        raise NotImplementedError

    def act(self, j: int, elt, sigma: tuple[int, ...]):
        raise NotImplementedError

    def gamma(self, elt, args: Sequence[tuple[int, object]]):
        raise NotImplementedError

    def zero_ary(self):
        component = self.component(0)
        if len(component) != 1:
            raise PreconditionViolation(
                f"{self.name} needs a unique 0-ary element, found {len(component)}"
            )
        return component[0]


class TerminalOperad(FiniteOperad):
    name = "terminal"
    POINT = "*"

    def component(self, j: int) -> tuple:
        return (self.POINT,)

    def identity_element(self):
        return self.POINT

    def act(self, j, elt, sigma):
        return self.POINT

    def gamma(self, elt, args):
        return self.POINT


class PermutationOperad(FiniteOperad):
    """The associativity operad: component(j) is the set of permutations.

    Elements are stored as reading words: the tuple lists input indices in
    evaluation order, so the identity on j inputs is (1, ..., j).
    """

    name = "sigma"

    def component(self, j: int) -> tuple:
        return tuple(sorted(itertools.permutations(range(1, j + 1))))

    def identity_element(self):
        return (1,)

    def act(self, j, elt, sigma):
        if sorted(sigma) != list(range(1, j + 1)):
            raise ArityMismatch(f"{sigma} is not a permutation of 1..{j}")
        return tuple(sigma[letter - 1] for letter in elt)

    def gamma(self, elt, args):
        offsets, _ = _block_offsets(j for j, _ in args)
        word = []
        for letter in elt:
            j, inner = args[letter - 1]
            word.extend(offsets[letter - 1] + w for w in inner)
        return tuple(word)


def terminal_operad() -> TerminalOperad:
    return TerminalOperad()


def permutation_operad() -> PermutationOperad:
    return PermutationOperad()


class TableFiniteOperad(FiniteOperad):
    """A classical operad given by explicit component, action and gamma rows."""

    def __init__(
        self,
        components: dict[int, Sequence[str]],
        identity_name: str,
        sigma_rows: dict[tuple[str, tuple[int, ...]], str],
        gamma_rows: dict[tuple[str, tuple[str, ...]], str],
        name: str = "table",
    ):
        self.name = name
        self._components = {j: tuple(elts) for j, elts in components.items()}
        self._identity = identity_name
        self._sigma_rows = dict(sigma_rows)
        self._gamma_rows = dict(gamma_rows)

    def component(self, j: int) -> tuple:
        if j not in self._components:
            raise PreconditionViolation(f"{self.name} has no component for arity {j}")
        return self._components[j]

    def identity_element(self):
        return self._identity

    def act(self, j, elt, sigma):
        if sigma == tuple(range(1, j + 1)):
            return elt
        key = (elt, tuple(sigma))
        if key not in self._sigma_rows:
            raise PreconditionViolation(f"missing sigma row for {key}")
        return self._sigma_rows[key]

    def gamma(self, elt, args):
        key = (elt, tuple(x for _, x in args))
        if key not in self._gamma_rows:
            raise PreconditionViolation(f"missing gamma row for {key}")
        return self._gamma_rows[key]


def restriction(operad: FiniteOperad, u: Sequence[int], m: int) -> Callable:
    """The map component(m) -> component(k) induced by an injection u: k -> m.

    Permutes so that the image of u occupies the first k slots in order, then
    composes against identities in the kept slots and the unique 0-ary
    element in the missed slots.
    """
    u = tuple(u)
    k = len(u)
    if len(set(u)) != k or any(not 1 <= i <= m for i in u):
        raise ArityMismatch(f"{u} is not an injection into 1..{m}")
    missed = [i for i in range(1, m + 1) if i not in set(u)]
    sigma = [0] * m
    for t, i in enumerate(u, start=1):
        sigma[i - 1] = t
    for offset, i in enumerate(missed, start=k + 1):
        sigma[i - 1] = offset
    sigma = tuple(sigma)
    identity = operad.identity_element()
    filler = operad.zero_ary()
    args = [(1, identity)] * k + [(0, filler)] * (m - k)

    def restrict(elt):
        return operad.gamma(operad.act(m, elt, sigma), args)

    return restrict


@dataclass(frozen=True)
class OperadPairData:
    """An additive operad, a multiplicative operad, and the action lam.

    lam(g_elt, args) takes a multiplicative element of arity k and k additive
    elements tagged with their arities, landing in the additive component of
    the product arity.
    """

    additive: FiniteOperad
    multiplicative: FiniteOperad
    lam: Callable[[object, Sequence[tuple[int, object]]], object]


def terminal_pair() -> OperadPairData:
    t = terminal_operad()
    return OperadPairData(t, t, lambda g, args: TerminalOperad.POINT)


def terminal_sigma_pair() -> OperadPairData:
    """Terminal additive with the permutation operad multiplying.

    The action lam is uniquely determined because its target is a point.
    """
    return OperadPairData(
        terminal_operad(), permutation_operad(), lambda g, args: TerminalOperad.POINT
    )


class PairRingOperad(DiscreteRingOperad):
    """The ring operad translated from an operad pair.

    Component elements are pairs (c, gs): c in the additive component at the
    monomial count, gs one multiplicative element per monomial in lambda
    order.
    """

    def __init__(self, pair: OperadPairData, name: str = "rcg"):
        self.pair = pair
        self.name = name

    def component(self, f: RPoly) -> tuple:
        lam_f = lambda_of(f)
        c_pool = self.pair.additive.component(len(lam_f))
        g_pools = [self.pair.multiplicative.component(len(m.support)) for m in lam_f]
        return tuple(
            (c, gs)
            for c in c_pool
            for gs in itertools.product(*g_pools)
        )

    def unit_element(self):
        return (
            self.pair.additive.identity_element(),
            (self.pair.multiplicative.identity_element(),),
        )

    def act(self, mor: RMorphism, elt):
        c, gs = elt
        source_order = lambda_of(mor.source)
        target_order = lambda_of(mor.target)
        maps = induced_lambda_maps(mor)
        source_rank = {m: i for i, m in enumerate(source_order)}
        c_injection = [source_rank[maps.phi_prime[J]] + 1 for J in target_order]
        new_c = restriction(self.pair.additive, c_injection, len(source_order))(c)
        new_gs = []
        for J in target_order:
            source_mono = maps.phi_prime[J]
            variable_map = maps.per_monomial[J]
            source_support = gamma_of(source_mono)
            positions = [
                source_support.index(variable_map[j]) + 1 for j in gamma_of(J)
            ]
            restrict = restriction(
                self.pair.multiplicative, positions, len(source_support)
            )
            new_gs.append(restrict(gs[source_rank[source_mono]]))
        return (new_c, tuple(new_gs))

    def _gamma(self, f, elt, args):
        c, gs = elt
        arg_polys = [p for p, _ in args]
        arg_elts = [x for _, x in args]
        lam_f, arg_lams, composite, generated = _pair_expansion(f, arg_polys)
        rank = {m.support: i for i, m in enumerate(lambda_of(composite))}

        # additive layer: lam per monomial of f, then the structure map
        blocks = []
        for idx, mono in enumerate(lam_f):
            lam_args = [
                (len(arg_lams[i - 1]), arg_elts[i - 1][0]) for i in mono.support
            ]
            width = math.prod(j for j, _ in lam_args)
            blocks.append((width, self.pair.lam(gs[idx], lam_args)))
        raw_c = self.pair.additive.gamma(c, blocks)
        total = sum(width for width, _ in blocks)

        # multiplicative layer per generated composite monomial
        new_gs: list = [None] * len(rank)
        for idx, choice, key in generated:
            g_args = [
                (len(arg_lams[i - 1][t].support), arg_elts[i - 1][1][t])
                for i, t in zip(lam_f[idx].support, choice)
            ]
            new_gs[rank[key]] = self.pair.multiplicative.gamma(gs[idx], g_args)

        # shuffle the additive slots from generated order onto lambda order
        sigma = tuple(rank[key] + 1 for _, _, key in generated)
        new_c = self.pair.additive.act(total, raw_c, sigma) if total else raw_c
        return (new_c, tuple(new_gs))


def _pair_expansion(f: RPoly, arg_polys: Sequence[RPoly]):
    """Lambda orders of f and its arguments, the composite, and the composite
    monomials as generated: outer monomial by outer monomial in lambda order,
    then one argument monomial per slot, each in lambda order."""
    lam_f = lambda_of(f)
    arg_lams = [lambda_of(p) for p in arg_polys]
    offsets, _ = _block_offsets(p.arity for p in arg_polys)
    slots = [
        [tuple(v + offset for v in m.support) for m in lam]
        for lam, offset in zip(arg_lams, offsets)
    ]
    composite = compose(f, arg_polys)
    generated = list(_expand([m.support for m in lam_f], slots))
    if len(generated) != len(composite.monomials):
        raise ArityMismatch("composite monomial bookkeeping out of step")
    return lam_f, arg_lams, composite, generated


def build_RCG(pair: OperadPairData, name: str = "rcg") -> PairRingOperad:
    return PairRingOperad(pair, name)


def component_signature(pair: OperadPairData, f: RPoly) -> str:
    """Readable factor listing: C at the monomial count, one G per monomial."""
    lam_f = lambda_of(f)
    factors = [f"C({len(lam_f)})"] + [f"G({len(m.support)})" for m in lam_f]
    return " x ".join(factors)


def composition_plan(f: RPoly, arg_polys: Sequence[RPoly]) -> dict:
    """Describe the maps a pair composition uses, without elements.

    Returns the multiplicative rows (one per composite monomial, in the
    composite's lambda order) and the additive row.
    """
    lam_f, arg_lams, composite, generated = _pair_expansion(f, arg_polys)
    order = {m.support: i for i, m in enumerate(lambda_of(composite))}
    g_rows = []
    for idx, choice, _key in sorted(generated, key=lambda row: order[row[2]]):
        support = lam_f[idx].support
        sizes = [len(support)] + [
            len(arg_lams[i - 1][t].support) for i, t in zip(support, choice)
        ]
        g_rows.append(
            "G(" + ") x G(".join(str(s) for s in sizes) + f") -> G({sum(sizes[1:])})"
        )
    lam_rows = []
    widths = []
    for mono in lam_f:
        factors = [len(arg_lams[i - 1]) for i in mono.support]
        width = math.prod(factors)
        widths.append(width)
        lam_rows.append(
            f"G({len(mono.support)})"
            + "".join(f" x C({k})" for k in factors)
            + f" -> C({width})"
        )
    c_row = (
        f"C({len(lam_f)})"
        + "".join(f" x C({w})" for w in widths)
        + f" -> C({sum(widths)})"
    )
    return {
        "multiplicative": g_rows,
        "lambda": lam_rows,
        "additive": c_row,
        "composite": composite,
    }
