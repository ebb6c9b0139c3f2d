"""The checkers read the operad through interned int tables (`_Interned`).

This file keeps the plain section generators that call the operad's `act`
and `gamma` on elements directly, as the differential reference, and shows
that both paths give the same reports: the same `checked`, `skipped`,
`sections` and `failure` text, the same E-infinity conditions, and the same
exception at the same instance.
"""
import dataclasses
import gc
import itertools
import math
import random
import weakref
from functools import lru_cache, partial

import pytest

from ringops import operads
from ringops.cli import main
from ringops.errors import (
    ArityCapExceeded,
    ArityMismatch,
    NotAMorphism,
    RingopsError,
    SearchBudgetExceeded,
)
from ringops.indexcat import (
    E,
    ExtMap,
    block_sum,
    component_objects,
    enumerate_hom,
    special_of_type,
    validate,
)
from ringops.operad_pair import build_RCG, terminal_pair, terminal_sigma_pair
from ringops.operads import (
    Budget,
    CheckReport,
    EinftyReport,
    GammaUndefined,
    StrictRingOperad,
    TableRingOperad,
    _OUTER_DIAGRAMS,
    _SKIP,
    _Interned,
    _algebra_equivariance as _interned_algebra_equivariance,
    _all_morphisms,
    _arity_tuples,
    _blocks,
    _check_cap,
    _check_sections,
    _composition_blocks,
    _composition_shapes,
    _morphisms_within,
    _nondegenerate_objects,
    _poly_tuples,
    _run,
    _Thetas,
    boolean_rig_algebra,
    check_axioms,
    check_einfty_set,
    one_point_algebra,
    operad_to_table,
    strict_operad,
    validate_algebra,
)
from ringops.parsing import parse_fixture, serialize_fixture
from ringops.polynomials import compose, enumerate_R, rpoly, type_of, unit_poly, zero_poly
from ringops.terms import sset_operad


# ---------------------------------------------------------------------------
# The reference: every section calls the operad on elements.


def _check_zero_components(operad, cap):
    for n in range(cap + 1):
        size = len(operad.component(zero_poly(n)))
        yield None if size == 1 else f"component of 0_{n} has {size} elements"


def _check_functoriality(operad, cap):
    morphisms = _all_morphisms(cap)
    by_source = {}
    for mor in morphisms:
        by_source.setdefault(mor.source, []).append(mor)
    for f in dict.fromkeys(m.source for m in morphisms):
        ident = validate(f, ExtMap.identity(f.arity), f)
        for elt in operad.component(f):
            got = operad.act(ident, elt)
            yield None if got == elt else f"identity action moved {elt!r} over {f}"
    for first in morphisms:
        for second in by_source.get(first.target, ()):
            combined = first.then(second)
            for elt in operad.component(first.source):
                step = operad.act(first, elt)
                if step not in operad.component(first.target):
                    yield f"action left the target component at {elt!r}"
                    continue
                via_steps = operad.act(second, step)
                direct = operad.act(combined, elt)
                if via_steps != direct:
                    yield (
                        f"action not functorial on {first.map} then {second.map} "
                        f"at {elt!r}"
                    )
                else:
                    target_comp = operad.component(combined.target)
                    yield None if direct in target_comp else (
                        f"action left the target component at {elt!r}"
                    )


def _check_units(operad, cap, report):
    unit = unit_poly()
    eta = operad.unit_element()
    for k in range(1, cap + 1):
        for g in enumerate_R(k):
            for elt in operad.component(g):
                try:
                    right = operad.gamma(g, elt, [(unit, eta)] * k)
                except GammaUndefined:
                    report.skipped += 1
                    continue
                yield None if right == elt else f"gamma(c; unit^{k}) != c at {elt!r} over {g}"
    for n in range(cap + 1):
        for g in enumerate_R(n):
            for elt in operad.component(g):
                try:
                    left = operad.gamma(unit, eta, [(g, elt)])
                except GammaUndefined:
                    report.skipped += 1
                    continue
                yield None if left == elt else f"gamma(unit; c) != c at {elt!r} over {g}"


def _composites(operad, g, fs, pool, report):
    for g_elt in pool(g):
        for f_elts in itertools.product(*(pool(f) for f in fs)):
            try:
                composed = operad.gamma(g, g_elt, list(zip(fs, f_elts)))
            except GammaUndefined:
                report.skipped += 1
                continue
            yield g_elt, f_elts, composed


def _check_associativity(operad, cap, report):
    component_cache = {}

    def pool(f):
        elements = component_cache.get(f)
        if elements is None:
            elements = operad.component(f)
            component_cache[f] = elements
        return elements

    for g, fs, _ in _composition_shapes(cap):
        composite = compose(g, fs)
        blocks, total = _blocks(fs)
        tops = list(_composites(operad, g, fs, pool, report))
        for hs in _poly_tuples(total, cap):
            inner_targets = [
                compose(fs[s], hs[a:b]) if b > a else fs[s]
                for s, (a, b) in enumerate(blocks)
            ]
            h_pools = [pool(h) for h in hs]
            for g_elt, f_elts, top in tops:
                for h_elts in itertools.product(*h_pools):
                    try:
                        lhs = operad.gamma(composite, top, list(zip(hs, h_elts)))
                        nested = [
                            operad.gamma(fs[s], f_elts[s], list(zip(hs[a:b], h_elts[a:b])))
                            for s, (a, b) in enumerate(blocks)
                        ]
                        rhs = operad.gamma(g, g_elt, list(zip(inner_targets, nested)))
                    except GammaUndefined:
                        report.skipped += 1
                        continue
                    if lhs != rhs:
                        yield (
                            f"associativity fails for g={g}, args={[str(f) for f in fs]}, "
                            f"inner={[str(h) for h in hs]} at ({g_elt!r}, {f_elts!r}, {h_elts!r}): "
                            f"{lhs!r} != {rhs!r}"
                        )
                    else:
                        yield None


def _check_outer_equivariance(operad, cap, report, basepoint):
    name, map_name, covers, filler_poly, filler, reindex = _OUTER_DIAGRAMS[basepoint]
    filler_arg = (filler_poly, filler(operad))
    for mor in _morphisms_within(cap):
        psi = mor.map
        if not covers(psi):
            continue
        for fs in _poly_tuples(mor.target.arity, cap):
            slot_polys = [filler_poly if v == basepoint else fs[v - 1] for v in psi.images]
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
            pools = [operad.component(f) for f in fs]
            for c in operad.component(mor.source):
                moved = operad.act(mor, c)
                for xs in itertools.product(*pools):
                    slot_args = [
                        filler_arg if v == basepoint else (fs[v - 1], xs[v - 1])
                        for v in psi.images
                    ]
                    try:
                        lhs = operad.gamma(mor.target, moved, list(zip(fs, xs)))
                        rhs = operad.act(chi_mor, operad.gamma(mor.source, c, slot_args))
                    except GammaUndefined:
                        report.skipped += 1
                        continue
                    yield None if lhs == rhs else (
                        f"{name} equivariance fails for {psi} on {mor.source} "
                        f"with args {[str(f) for f in fs]} at {c!r}, {xs!r}"
                    )


def _check_equivariance_arguments(operad, cap, report):
    morphisms = _all_morphisms(cap)
    by_shape = {}
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
                        elt_pools = [operad.component(f) for f in fs]
                        for c in operad.component(g):
                            for xs in itertools.product(*elt_pools):
                                try:
                                    lhs = operad.act(bmor, operad.gamma(g, c, list(zip(fs, xs))))
                                    rhs = operad.gamma(
                                        g, c, [(hs[s], operad.act(mors[s], xs[s])) for s in range(k)]
                                    )
                                except GammaUndefined:
                                    report.skipped += 1
                                    continue
                                if lhs != rhs:
                                    yield (
                                        f"argument equivariance fails for g={g}, "
                                        f"maps={[str(m.map) for m in mors]} at {c!r}, {xs!r}"
                                    )
                                else:
                                    yield None


def reference_check_axioms(operad, cap=2, budget=None):
    _check_cap(cap)
    report = CheckReport(f"axioms:{operad.name}@cap{cap}", True, 0, 0, None)
    return _check_sections(report, budget or Budget(), (
        ("zero-components", _check_zero_components(operad, cap)),
        ("functoriality", _check_functoriality(operad, cap)),
        ("units", _check_units(operad, cap, report)),
        ("associativity", _check_associativity(operad, cap, report)),
        ("equivariance-collapse", _check_outer_equivariance(operad, cap, report, 0)),
        ("equivariance-singular", _check_outer_equivariance(operad, cap, report, E)),
        ("equivariance-arguments", _check_equivariance_arguments(operad, cap, report)),
    ))


def _einfty_condition2(operad, cap):
    for mor in _all_morphisms(cap):
        if not mor.map.is_injective_setmap:
            continue
        source = operad.component(mor.source)
        images = {operad.act(mor, elt) for elt in source}
        target = set(operad.component(mor.target))
        yield None if len(images) == len(source) and images == target else (
            f"action along {mor.map} from {mor.source} is not a bijection"
        )


def _einfty_condition3(operad, cap):
    objects = _nondegenerate_objects(cap)
    for g in objects:
        arrows = []
        for f in objects:
            for mor in enumerate_hom(f, g, "effective"):
                arrows.append((f, mor))
        for (f1, m1), (f2, m2) in itertools.product(arrows, repeat=2):
            for a1 in operad.component(f1):
                for a2 in operad.component(f2):
                    coincide = operad.act(m1, a1) == operad.act(m2, a2)
                    yield None if not coincide or _has_common_cover(
                        operad, f1, a1, m1, f2, a2, m2
                    ) else (
                        f"no non-degenerate cover for {a1!r} over {f1} and "
                        f"{a2!r} over {f2} coinciding in {g}"
                    )


def _has_common_cover(operad, f1, a1, m1, f2, a2, m2):
    if type_of(f1) != type_of(f2):
        return False
    special = special_of_type(type_of(f1))
    if special.arity > 4:
        raise ArityCapExceeded(f"cover search bound {special.arity} exceeds the enumeration cap")
    for arity in range(max(f1.arity, f2.arity), special.arity + 1):
        for h in component_objects(f1, arity):
            homs1 = enumerate_hom(h, f1, "nondegenerate")
            homs2 = enumerate_hom(h, f2, "nondegenerate")
            if not homs1 or not homs2:
                continue
            for beta in operad.component(h):
                for psi1 in homs1:
                    if operad.act(psi1, beta) != a1:
                        continue
                    for psi2 in homs2:
                        if operad.act(psi2, beta) == a2:
                            return True
    return False


def _einfty_condition4(operad, cap):
    objects = _nondegenerate_objects(cap)
    for f in objects:
        for n in range(cap + 1):
            for g in enumerate_R(n):
                homs = enumerate_hom(f, g, "effective")
                for m1, m2 in itertools.combinations(homs, 2):
                    for alpha in operad.component(f):
                        yield None if operad.act(m1, alpha) != operad.act(m2, alpha) else (
                            f"distinct effective maps {m1.map} and {m2.map} from "
                            f"{f} to {g} agree on {alpha!r}"
                        )


def _einfty_condition5(operad, cap):
    objects = _nondegenerate_objects(cap)
    for f in objects:
        for g in objects:
            for mor in enumerate_hom(f, g, "nondegenerate"):
                elts = operad.component(f)
                images = {operad.act(mor, elt) for elt in elts}
                yield None if len(images) == len(elts) else (
                    f"action along {mor.map} from {f} to {g} is not injective"
                )


def reference_check_einfty_set(operad, cap=2, budget=None):
    _check_cap(cap)
    budget = budget or Budget()
    conditions = {1: ("not-applicable", "contractibility is out of scope at the set level")}
    for num, condition in (
        (2, _einfty_condition2),
        (3, _einfty_condition3),
        (4, _einfty_condition4),
        (5, _einfty_condition5),
    ):
        _, violation = _run(condition(operad, cap), budget)
        conditions[num] = ("pass", "") if violation is None else ("fail", violation)
    return EinftyReport(operad.name, cap, conditions)


def _algebra_unit(operad, algebra):
    unit = unit_poly()
    eta = operad.unit_element()
    for x in algebra.carrier:
        got = algebra.theta(unit, eta, (x,))
        yield None if got == x else f"theta(unit)({x!r}) != {x!r}"


def _algebra_associativity(operad, algebra, cap, report):
    for g, fs, _ in _composition_shapes(cap):
        composite = compose(g, fs)
        blocks, total = _blocks(fs)
        for g_elt, f_elts, composed in _composites(operad, g, fs, operad.component, report):
            for xs in itertools.product(algebra.carrier, repeat=total):
                lhs = algebra.theta(composite, composed, xs)
                inner = tuple(
                    algebra.theta(fs[s], f_elts[s], xs[a:b]) for s, (a, b) in enumerate(blocks)
                )
                rhs = algebra.theta(g, g_elt, inner)
                yield None if lhs == rhs else (
                    f"g={g}, args={[str(f) for f in fs]}, xs={xs!r}: {lhs!r} != {rhs!r}"
                )


def _algebra_equivariance(operad, algebra, cap):
    fillers = {0: algebra.zero, E: algebra.e}
    for mor in _all_morphisms(cap):
        for c in operad.component(mor.source):
            moved = operad.act(mor, c)
            for xs in itertools.product(algebra.carrier, repeat=mor.target.arity):
                pulled = tuple(fillers[v] if v in fillers else xs[v - 1] for v in mor.map.images)
                lhs = algebra.theta(mor.target, moved, xs)
                rhs = algebra.theta(mor.source, c, pulled)
                yield None if lhs == rhs else f"map {mor.map} from {mor.source}: {lhs!r} != {rhs!r}"


def reference_validate_algebra(operad, algebra, cap=2, budget=None):
    _check_cap(cap)
    report = CheckReport(f"algebra over {operad.name}@cap{cap}", True, 0, 0, None)
    return _check_sections(report, budget or Budget(), (
        ("unit", _algebra_unit(operad, algebra)),
        ("associativity", _algebra_associativity(operad, algebra, cap, report)),
        ("equivariance", _algebra_equivariance(operad, algebra, cap)),
    ))


# ---------------------------------------------------------------------------
# Differential tests


def _fields(report):
    return report.ok, report.checked, report.skipped, report.sections, report.failure


def _assert_same_axioms(operad, cap):
    interned = check_axioms(operad, cap)
    assert _fields(interned) == _fields(reference_check_axioms(operad, cap))
    return interned


OPERADS = {
    "strict": strict_operad,
    "pset": lambda: sset_operad("biperm"),
    "rcg-terminal": lambda: build_RCG(terminal_pair(), "rcg-terminal"),
    "rcg-sigma": lambda: build_RCG(terminal_sigma_pair(), "rcg-sigma"),
}


@lru_cache(maxsize=None)
def _builtin_reference(name, cap):
    """The reference report of a builtin, computed once per test session."""
    return _fields(reference_check_axioms(OPERADS[name](), cap))


@pytest.mark.parametrize("cap", [1, 2])
@pytest.mark.parametrize("name", sorted(OPERADS))
def test_axioms_match_the_reference(name, cap):
    report = check_axioms(OPERADS[name](), cap)
    assert _fields(report) == _builtin_reference(name, cap)
    assert report.ok and report.skipped == 0


def test_sset_axioms_match_the_reference_at_cap1():
    assert _assert_same_axioms(sset_operad("sym"), 1).checked == 98


@lru_cache(maxsize=None)
def _table(name, cap):
    return operad_to_table(OPERADS[name](), cap)


def _pruned(table, seed):
    """The table less a seeded ninth of its gamma rows."""
    rows = dict(table._gamma_rows)
    for key in random.Random(seed).sample(sorted(rows), len(rows) // 9):
        del rows[key]
    return TableRingOperad(table._components, table._unit, rows, table._action_rows, "pruned")


@pytest.mark.parametrize("source", ["strict", "pset"])
def test_missing_gamma_rows_skip_alike(source):
    pruned = _pruned(_table(source, 2), seed=6)
    report = _assert_same_axioms(pruned, 2)
    assert report.ok and report.skipped > 0


@pytest.mark.parametrize("source", ["pruned", "pset"])
def test_dropped_tables_refill_alike(source, monkeypatch):
    # The pruned table replays blocks; pset settles its blocks on row ids.
    operad = _pruned(_table("pset", 2), seed=7) if source == "pruned" else OPERADS["pset"]()
    expected = _fields(check_axioms(operad, 2))
    monkeypatch.setattr(operads, "_TABLES_KEPT", 3)
    assert _fields(check_axioms(operad, 2)) == expected


def _mutants(table, count, seed):
    """Seeded single-row mutants: one gamma or act row sent to another element
    of its own component, or of any component when its own is a point."""
    rng = random.Random(seed)
    for kind in ("gamma", "act"):
        rows = table._gamma_rows if kind == "gamma" else table._action_rows
        for key in rng.sample(sorted(rows, key=repr), count):
            home = table._components[table._home[rows[key]]]
            names = home if len(home) > 1 else sorted(table._home)
            wrong = rng.choice([name for name in names if name != rows[key]])
            gamma_rows, action_rows = dict(table._gamma_rows), dict(table._action_rows)
            (gamma_rows if kind == "gamma" else action_rows)[key] = wrong
            yield kind, TableRingOperad(
                table._components, table._unit, gamma_rows, action_rows, f"{kind}-mutant"
            )


def _outcome(check, operad, cap):
    """The report's fields, or the exception raised and the instance it hit."""
    budget = Budget()
    try:
        return _fields(check(operad, cap, budget))
    except RingopsError as err:
        return type(err), str(err), budget.used


def test_single_row_mutants_fail_alike():
    table = _table("pset", 1)
    for kind, mutant in _mutants(table, 6, seed=6):
        outcome = _outcome(check_axioms, mutant, 1)
        assert outcome == _outcome(reference_check_axioms, mutant, 1), kind
        assert outcome[0] is not True, kind


def test_mutants_of_a_bigger_table_fail_alike():
    # pset at cap 2 has components of 2, 6 and 20 elements
    table = _table("pset", 2)
    for kind, mutant in _mutants(table, 2, seed=7):
        report = check_axioms(mutant, 2)
        assert _fields(report) == _fields(reference_check_axioms(mutant, 2)), kind
        assert not report.ok, kind


@pytest.mark.parametrize("name", ["strict", "pset", "rcg-sigma"])
def test_einfty_matches_the_reference(name):
    operad = OPERADS[name]()
    assert check_einfty_set(operad, 2).conditions == reference_check_einfty_set(operad, 2).conditions


ALGEBRA_OPERADS = {"sset": lambda: sset_operad("sym"), **OPERADS}


@pytest.mark.parametrize("algebra", [boolean_rig_algebra, one_point_algebra])
@pytest.mark.parametrize("name", ["strict", "pset", "sset"])
def test_algebra_matches_the_reference(name, algebra):
    operad = ALGEBRA_OPERADS[name]()
    interned = validate_algebra(operad, algebra(), 2)
    assert _fields(interned) == _fields(reference_validate_algebra(operad, algebra(), 2))
    assert interned.ok


@pytest.mark.parametrize("algebra", [boolean_rig_algebra, one_point_algebra])
@pytest.mark.parametrize("name", ["strict", "pset"])
def test_algebra_matches_the_reference_at_cap1(name, algebra):
    operad = OPERADS[name]()
    interned = validate_algebra(operad, algebra(), 1)
    assert _fields(interned) == _fields(reference_validate_algebra(operad, algebra(), 1))
    assert interned.ok


@pytest.mark.parametrize("source", ["strict", "pset"])
def test_algebra_skips_missing_gamma_rows_alike(source):
    pruned = _pruned(_table(source, 2), seed=6)
    report = validate_algebra(pruned, boolean_rig_algebra(), 2)
    assert _fields(report) == _fields(reference_validate_algebra(pruned, boolean_rig_algebra(), 2))
    assert report.ok and report.skipped > 0


def _assert_raises_alike(operad):
    """Both algebra checks raise the broken row's error, with equal budgets used."""
    raised = []
    for check in (validate_algebra, reference_validate_algebra):
        budget = Budget()
        with pytest.raises(RingopsError) as err:
            check(operad, boolean_rig_algebra(), 2, budget)
        raised.append((type(err.value), str(err.value), budget.used))
    assert raised[0] == raised[1]
    assert raised[0][:2] == (RingopsError, "broken row")


@pytest.mark.parametrize("source, seed", [("strict", 1), ("pset", 1), ("pset", 4)])
def test_a_failing_row_raises_alike_in_the_algebra_check(source, seed):
    table = _table(source, 2)
    _assert_raises_alike(_BreaksOnOneRow(table, random.Random(seed).choice(sorted(table._gamma_rows))))


@pytest.mark.parametrize("place", ["first", "middle", "last"])
def test_a_failing_row_raises_alike_anywhere_in_a_block(place):
    # The associativity blocks are (g, arity tuple) pairs of the plan, built
    # whole with c outermost; a block that raises is replayed composite by
    # composite from its start.
    table = _table("pset", 2)
    g, shapes = next(
        (g, shapes) for g, shapes in _composition_blocks(2)
        if len(shapes) > 2 and len(table.component(g)) > 1
    )
    rows = [
        (c, xs)
        for c in table.component(g)
        for fs, _ in shapes
        for xs in itertools.product(*map(table.component, fs))
    ]
    key = rows[{"first": 0, "middle": len(rows) // 2, "last": -1}[place]]
    _assert_raises_alike(_BreaksOnOneRow(table, key))


@pytest.mark.parametrize("name", ["strict", "pset", "sset"])
def test_the_theta_row_memo_holds_one_g_at_a_time(name, monkeypatch):
    # Every block of a passing cap-2 check is settled whole on theta-row ids,
    # and `over` holds rows of the block's own g only, and none after the run.
    operad = ALGEBRA_OPERADS[name]()
    view, algebra = _Interned(operad), boolean_rig_algebra()
    thetas = _Thetas(view, algebra)
    handed = []

    def blocks(cap):
        for g, shapes in _composition_blocks(cap):
            handed.append(g)
            yield g, shapes

    monkeypatch.setattr(operads, "_composition_blocks", blocks)
    report = CheckReport("", True, 0, 0, None)
    verdicts = []
    for verdict in operads._algebra_associativity(view, algebra, 2, report, thetas):
        verdicts.append(verdict)
        assert {g for g, _ in thetas.over} == {handed[-1]}
    assert not thetas.over
    assert len(verdicts) == len(handed) == 54
    assert all(type(verdict) is int for verdict in verdicts)
    assert sum(verdicts) == _fields(validate_algebra(operad, algebra, 2))[3]["associativity"]


def _reference_sides(view, g, shapes, thetas):
    """Both sides of an associativity block built one shape at a time: the
    argument pairs and theta-row ids of each shape come from its own fs."""
    ids = thetas.ids
    lhs, rhs = [], []
    for c in view.component[g]:
        gamma = partial(view.gamma_id, g, view.elements[c])
        for fs, composite in shapes:
            pairs = [[(f, view.elements[x]) for x in view.component[f]] for f in fs]
            composed = [gamma(args) for args in itertools.product(*pairs)]
            if _SKIP in composed:
                return None
            lhs += [ids[composite][x] for x in composed]
        for fs, _ in shapes:
            rids = [[ids[f][x] for x in view.component[f]] for f in fs]
            rhs += [thetas.over[g, c][key] for key in itertools.product(*rids)]
    return lhs, rhs


@pytest.mark.parametrize("name, algebra, cap", [
    ("strict", boolean_rig_algebra, 2),
    ("strict", one_point_algebra, 2),
    ("pset", boolean_rig_algebra, 2),
    ("pset", one_point_algebra, 2),
    ("sset", boolean_rig_algebra, 2),
    ("sset", one_point_algebra, 2),
    ("strict", boolean_rig_algebra, 3),
])
def test_every_block_has_the_sides_of_the_per_shape_reference(name, algebra, cap, monkeypatch):
    # The argument keys are shared by every block of an arity tuple; each
    # block's sides still equal those built from its own shapes.  Both
    # builders share one view and one theta-row interner, so equal rows
    # have equal ids.  sset components reach 40 elements, so the shapes of
    # a block hold different counts of argument tuples.
    operad = ALGEBRA_OPERADS[name]()
    view, algebra = _Interned(operad), algebra()
    thetas = _Thetas(view, algebra)
    sides, compared = operads._algebra_sides, []

    def checked_sides(view, g, shapes, thetas, keys, arities):
        built = sides(view, g, shapes, thetas, keys, arities)
        compared.append((built, _reference_sides(view, g, shapes, thetas), len(shapes)))
        return built

    monkeypatch.setattr(operads, "_algebra_sides", checked_sides)
    report = CheckReport("", True, 0, 0, None)
    verdicts = list(operads._algebra_associativity(view, algebra, cap, report, thetas))
    assert len(compared) == len(verdicts) == sum(1 for _ in _composition_blocks(cap))
    assert sum(count for *_, count in compared) == sum(1 for _ in _composition_shapes(cap))
    for built, reference, _ in compared:
        assert built is not None and built == reference and built[0] == built[1]
    if name == "sset":
        assert len({len(operad.component(f)) for f in enumerate_R(2)}) > 1


def test_the_argument_keys_are_built_once_per_arity_tuple(monkeypatch):
    # 34 arity tuples at cap 3, each built once for the whole run; when one
    # is built, every key still held is of its k.
    class Keys(list):
        pass

    argument_keys, built, held = operads._argument_keys, [], []

    def counted_keys(view, thetas, k, arities):
        held.append((len(arities), {len(a) for a, ref in built if ref() is not None}))
        keys = Keys(argument_keys(view, thetas, k, arities))
        built.append((arities, weakref.ref(keys)))
        return keys

    monkeypatch.setattr(operads, "_argument_keys", counted_keys)
    report = validate_algebra(strict_operad(), boolean_rig_algebra(), 3)
    assert (report.ok, report.checked) == (True, 612400)
    assert [a for a, _ in built] == [a for k in (1, 2, 3) for a in _arity_tuples(k, 3)]
    assert len(built) == 34
    assert all(live <= {k} for k, live in held)
    assert {len(a) for a, ref in built if ref() is not None} == set()


def test_the_algebra_check_keeps_no_gamma_table(monkeypatch):
    # Each gamma row of the algebra check is read once, so it is fetched
    # through the view's row function, never through a per-shape table.
    def no_table(view, g, fs):
        raise AssertionError(f"gamma table fetched for {g}")

    monkeypatch.setattr(_Interned, "gamma_table", no_table)
    assert validate_algebra(OPERADS["pset"](), boolean_rig_algebra(), 2).ok


@pytest.mark.slow
def test_the_cap3_algebra_check_leaves_the_compose_cache_alone():
    # The composites come from the shape plan: without it, every one of the
    # 70,750 cap-3 shapes would leave an entry in compose's cache.
    from ringops.polynomials import _compose_intpoly

    _compose_intpoly.cache_clear()
    report = validate_algebra(strict_operad(), boolean_rig_algebra(), 3)
    assert _fields(report) == (
        True, 612400, 0, {"unit": 2, "associativity": 541074, "equivariance": 71324}, None
    )
    assert _compose_intpoly.cache_info().currsize < 1000


@pytest.mark.slow
@pytest.mark.parametrize("algebra", [boolean_rig_algebra, one_point_algebra])
def test_strict_algebra_matches_the_reference_at_cap3(algebra):
    interned = validate_algebra(strict_operad(), algebra(), 3)
    assert _fields(interned) == _fields(reference_validate_algebra(strict_operad(), algebra(), 3))
    assert interned.ok


# The interned algebra sections check a block of carrier tuples at a time: one
# composite (c, xs, composed), or one (morphism, c) pair.  A corrupted theta
# must fail at the same instance, wherever in its block that instance lies.


def _wrong_at(algebra, poly, values, element=None):
    """The boolean rig with theta flipped at one (poly, values), and at one
    element of poly's component when `element` is given."""

    def theta(f, elt, xs):
        got = algebra.theta(f, elt, xs)
        hit = f == poly and tuple(xs) == values and element in (None, elt)
        return 1 - got if hit else got

    return dataclasses.replace(algebra, theta=theta)


def _single_point_corruptions(cap):
    for n in range(cap + 1):
        for poly in enumerate_R(n):
            for values in itertools.product((0, 1), repeat=n):
                yield poly, values


def _place_in_block(sizes, index):
    """(position, block size) of instance `index` among blocks of `sizes`."""
    start = 0
    for size in sizes:
        if index < start + size:
            return index - start, size
        start += size
    raise AssertionError(f"instance {index} lies past the last block")


def _place_kind(position, size):
    return "first" if position == 0 else "last" if position == size - 1 else "middle"


def test_single_point_corruptions_fail_alike():
    # Every one-point flip of the boolean rig's theta over R(0..2): the
    # strict cap-2 blocks have one composite per shape, so their sizes are
    # known, and the flips land at the first, a middle and the last tuple of
    # associativity blocks and at the last tuple of equivariance blocks.
    sizes = {
        "associativity": [2 ** composite.arity for _, _, composite in _composition_shapes(2)],
        "equivariance": [2 ** mor.target.arity for mor in _all_morphisms(2)],
    }
    places = set()
    for poly, values in _single_point_corruptions(2):
        algebra = _wrong_at(boolean_rig_algebra(), poly, values)
        report = validate_algebra(strict_operad(), algebra, 2)
        assert _fields(report) == _fields(reference_validate_algebra(strict_operad(), algebra, 2))
        section = report.failure and report.failure.split(":")[0]
        if section in sizes:
            index = report.checked - 1 - sum(report.sections.values())
            position, size = _place_in_block(sizes[section], index)
            if size > 2:
                places.add((section, _place_kind(position, size)))
    assert places >= {
        ("associativity", "first"), ("associativity", "middle"), ("associativity", "last"),
        ("equivariance", "last"),
    }


def test_equivariance_blocks_fail_alike():
    # The equivariance section on its own, against the per-tuple reference:
    # run after associativity, most flips never reach it.
    sizes = [2 ** mor.target.arity for mor in _all_morphisms(2)]
    places = set()
    for poly, values in _single_point_corruptions(2):
        algebra = _wrong_at(boolean_rig_algebra(), poly, values)
        view = _Interned(strict_operad())
        got = _run(_interned_algebra_equivariance(view, algebra, 2, _Thetas(view, algebra)), Budget())
        assert got == _run(_algebra_equivariance(strict_operad(), algebra, 2), Budget())
        if got[1] is not None:
            position, size = _place_in_block(sizes, got[0] - 1)
            if size > 2:
                places.add(_place_kind(position, size))
    assert places == {"first", "middle", "last"}


@pytest.mark.parametrize("seed", range(4))
def test_corrupted_pset_thetas_fail_alike(seed):
    # pset components have several elements, so a flip at one element of a
    # component leaves the others' rows intact.
    operad = OPERADS["pset"]()
    rng = random.Random(seed)
    poly = rng.choice(enumerate_R(2))
    element = rng.choice(operad.component(poly))
    values = rng.choice(list(itertools.product((0, 1), repeat=2)))
    algebra = _wrong_at(boolean_rig_algebra(), poly, values, element)
    report = validate_algebra(operad, algebra, 2)
    assert _fields(report) == _fields(reference_validate_algebra(operad, algebra, 2))


# Each sum, with the instances its cap-3 check counts up to the failing one.
_DIAGONAL_FLIPS = {rpoly(2, [(1,), (2,)]): 5634, rpoly(2, [(1,), (2,), (1, 2)]): 5658}


@pytest.mark.parametrize("poly", list(_DIAGONAL_FLIPS))
def test_a_theta_flip_on_a_sum_diagonal_passes_cap2_and_fails_cap3(poly):
    # A known gap in the algebra check's power: theta flipped at the diagonal
    # tuple (1, 1) of these sums holds every cap-2 diagram, and the first
    # diagram to catch it is a cap-3 associativity instance.
    algebra = _wrong_at(boolean_rig_algebra(), poly, (1, 1))
    assert _fields(validate_algebra(strict_operad(), algebra, 2)) == (
        True, 1269, 0, {"unit": 2, "associativity": 786, "equivariance": 481}, None
    )
    report = validate_algebra(strict_operad(), algebra, 3)
    assert not report.ok
    assert (report.checked, report.skipped) == (_DIAGONAL_FLIPS[poly], 0)
    assert report.failure == (
        f"associativity: g=R(2): x2, args=['R(1): 0', '{poly}'], xs=(0, 1, 1): 1 != 0"
    )


def _composite_place(operad, cap, index):
    """(position, count) of the composite holding associativity instance
    `index` among the composites of its (g, arity tuple) block."""
    start = 0
    for g, shapes in _composition_blocks(cap):
        sizes = [
            2 ** composite.arity
            for fs, composite in shapes
            for _ in range(len(operad.component(g)) * math.prod(len(operad.component(f)) for f in fs))
        ]
        for position, size in enumerate(sizes):
            if index < start + size:
                return position, len(sizes)
            start += size
    raise AssertionError(f"instance {index} lies past the last block")


@pytest.mark.parametrize("poly, element, values, place", [
    (zero_poly(2), "0", (0, 0), "first"),
    (rpoly(2, [(2,)]), "x2", (1, 1), "middle"),
    (rpoly(2, [(1, 2)]), "(x2 * x1)", (0, 1), "last"),
])
def test_theta_flips_fail_alike_anywhere_in_a_block(poly, element, values, place):
    # pset blocks hold several composites per argument tuple, so a flip at
    # one element fails at one composite of a block settled whole elsewhere.
    operad = OPERADS["pset"]()
    (elt,) = [x for x in operad.component(poly) if str(x) == element]
    algebra = _wrong_at(boolean_rig_algebra(), poly, values, elt)
    report = validate_algebra(operad, algebra, 2)
    assert _fields(report) == _fields(reference_validate_algebra(operad, algebra, 2))
    assert report.failure.startswith("associativity: ")
    index = report.checked - 1 - sum(report.sections.values())
    position, count = _composite_place(operad, 2, index)
    assert count > 2 and _place_kind(position, count) == place


class _ThetaBroke(RingopsError):
    pass


@pytest.mark.parametrize("poly, values", [
    (unit_poly(), (1,)),
    (zero_poly(2), (1, 0)),
    (rpoly(2, [(1, 2)]), (1, 1)),
])
def test_a_raising_theta_raises_alike(poly, values):
    algebra = boolean_rig_algebra()

    def theta(f, elt, xs):
        if f == poly and tuple(xs) == values:
            raise _ThetaBroke(f"theta broke at {f} {xs!r}")
        return algebra.theta(f, elt, xs)

    broken = dataclasses.replace(algebra, theta=theta)
    raised = []
    for check in (validate_algebra, reference_validate_algebra):
        budget = Budget()
        with pytest.raises(RingopsError) as err:
            check(strict_operad(), broken, 2, budget)
        raised.append((type(err.value), str(err.value), budget.used))
    (new_type, new_text, new_used), (ref_type, ref_text, ref_used) = raised
    assert (new_type, new_text) == (ref_type, ref_text) == (_ThetaBroke, f"theta broke at {poly} {values!r}")
    # a block is ticked only once all of its tuples are evaluated
    assert new_used <= ref_used


# ---------------------------------------------------------------------------
# Edge semantics of the view


class _LeavesTheTarget(StrictRingOperad):
    """Every non-identity morphism sends the point outside every component."""

    def act(self, mor, elt):
        return elt if mor.map == ExtMap.identity(mor.source.arity) else "outside"


def test_an_action_outside_the_target_component_fails():
    report = _assert_same_axioms(_LeavesTheTarget(), 2)
    assert report.failure == "functoriality: action left the target component at '*'"


STRICT_CAP1_ROW = "act R(1): x1 |{1->0}| R(0): 0 : e2 -> e0"


def test_a_fixture_act_row_outside_its_target_component_fails(tmp_path, capsys):
    # e1 lies in the component of 0_1, not of the target 0_0
    text = serialize_fixture(operad_to_table(strict_operad(), 1))
    assert STRICT_CAP1_ROW in text
    mutant = text.replace(STRICT_CAP1_ROW, STRICT_CAP1_ROW.replace("-> e0", "-> e1"))
    report = _assert_same_axioms(parse_fixture(mutant), 1)
    assert report.failure == "functoriality: action left the target component at 'e2'"
    path = tmp_path / "mutant.fixture"
    path.write_text(mutant)
    assert main(["check", "axioms", "--fixture", str(path), "--cap", "1"]) == 1
    assert capsys.readouterr().err == ""


class _BreaksOnOneRow(TableRingOperad):
    """A table whose gamma raises a plain RingopsError on one row."""

    def __init__(self, table, key):
        super().__init__(
            table._components, table._unit, table._gamma_rows, table._action_rows, "broken"
        )
        self.key = key

    def _gamma(self, g, g_elt, args):
        if (g_elt, tuple(x for _, x in args)) == self.key:
            raise RingopsError("broken row")
        return super()._gamma(g, g_elt, args)


def _raising_instance(check, operad):
    budget = Budget()
    with pytest.raises(RingopsError, match="^broken row$"):
        check(operad, 2, budget)
    return budget.used


# pset seeds 1, 2, 4 and 7 pick rows that an associativity block of 120, 120,
# 6 and 400 instances first reads at its instance 112, 40, 4 and 48: the
# whole-block build meets the raise first, and the replay must raise it again
# at that instance.  Every gamma row of a cap-2 table is first read by units
# or associativity, so the later sections are covered one at a time below.
@pytest.mark.parametrize("source, seed", [
    ("strict", 1), ("strict", 2), ("pset", 1), ("pset", 2), ("pset", 4), ("pset", 7),
])
def test_a_failing_row_raises_at_the_same_instance(source, seed):
    # A table filled eagerly per shape would raise at the first instance that
    # fetches the row's shape, before the instance that reads the row.
    table = _table(source, 2)
    key = random.Random(seed).choice(sorted(table._gamma_rows))
    operad = _BreaksOnOneRow(table, key)
    used = _raising_instance(check_axioms, operad)
    assert used == _raising_instance(reference_check_axioms, operad)


def _spy_blocks(monkeypatch, budget=None):
    """Record every block the blocked sections meet, as [size, budget used]
    when it is offered to `_holds_whole`, plus the report's skipped count
    when its per-instance replay starts."""
    blocks = []
    holds_whole = operads._holds_whole

    def holds_spied(size, sides, *args):
        blocks.append([size, budget and budget.used])
        return holds_whole(size, sides, *args)

    monkeypatch.setattr(operads, "_holds_whole", holds_spied)
    for name in ("_associativity_instances", "_outer_instances", "_argument_instances"):

        def replay_spied(view, report, *args, replay=getattr(operads, name)):
            blocks[-1].append(report.skipped)
            yield from replay(view, report, *args)

        monkeypatch.setattr(operads, name, replay_spied)
    return blocks


@pytest.mark.parametrize("prune_seed, mutant_seed", [(6, 3), (7, 1)])
def test_a_failure_after_skips_in_its_block_reads_alike(prune_seed, mutant_seed, monkeypatch):
    # Gamma mutants of a pruned pset table whose first failure sits in a
    # block of several instances, after skipped ones: the replay must count
    # those skips and word the failure as the per-instance reference does.
    blocks = _spy_blocks(monkeypatch)
    mutants = _mutants(_pruned(_table("pset", 2), prune_seed), 2, mutant_seed)
    gamma_mutants = [mutant for kind, mutant in mutants if kind == "gamma"]
    for mutant in gamma_mutants:
        report = check_axioms(mutant, 2)
        assert _fields(report) == _fields(reference_check_axioms(mutant, 2))
        size, _, skipped_before = blocks[-1]
        assert report.failure.startswith("associativity: ")
        assert size > 1 and report.skipped > skipped_before


# The later blocked sections, each run alone on a fresh view, with the
# reference section on the same operad.
BLOCKED_SECTIONS = {
    "equivariance-collapse": (
        lambda view, report: operads._check_outer_equivariance(view, 2, report, 0),
        lambda operad, report: _check_outer_equivariance(operad, 2, report, 0),
    ),
    "equivariance-singular": (
        lambda view, report: operads._check_outer_equivariance(view, 2, report, E),
        lambda operad, report: _check_outer_equivariance(operad, 2, report, E),
    ),
    "equivariance-arguments": (
        lambda view, report: operads._check_equivariance_arguments(view, 2, report),
        lambda operad, report: _check_equivariance_arguments(operad, 2, report),
    ),
}


@pytest.mark.parametrize("section, seed", [
    ("equivariance-collapse", 9), ("equivariance-singular", 11), ("equivariance-arguments", 8),
])
def test_a_row_raising_mid_block_in_a_later_section_raises_alike(section, seed, monkeypatch):
    table = _table("pset", 2)
    operad = _BreaksOnOneRow(table, random.Random(seed).choice(sorted(table._gamma_rows)))
    interned, reference = BLOCKED_SECTIONS[section]
    budget, reference_budget = Budget(), Budget()
    blocks = _spy_blocks(monkeypatch, budget)
    with pytest.raises(RingopsError, match="^broken row$"):
        _run(interned(_Interned(operad), CheckReport("", True, 0, 0, None)), budget)
    with pytest.raises(RingopsError, match="^broken row$"):
        _run(reference(operad, CheckReport("", True, 0, 0, None)), reference_budget)
    assert budget.used == reference_budget.used
    size, start = blocks[-1][:2]  # the block the raise landed in, built whole first
    assert size > 1 and 0 < budget.used - start < size


PSET_BUDGETS = {
    1: "error: exhaustive check exceeded budget of 1 instances\n",
    3: "error: exhaustive check exceeded budget of 3 instances\n",
    50_000: "error: exhaustive check exceeded budget of 50000 instances\n",
    402_831: "error: exhaustive check exceeded budget of 402831 instances\n",
}


@pytest.mark.parametrize("budget", [1, 3, 50_000, 402_831, 402_832])
def test_pset_budget_boundaries(budget, capsys):
    argv = ["check", "axioms", "--builtin", "pset", "--cap", "2", "--budget", str(budget)]
    code = main(argv)
    out, err = capsys.readouterr()
    if budget in PSET_BUDGETS:
        assert (code, out, err) == (2, "", PSET_BUDGETS[budget])
    else:
        assert (code, err) == (0, "")
        assert out == "[axioms:pset@cap2] pass (402832 instances, 0 skipped)\n"


# check algebra at cap 2 holds 2 unit, 786 associativity and 481 equivariance
# instances; at cap 3 the associativity blocks of 8 tuples start at instance
# 39 (after 2 unit instances and blocks of 1, 2 and 4 tuples).
ALGEBRA_BUDGETS = {2: (1, 2, 3, 100, 787, 788, 1268, 1269), 3: (39, 40, 43, 46, 47)}


@pytest.mark.parametrize("cap, budget", [
    (cap, budget) for cap, budgets in ALGEBRA_BUDGETS.items() for budget in budgets
])
def test_algebra_budget_boundaries(cap, budget, capsys):
    code = main(["check", "algebra", "--cap", str(cap), "--budget", str(budget)])
    out, err = capsys.readouterr()
    if budget < 1269 or cap == 3:
        assert (code, out, err) == (
            2, "", f"error: exhaustive check exceeded budget of {budget} instances\n"
        )
    else:
        assert (code, err) == (0, "")
        assert out == "[algebra over strict@cap2] pass (1269 instances, 0 skipped)\n"
    # in process, a block ticked past the budget stops where single ticks do
    outcomes = []
    for check in (validate_algebra, reference_validate_algebra):
        spent = Budget(budget)
        try:
            outcomes.append(_fields(check(strict_operad(), boolean_rig_algebra(), cap, spent)))
        except SearchBudgetExceeded as exc:
            outcomes.append((str(exc), spent.used))
    assert outcomes[0] == outcomes[1]
    if code == 2:
        assert outcomes[0][1] == budget + 1


def test_a_block_tick_stops_where_single_ticks_do():
    budget = Budget(5)
    assert _run(iter([None, 3, None]), budget) == (5, None)
    with pytest.raises(SearchBudgetExceeded):
        budget.tick(4)
    assert budget.used == 6
    assert _run(iter([2, 0, "bad", None]), Budget()) == (3, "bad")


# ---------------------------------------------------------------------------
# The associativity row memo: rows are interned once per run and shared by
# every block that reads them, as a left side or as a nested slot.


def _shared_row(table):
    """A gamma row key (x, ys) of `table` inside the composed row
    gamma(p; x, ys) over hs that the left side of two or more (g, fs) and a
    nested slot of some block read.  The row has several entries, p and
    p(hs) have components of several elements, and the units section reads
    none of its entries."""
    left, nested = {}, set()
    for g, fs, composite in _composition_shapes(2):
        blocks, total = _blocks(fs)
        tops = {
            table.gamma(g, c, list(zip(fs, xs)))
            for c in table.component(g)
            for xs in itertools.product(*map(table.component, fs))
        }
        for hs in _poly_tuples(total, 2):
            for top in tops:
                left.setdefault((composite, hs, top), set()).add((g, fs))
            for f, (a, b) in zip(fs, blocks):
                nested.update((f, hs[a:b], x) for x in table.component(f))
    p, hs, x = min(
        (p, hs, x) for (p, hs, x), readers in left.items()
        if len(readers) > 1 and (p, hs, x) in nested and p != unit_poly()
        and any(h != unit_poly() for h in hs)
        and math.prod(len(table.component(h)) for h in hs) > 1
        and min(len(table.component(p)), len(table.component(compose(p, hs)))) > 1
    )
    ys = list(itertools.product(*map(table.component, hs)))
    return x, ys[len(ys) // 2]


def _every_verdict(section):
    """The instances a section found to hold, and all its violations in order."""
    holds, violations = 0, []
    for verdict in section:
        if isinstance(verdict, str):
            violations.append(verdict)
        else:
            holds += 1 if verdict is None else verdict
    return holds, violations


def test_a_mutated_shared_row_fails_alike_in_every_block():
    table = _table("pset", 2)
    key = _shared_row(table)
    rows = dict(table._gamma_rows)
    home = table._components[table._home[rows[key]]]
    rows[key] = next(name for name in home if name != rows[key])
    mutant = TableRingOperad(table._components, table._unit, rows, table._action_rows, "shared")
    report = check_axioms(mutant, 2)
    assert _fields(report) == _fields(reference_check_axioms(mutant, 2))
    assert report.failure.startswith("associativity: ")
    # past the first violation: every block that reads the row fails alike
    interned_report, reference_report = (CheckReport("", True, 0, 0, None) for _ in range(2))
    interned = _every_verdict(operads._check_associativity(_Interned(mutant), 2, interned_report))
    assert interned == _every_verdict(_check_associativity(mutant, 2, reference_report))
    assert len(interned[1]) > 1 and interned_report.skipped == reference_report.skipped == 0


def test_a_shared_row_that_raises_raises_alike():
    operad = _BreaksOnOneRow(_table("pset", 2), _shared_row(_table("pset", 2)))
    used = _raising_instance(check_axioms, operad)
    assert used == _raising_instance(reference_check_axioms, operad)
    # pset's associativity section runs past its first 3 + 8,406 + 83 instances
    assert 8_492 < used <= 8_492 + 291_773


def test_every_block_of_a_passing_check_holds_whole(monkeypatch):
    # A block of several instances is replayed only when it fails, skips or
    # raises, so on an operad that passes none is.
    blocks = _spy_blocks(monkeypatch)
    assert check_axioms(OPERADS["pset"](), 2).ok
    whole = [block for block in blocks if block[0] > 1]
    assert len(whole) > 1000 and all(len(block) == 2 for block in whole)


def test_a_check_leaves_no_reference_cycles():
    # The view's tables close over locals, never over the view, so a
    # finished check leaves nothing for the cycle collector.
    operad = OPERADS["pset"]()
    gc.collect()
    gc.disable()
    try:
        assert check_axioms(operad, 2).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


# sset at cap 2 holds 1,397,784 instances; its associativity section spans
# instances 12,557 to 1,152,177, in blocks settled on row ids.
@pytest.mark.parametrize("budget", [12_556, 12_557, 600_000, 1_152_177, 1_152_178])
def test_sset_budget_boundaries(budget, capsys):
    argv = ["check", "axioms", "--builtin", "sset", "--cap", "2", "--budget", str(budget)]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: exhaustive check exceeded budget of {budget} instances\n"
    )
    spent = Budget(budget)
    with pytest.raises(SearchBudgetExceeded):
        check_axioms(sset_operad("sym"), 2, spent)
    assert spent.used == budget + 1


# ---------------------------------------------------------------------------
# The check plan: operad-independent data shared by every run at a cap.


@pytest.fixture
def cold_plan():
    """An empty plan memo before the test and after it, so that nothing a
    test puts in the plan reaches another test."""
    operads._check_plan.cache_clear()
    yield
    operads._check_plan.cache_clear()


def _plan_cases():
    """(label, operad, cap): the builtins, a pruned table with skips, a table
    whose gamma raises on one row, and seeded single-row mutants."""
    cases = [(name, OPERADS[name](), 2) for name in ("strict", "rcg-terminal", "rcg-sigma", "pset")]
    cases.append(("pruned", _pruned(_table("pset", 2), seed=6), 2))
    table = _table("pset", 2)
    key = random.Random(2).choice(sorted(table._gamma_rows))
    cases.append(("raises", _BreaksOnOneRow(table, key), 2))
    for i, (kind, mutant) in enumerate(_mutants(_table("pset", 1), 3, seed=6)):
        cases.append((f"{kind}-mutant-{i}@cap1", mutant, 1))
    for i, (kind, mutant) in enumerate(_mutants(_table("pset", 2), 1, seed=7)):
        cases.append((f"{kind}-mutant-{i}@cap2", mutant, 2))
    return cases


@lru_cache(maxsize=None)
def _plan_references():
    return {
        label: _builtin_reference(label, cap) if label in OPERADS
        else _outcome(reference_check_axioms, operad, cap)
        for label, operad, cap in _plan_cases()
    }


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_runs_on_a_cold_and_a_warm_plan_match_the_reference(order, cold_plan):
    expected = _plan_references()
    cases = _plan_cases()
    if order == "reverse":
        cases.reverse()
    assert any(outcome[0] is RingopsError for outcome in expected.values())
    assert any(outcome[0] is True and outcome[2] > 0 for outcome in expected.values())
    for label, operad, cap in cases:
        operads._check_plan.cache_clear()
        assert _outcome(check_axioms, operad, cap) == expected[label], ("cold", label)
    for label, operad, cap in cases:
        assert _outcome(check_axioms, operad, cap) == expected[label], ("warm", label)


def test_plan_entries_are_the_canonical_morphisms(cold_plan):
    assert check_axioms(OPERADS["pset"](), 2).ok
    plan = operads._check_plan(2)
    canonical = {id(mor) for mor in _all_morphisms(2)}
    entries = [mor for _, mor in plan.identities]
    for memo in (plan.combined, plan.outer, plan.arguments):
        entries += [mor for block in memo.values() for mor in block if mor is not None]
    assert len(entries) == 11 + 2_639 + 1_969 + 240 + 5_120
    assert {id(mor) for mor in entries} <= canonical
    assert all(id(first) in canonical for first in plan.combined)


def _not_a_morphism(real, width):
    """`real`, except that each map onto `width` variables sends every
    position to e, so that no composite with a monomial maps onto a target."""

    def reindex(*args):
        chi = real(*args)
        if chi.target_size != width:
            return chi
        return ExtMap(chi.source_size, chi.target_size, (E,) * chi.source_size)

    return reindex


@pytest.mark.parametrize("section", ["collation", "tilde", "block sum"])
def test_a_plan_map_that_is_no_morphism_fails_alike_cold_and_warm(section, cold_plan, monkeypatch):
    if section == "block sum":
        bad = _not_a_morphism(block_sum, 2)
        monkeypatch.setattr(operads, "block_sum", bad)
        monkeypatch.setitem(globals(), "block_sum", bad)
    else:
        basepoint = 0 if section == "collation" else E
        *words, reindex = _OUTER_DIAGRAMS[basepoint]
        monkeypatch.setitem(_OUTER_DIAGRAMS, basepoint, (*words, _not_a_morphism(reindex, 2)))
    expected = _outcome(reference_check_axioms, strict_operad(), 2)
    assert expected[0] is False and f"{section} " in expected[4]
    assert expected[1] > sum(expected[3].values()) + 1  # not the first instance of its section
    for _ in ("cold", "warm"):
        assert _outcome(check_axioms, strict_operad(), 2) == expected


def _plan_memos(plan):
    return {
        "functoriality": plan.combined, "associativity": plan.inner,
        "outer": plan.outer, "arguments": plan.arguments,
    }


def test_plan_memos_drop_their_blocks_at_the_bound(cold_plan, monkeypatch):
    # With small bounds, every memo of a cap-2 run drops its blocks several
    # times; they are built again alike, and no memo passes either bound.
    # The plan does not depend on the operad, so strict's run reads all of it.
    expected = _fields(check_axioms(strict_operad(), 2))
    monkeypatch.setattr(operads, "_TABLES_KEPT", 5)
    monkeypatch.setattr(operads, "_PLAN_ENTRIES_KEPT", 40)
    operads._check_plan.cache_clear()
    largest = dict.fromkeys(_plan_memos(operads._check_plan(2)), 0)
    clear = operads._Tables.clear

    def spied_clear(held):
        for name, memo in _plan_memos(operads._check_plan(2)).items():
            if memo is held:
                largest[name] = max(largest[name], len(memo))
                assert len(memo) <= 5 and memo.entries < 40 + max(map(len, memo.values()))
        clear(held)

    monkeypatch.setattr(operads._Tables, "clear", spied_clear)
    for _ in range(2):
        assert _fields(check_axioms(strict_operad(), 2)) == expected
    assert all(largest.values()), largest


@pytest.mark.slow
def test_plan_memos_stay_bounded_at_cap3(cold_plan):
    # The budget runs out in the last section, equivariance-arguments, after
    # every other section of strict at cap 3 has run whole.
    budget = Budget(4 + 1_272_201 + 277 + 36_137_030 + 3_327_284 + 72_886 + 100_000)
    with pytest.raises(SearchBudgetExceeded):
        check_axioms(strict_operad(), 3, budget)
    for name, memo in _plan_memos(operads._check_plan(3)).items():
        assert 0 < len(memo) <= operads._TABLES_KEPT, name
        assert memo.entries < operads._PLAN_ENTRIES_KEPT + max(map(len, memo.values())), name
