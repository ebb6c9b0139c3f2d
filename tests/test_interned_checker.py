"""The checkers read the operad through interned int tables (`_Interned`).

This file keeps the plain section generators that call the operad's `act`
and `gamma` on elements directly, as the differential reference, and shows
that both paths give the same reports: the same `checked`, `skipped`,
`sections` and `failure` text, the same E-infinity conditions, and the same
exception at the same instance.
"""
import itertools
import random
from functools import lru_cache

import pytest

from ringops.cli import main
from ringops.errors import ArityCapExceeded, ArityMismatch, NotAMorphism, RingopsError
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
    _all_morphisms,
    _arity_tuples,
    _blocks,
    _check_cap,
    _check_sections,
    _composition_shapes,
    _morphisms_within,
    _nondegenerate_objects,
    _poly_tuples,
    _run,
    boolean_rig_algebra,
    check_axioms,
    check_einfty_set,
    one_point_algebra,
    operad_to_table,
    strict_operad,
    validate_algebra,
)
from ringops.parsing import parse_fixture, serialize_fixture
from ringops.polynomials import compose, enumerate_R, type_of, unit_poly, zero_poly
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

    for g, fs in _composition_shapes(cap):
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
    for g, fs in _composition_shapes(cap):
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


@pytest.mark.parametrize("cap", [1, 2])
@pytest.mark.parametrize("name", sorted(OPERADS))
def test_axioms_match_the_reference(name, cap):
    report = _assert_same_axioms(OPERADS[name](), cap)
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


def test_dropped_tables_refill_alike(monkeypatch):
    from ringops import operads

    pruned = _pruned(_table("pset", 2), seed=7)
    expected = _fields(check_axioms(pruned, 2))
    monkeypatch.setattr(operads, "_TABLES_KEPT", 3)
    assert _fields(check_axioms(pruned, 2)) == expected


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


@pytest.mark.parametrize("algebra", [boolean_rig_algebra, one_point_algebra])
@pytest.mark.parametrize("name", ["strict", "pset"])
def test_algebra_matches_the_reference(name, algebra):
    operad = OPERADS[name]()
    interned = validate_algebra(operad, algebra(), 2)
    assert _fields(interned) == _fields(reference_validate_algebra(operad, algebra(), 2))
    assert interned.ok


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


@pytest.mark.parametrize("source, seed", [("strict", 1), ("strict", 2), ("pset", 1), ("pset", 2)])
def test_a_failing_row_raises_at_the_same_instance(source, seed):
    # A table filled eagerly per shape would raise at the first instance that
    # fetches the row's shape, before the instance that reads the row.
    table = _table(source, 2)
    key = random.Random(seed).choice(sorted(table._gamma_rows))
    operad = _BreaksOnOneRow(table, key)
    used = _raising_instance(check_axioms, operad)
    assert used == _raising_instance(reference_check_axioms, operad)


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
