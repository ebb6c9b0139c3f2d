import pytest

from ringops import operads
from ringops.cli import main
from ringops.errors import (
    ArityCapExceeded,
    ArityMismatch,
    PreconditionViolation,
    SearchBudgetExceeded,
)
from ringops.indexcat import E, ExtMap, enumerate_hom, validate
from ringops.operads import (
    Budget,
    CheckReport,
    DiscreteAlgebra,
    StrictRingOperad,
    TableRingOperad,
    boolean_rig_algebra,
    check_axioms,
    _has_common_cover,
    check_einfty_set,
    compute_L,
    eval_rpoly_bool,
    one_point_algebra,
    operad_to_table,
    product,
    strict_operad,
    validate_algebra,
    _Interned,
    _check_outer_equivariance,
    _run,
)
from ringops.polynomials import enumerate_R, rpoly, unit_poly, zero_poly
from ringops.terms import sset_operad


@pytest.fixture
def no_map_listed(monkeypatch):
    def untouchable(m, n):
        raise AssertionError("no map may be listed")

    monkeypatch.setattr(operads, "_all_maps", untouchable)


class TestStrict:
    def test_components_are_points(self):
        strict = strict_operad()
        for n in range(3):
            for f in enumerate_R(n):
                assert len(strict.component(f)) == 1

    def test_axioms_cap2(self):
        report = check_axioms(strict_operad(), cap=2)
        assert report.ok, report.failure
        assert report.checked > 0

    def test_condition4_counterexample(self):
        # the unique point cannot separate the identity from the swap
        strict = strict_operad()
        f = rpoly(2, [(1,), (2,)])
        ident = validate(f, ExtMap.identity(2), f)
        swap = validate(f, ExtMap(2, 2, (2, 1)), f)
        alpha = strict.component(f)[0]
        assert ident.map != swap.map
        assert strict.act(ident, alpha) == strict.act(swap, alpha)

    def test_einfty_pattern(self):
        report = check_einfty_set(strict_operad(), cap=2)
        assert report.conditions[1][0] == "not-applicable"
        assert report.conditions[2][0] == "pass"
        assert report.conditions[3][0] == "pass"
        assert report.conditions[4][0] == "fail"
        assert report.conditions[5][0] == "pass"
        assert not report.ok


class TestProduct:
    def test_sizes_multiply(self):
        sset = sset_operad("sym")
        both = product(strict_operad(), sset)
        for f in enumerate_R(2):
            assert len(both.component(f)) == len(sset.component(f))

    def test_product_of_strict_is_strict_sized(self):
        both = product(strict_operad(), strict_operad())
        for f in enumerate_R(2):
            assert len(both.component(f)) == 1

    def test_projections_commute_with_gamma(self):
        sset = sset_operad("sym")
        both = product(strict_operad(), sset)
        g = rpoly(2, [(1,), (2,)])
        f1, f2 = unit_poly(), rpoly(1, [(1,)])
        for g_elt in both.component(g):
            for x1 in both.component(f1):
                for x2 in both.component(f2):
                    combined = both.gamma(g, g_elt, [(f1, x1), (f2, x2)])
                    assert combined[1] == sset.gamma(
                        g, g_elt[1], [(f1, x1[1]), (f2, x2[1])]
                    )

    def test_product_passes_axioms_cap1(self):
        report = check_axioms(product(strict_operad(), sset_operad("sym")), cap=1)
        assert report.ok, report.failure


class TestTableOperads:
    def test_materialized_strict_passes(self):
        table = operad_to_table(strict_operad(), cap=1)
        report = check_axioms(table, cap=1)
        assert report.ok, report.failure

    def test_materialized_sset_passes(self):
        table = operad_to_table(sset_operad("sym"), cap=1)
        report = check_axioms(table, cap=1)
        assert report.ok, report.failure

    @pytest.mark.parametrize("cap", [-1, 0])
    def test_a_cap_without_the_unit_is_rejected(self, cap):
        with pytest.raises(PreconditionViolation, match=r"unit, which lives in R\(1\)"):
            operad_to_table(strict_operad(), cap)

    def test_a_cap_above_the_enumeration_cap_is_rejected_before_any_work(self):
        class Untouchable(StrictRingOperad):
            def component(self, f):
                raise AssertionError("no component may be read")

        with pytest.raises(ArityCapExceeded):
            operad_to_table(Untouchable(), 5)

    def test_checks_at_cap4_are_refused_before_any_morphism_is_listed(self, no_map_listed):
        pairs = r"74,571,517 \(source, map\) pairs"
        with pytest.raises(ArityCapExceeded, match=pairs):
            check_axioms(strict_operad(), 4, Budget(1000))
        with pytest.raises(ArityCapExceeded, match=pairs):
            check_einfty_set(strict_operad(), 4)

    @pytest.mark.parametrize("argv", [
        ["check", "axioms", "--builtin", "strict", "--cap", "4", "--budget", "1000"],
        ["check", "einfty", "--builtin", "strict", "--cap", "4"],
    ])
    def test_a_cli_check_at_cap4_exits_2_with_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: listing the morphisms at cap 4 would try 74,571,517")

    def test_a_budgeted_cap4_algebra_check_ends_in_associativity(self, no_map_listed):
        # the plan builds k's bitsets only when its first g is reached, and
        # equivariance, which lists the morphisms, is never reached
        with pytest.raises(SearchBudgetExceeded):
            validate_algebra(strict_operad(), boolean_rig_algebra(), 4, Budget(200000))

    def test_corrupted_gamma_fails_with_named_instance(self):
        source = operad_to_table(sset_operad("sym"), cap=2)
        rows = dict(source._gamma_rows)
        # redirect a composition with non-unit arguments onto the other
        # element of its target component
        target_key = None
        for (g_elt, args), value in sorted(rows.items()):
            home = {
                name: f for f, names in source._components.items() for name in names
            }
            target_poly = home[value]
            siblings = [n for n in source._components[target_poly] if n != value]
            if siblings and len(args) == 2 and args[0] != source._unit:
                target_key = (g_elt, args)
                rows[target_key] = siblings[0]
                break
        assert target_key is not None
        corrupted = TableRingOperad(
            source._components,
            source._unit,
            rows,
            source._action_rows,
            name="corrupted",
        )
        report = check_axioms(corrupted, cap=2)
        assert not report.ok
        assert report.failure is not None

    def test_missing_gamma_rows_are_skipped(self):
        table = operad_to_table(strict_operad(), cap=1)
        pruned = {
            key: value
            for key, value in table._gamma_rows.items()
            if key[1] == (table._unit,) or key[0] == table._unit
        }
        assert len(pruned) < len(table._gamma_rows)
        partial = TableRingOperad(
            table._components, table._unit, pruned, table._action_rows, name="partial"
        )
        report = check_axioms(partial, cap=1)
        assert report.ok, report.failure
        assert report.skipped > 0


class TestEinftyTermOperads:
    def test_sset_passes(self):
        report = check_einfty_set(sset_operad("sym"), cap=2)
        assert report.ok, report.conditions

    def test_pset_passes(self):
        report = check_einfty_set(sset_operad("biperm"), cap=2)
        assert report.ok, report.conditions


class TestComputeL:
    def test_top_level_is_empty(self):
        strict = strict_operad()
        f = rpoly(2, [(1,), (2,)])
        result = compute_L(strict, f, 2)
        assert result == {f: frozenset()}

    def test_no_objects_below_minimum_arity(self):
        strict = strict_operad()
        f = rpoly(2, [(1,), (2,)])
        assert compute_L(strict, f, 1) == {}

    def test_strict_saturation_is_everything_reachable(self):
        strict = strict_operad()
        f = rpoly(3, [(1,), (2, 3)])
        result = compute_L(strict, f, 2)
        assert set(result) == {
            rpoly(2, [(1,), (1, 2)]),
            rpoly(2, [(2,), (1, 2)]),
        }
        for subset in result.values():
            assert subset == frozenset({"*"})

    def test_sset_saturation_is_stable_under_action(self):
        sset = sset_operad("sym")
        f = rpoly(3, [(1,), (2, 3)])
        result = compute_L(sset, f, 2)
        for g, subset in result.items():
            assert subset <= set(sset.component(g))
            for mor in enumerate_hom(g, g, "nondegenerate"):
                assert {sset.act(mor, x) for x in subset} <= subset


class TestAlgebras:
    def test_boolean_over_strict(self):
        report = validate_algebra(strict_operad(), boolean_rig_algebra(), cap=2)
        assert report.ok, report.failure
        assert report.checked == 1269
        assert sum(report.sections.values()) == report.checked
        assert list(report.sections) == ["unit", "associativity", "equivariance"]

    def test_one_point(self):
        report = validate_algebra(strict_operad(), one_point_algebra(), cap=2)
        assert report.ok, report.failure
        assert report.checked == 383
        assert sum(report.sections.values()) == report.checked

    def test_boolean_evaluation(self):
        f = rpoly(2, [(1,), (1, 2)])
        assert eval_rpoly_bool(f, (0, 0)) == 0
        assert eval_rpoly_bool(f, (1, 0)) == 1
        assert eval_rpoly_bool(f, (1, 1)) == 1
        assert eval_rpoly_bool(zero_poly(2), (1, 1)) == 0

    def test_corrupted_theta_fails(self):
        good = boolean_rig_algebra()

        def bad_theta(f, elt, xs):
            if f.arity == 2 and len(f.monomials) == 1 and xs == (1, 1):
                return 0
            return good.theta(f, elt, xs)

        bad = DiscreteAlgebra(good.carrier, good.zero, good.e, bad_theta)
        report = validate_algebra(strict_operad(), bad, cap=2)
        assert not report.ok
        assert report.failure is not None


class _BrokenFiller(StrictRingOperad):
    """Composing with one basepoint's filler gives a stray element."""

    def __init__(self, broken):
        self.broken = broken

    def zero_element(self, n):
        return "zero"

    def unit_element(self):
        return "unit"

    def act(self, mor, elt):
        return elt

    def _gamma(self, g, g_elt, args):
        return "stray" if any(x == self.broken for _, x in args) else self.POINT


class TestOuterEquivariance:
    @pytest.mark.parametrize(
        "broken, basepoint, other, prefix",
        [
            ("zero", 0, E, "collapse equivariance fails for"),
            ("unit", E, 0, "singular equivariance fails for"),
        ],
    )
    def test_broken_filler_fails_its_diagram_only(self, broken, basepoint, other, prefix):
        operad = _BrokenFiller(broken)
        report = CheckReport("broken", True, 0, 0, None)
        view = _Interned(operad)
        _, violation = _run(_check_outer_equivariance(view, 2, report, basepoint), Budget())
        assert violation is not None and violation.startswith(prefix), violation
        _, violation = _run(_check_outer_equivariance(view, 2, report, other), Budget())
        assert violation is None, violation


class TestBudget:
    def test_budget_aborts(self):
        tiny = Budget(limit=10)
        with pytest.raises(SearchBudgetExceeded):
            check_axioms(strict_operad(), cap=2, budget=tiny)


class TestErrorClasses:
    def test_gamma_argument_count(self):
        with pytest.raises(ArityMismatch):
            strict_operad().gamma(rpoly(2, [(1, 2)]), "*", [(unit_poly(), "*")])

    def test_cover_search_arity_cap(self):
        f = rpoly(3, [(1, 2, 3), (1, 2)])  # special representative of arity 5
        with pytest.raises(ArityCapExceeded):
            _has_common_cover(_Interned(strict_operad()), f, 0, f, 0)
