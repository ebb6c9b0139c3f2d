import json

import pytest

from ringops.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestPolyCommands:
    def test_enumerate_count(self, capsys):
        code, out = run(capsys, "poly", "enumerate", "--arity", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 8

    def test_enumerate_deterministic(self, capsys):
        _, first = run(capsys, "poly", "enumerate", "--arity", "2")
        _, second = run(capsys, "poly", "enumerate", "--arity", "2")
        assert first == second

    def test_member_failure_exit_code(self, capsys):
        code, out = run(capsys, "poly", "member", "R(1): x1 + x1")
        assert code == 1

    def test_member_ok(self, capsys):
        code, out = run(capsys, "poly", "member", "R(2): x1*x2")
        assert code == 0

    def test_compose(self, capsys):
        code, out = run(
            capsys,
            "poly", "compose",
            "R(2): x1 + x1*x2", "R(2): x1 + x1*x2", "R(2): x1*x2",
        )
        assert code == 0
        assert out.strip() == "R(4): x1 + x1*x3*x4 + x1*x2 + x1*x2*x3*x4"

    def test_type_and_special(self, capsys):
        code, out = run(capsys, "poly", "type", "R(5): x5 + x1*x4 + x1*x2*x3")
        assert code == 0 and out.strip() == "(3; 1,2,3)"
        code, out = run(capsys, "poly", "special", "(2; 1,2)")
        assert code == 0 and out.strip() == "R(3): x2*x3 + x1"

    def test_json_output(self, capsys):
        code, out = run(capsys, "--json", "poly", "enumerate", "--arity", "1")
        payload = json.loads(out)
        assert code == 0 and payload["count"] == 2


class TestCatCommands:
    def test_hom(self, capsys):
        code, out = run(capsys, "cat", "hom", "R(1): x1", "R(1): x1")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_decompose(self, capsys):
        code, out = run(
            capsys,
            "cat", "decompose",
            "--map", "{1->e, 2->1, 3->2, 4->1, 5->0}",
            "--source", "5", "--target", "2",
        )
        assert code == 0
        assert "singular: {1->e, 2->1, 3->2, 4->3, 5->0}" in out
        assert "effective: {1->1, 2->2, 3->1}" in out

    def test_components(self, capsys):
        code, out = run(capsys, "cat", "components", "--arity", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_filtration(self, capsys):
        code, out = run(
            capsys, "cat", "filtration", "--special", "R(3): x1 + x2*x3",
            "--level", "2",
        )
        assert code == 0
        assert "R(2): x1 + x1*x2" in out


class TestCheckCommands:
    def test_axioms_strict(self, capsys):
        code, out = run(capsys, "check", "axioms", "--builtin", "strict", "--cap", "2")
        assert code == 0 and "pass" in out

    def test_einfty_strict_fails(self, capsys):
        code, out = run(capsys, "check", "einfty", "--builtin", "strict", "--cap", "2")
        assert code == 1
        assert "condition (4): fail" in out

    def test_algebra(self, capsys):
        code, out = run(capsys, "check", "algebra", "--carrier", "boolean", "--cap", "1")
        assert code == 0


class TestTermCommands:
    def test_normalize(self, capsys):
        code, out = run(
            capsys, "term", "normalize", "(x1 + x2) * x3", "--arity", "3",
            "--mode", "biperm",
        )
        assert code == 0
        assert out.strip() == "((x1 * x3) + (x2 * x3))"

    def test_project(self, capsys):
        code, out = run(capsys, "term", "project", "(1 + x1) * x2", "--arity", "2")
        assert code == 0
        assert out.strip() == "R(2): x2 + x1*x2"

    def test_project_not_in_R(self, capsys):
        code, out = run(capsys, "term", "project", "x1 + x1", "--arity", "1")
        assert code == 0
        assert "not-in-R" in out

    def test_fiber(self, capsys):
        code, out = run(capsys, "term", "fiber", "--poly", "R(1): x1")
        assert code == 0
        assert "stable: True" in out
        assert "x1" in out

    def test_connect(self, capsys):
        code, out = run(capsys, "term", "connect", "--poly", "R(2): x2 + x1")
        assert code == 0
        assert "connected: True" in out
        assert "terminal: (x1 + x2)" in out


class TestRcgCommands:
    def test_component(self, capsys):
        code, out = run(
            capsys, "rcg", "component",
            "--poly", "R(5): x5 + x1*x4 + x1*x2*x3",
            "--pair", "terminal:sigma",
        )
        assert code == 0
        assert "signature: C(3) x G(1) x G(2) x G(3)" in out
        assert "size: 12" in out

    def test_compose_plan(self, capsys):
        code, out = run(
            capsys, "rcg", "compose",
            "--poly", "R(2): x1 + x1*x2",
            "--args", "R(2): x1 + x1*x2;R(2): x1*x2",
        )
        assert code == 0
        assert "composite: R(4): x1 + x1*x3*x4 + x1*x2 + x1*x2*x3*x4" in out
        assert "multiplicative: G(2) x G(2) x G(2) -> G(4)" in out
        assert "additive: C(2) x C(2) x C(2) -> C(4)" in out


class TestFwrfCommands:
    def test_assign(self, capsys):
        code, out = run(
            capsys, "fwrf", "assign",
            "--morphism",
            "(2:[2,1]) -> (1:[1]); phi={1->1,2->1}; d1={(1,1)->1,(2,1)->1}",
        )
        assert code == 0
        assert "(1,1): R(3): x2*x3 + x1*x3" in out

    def test_verify_demo(self, capsys):
        code, out = run(capsys, "fwrf", "verify", "--builtin", "demo")
        assert code == 0
        assert "R(4): x2*x4 + x1*x4 + x1*x3" in out
        assert "13->e" in out

    def test_nu(self, capsys):
        code, out = run(
            capsys, "fwrf", "nu",
            "--morphism",
            "(2:[2,1]) -> (1:[1]); phi={1->1,2->1}; d1={(1,1)->1,(2,1)->1}",
            "--inputs", "1,0,1",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_usage_error(self, capsys):
        code = main(["fwrf", "verify"])
        assert code == 2


NU_MORPHISM = "(2:[2,1]) -> (1:[1]); phi={1->1,2->1}; d1={(1,1)->1,(2,1)->1}"

BAD_PAIR_FIXTURE = """\
[additive]
component x = a
identity = a
[multiplicative]
component 1 = m
identity = m
[lambda]
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["rcg", "act", "--morphism", "nonsense"],
        ["rcg", "component", "--poly", "R(1): x1", "--pair", "BAD_PAIR"],
        [
            "fwrf", "assign", "--morphism",
            "(1:[1]) -> (1:[1]); phi={1->1}; dx={(1)->1}",
        ],
        ["check", "axioms", "--builtin", "strict", "--cap", "-1"],
        ["check", "einfty", "--builtin", "strict", "--cap", "-1"],
        ["check", "algebra", "--cap", "-1"],
        ["check", "axioms", "--builtin", "strict", "--cap", "5", "--budget", "10"],
        ["check", "einfty", "--builtin", "strict", "--cap", "5", "--budget", "10"],
        ["check", "algebra", "--cap", "5", "--budget", "10"],
        ["term", "fiber", "--poly", "R(1): x1", "--bound", "0"],
        ["term", "connect", "--poly", "R(1): x1", "--bound", "-1"],
        ["check", "axioms", "--fixture", "MISSING"],
        ["check", "axioms", "--fixture", "DIR"],
        ["check", "axioms", "--fixture", "BINARY"],
        ["rcg", "component", "--poly", "R(1): x1", "--pair", "DIR"],
        ["fwrf", "nu", "--morphism", NU_MORPHISM, "--inputs", "x"],
        ["fwrf", "nu", "--morphism", NU_MORPHISM, "--inputs", "1,0,2"],
        ["fwrf", "nu", "--morphism", NU_MORPHISM, "--algebra", "point", "--inputs", "1"],
        ["poly", "special", "(1;1) junk"],
        ["fwrf", "assign", "--morphism", "(1:[1]) -> (1:[1]); phi={1->1} junk; d1={(1)->1}"],
        ["fwrf", "assign", "--morphism", "(1:[1]) -> (1:[1]); phi={1->1}; d1={(1)->1, (1)->0}"],
        ["fwrf", "assign", "--morphism", "(1:[1]) -> (1:[1]); phi={1->1}; d1={(1)->1}; d1={}"],
        ["fwrf", "assign", "--morphism", "(1:[1]) -> (1:[1]); phi={1->1}; phi={}; d1={(1)->1}"],
    ],
)
def test_malformed_input_is_a_usage_error(argv, capsys, tmp_path):
    bad_pair = tmp_path / "bad_pair.fixture"
    bad_pair.write_text(BAD_PAIR_FIXTURE)
    binary = tmp_path / "binary.fixture"
    binary.write_bytes(b"\xff\xfe\x00")
    paths = {
        "BAD_PAIR": bad_pair,
        "MISSING": tmp_path / "missing.fixture",
        "DIR": tmp_path,
        "BINARY": binary,
    }
    code = main([str(paths.get(arg, arg)) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("action", ["fiber", "connect"])
def test_a_huge_bound_gives_the_default_bound_answer(action, json_flag, capsys):
    # The fiber DP used to pad its result to the bound: a MemoryError.
    argv = [*json_flag, "term", action, "--poly", "R(2): x1 + x2"]
    default_code = main(argv)
    default = capsys.readouterr()
    code = main(argv + ["--bound", str(10**11)])
    huge = capsys.readouterr()
    assert code == default_code == 0
    assert huge.err == default.err == ""
    expected = default.out
    if action == "fiber":  # the output names the bound: 3 * 2 + 4 by default
        expected = expected.replace('"bound": 10,', f'"bound": {10**11},')
        expected = expected.replace("(bound 10)", f"(bound {10**11})")
        assert expected != default.out
    assert huge.out == expected


CHECKS_AT_CAP1 = [
    ["check", "axioms", "--builtin", "strict", "--cap", "1"],
    ["check", "einfty", "--builtin", "strict", "--cap", "1"],
    ["check", "algebra", "--cap", "1"],
]


@pytest.mark.parametrize("argv", CHECKS_AT_CAP1)
def test_a_negative_budget_is_a_usage_error(argv, capsys):
    # A negative budget used to run and fail with "exceeded budget of -3".
    code = main(argv + ["--budget", "-3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: budget must be non-negative, got -3\n"


@pytest.mark.parametrize("argv", CHECKS_AT_CAP1)
def test_a_zero_budget_stops_at_the_first_instance(argv, capsys):
    code = main(argv + ["--budget", "0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: exhaustive check exceeded budget of 0 instances\n"


def test_a_negative_budget_is_rejected_in_process():
    from ringops.errors import PreconditionViolation
    from ringops.operads import Budget

    with pytest.raises(PreconditionViolation, match="^budget must be non-negative, got -3$"):
        Budget(-3)
    assert Budget(0).limit == 0


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_fixture_unit_outside_the_unit_component_is_rejected(json_flag, capsys, tmp_path):
    # A unit that no component of R(1): x1 holds used to pass vacuously,
    # with no units instance checked.
    from ringops.operads import operad_to_table, strict_operad
    from ringops.parsing import serialize_fixture

    rows = serialize_fixture(operad_to_table(strict_operad(), 1)).splitlines(keepends=True)
    fixture = tmp_path / "bad_unit.fixture"
    fixture.write_text("".join("unit = zz\n" if row.startswith("unit =") else row for row in rows))
    code = main(json_flag + ["check", "axioms", "--fixture", str(fixture), "--cap", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: unit 'zz' is not in the component of R(1): x1\n"


GOOD_PAIR_FIXTURE = """\
[additive]
component 1 = a
component 2 = a2
identity = a
sigma 2 (2 1) : a2 -> a2
[multiplicative]
component 1 = m
identity = m
[lambda]
"""


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "check",
            "component R(1): x1 = e\nunit = e\ncomponent R(1): x9 = q\n",
            "line 3: variable x9 out of range for arity 1",
        ),
        (
            "check",
            "component R(1): x1 = e\nunit = e\nact R(1): x1 |{1->e}| R(1): x1 : e -> e\n",
            "line 3: substitution of R(1): x1 along {1->e} does not give R(1): x1",
        ),
        (
            "rcg",
            GOOD_PAIR_FIXTURE.replace("sigma 2 (2 1)", "sigma 7 (2 1)"),
            "line 5: (2 1) is not a permutation of 1..7 (at position 8)",
        ),
        (
            "rcg",
            GOOD_PAIR_FIXTURE.replace("sigma 2 (2 1)", "sigma 2 (2 2)"),
            "line 5: (2 2) is not a permutation of 1..2 (at position 8)",
        ),
    ],
)
def test_a_bad_fixture_row_is_named_by_its_line(command, text, message, json_flag, capsys, tmp_path):
    fixture = tmp_path / "bad.fixture"
    fixture.write_text(text)
    if command == "check":
        argv = ["check", "axioms", "--fixture", str(fixture), "--cap", "1"]
    else:
        argv = ["rcg", "component", "--poly", "R(1): x1", "--pair", str(fixture)]
    code = main(json_flag + argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"

