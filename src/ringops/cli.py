"""Command-line dispatch: polynomials, category queries, checkers, terms, wreath.

Exit codes:
  0  ok
  1  a check failed (a verdict, printed on stdout)
  2  usage, parse, budget or cap error (one `error:` line on stderr)
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Union

from . import indexcat, operads, parsing, polynomials, terms, wreath
from .errors import PreconditionViolation, RingopsError
from .operad_pair import (
    build_RCG,
    component_signature,
    composition_plan,
    terminal_pair,
    terminal_sigma_pair,
)
from .polynomials import UNIT

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# The most leaves `term normalize --mode biperm` builds and prints.  Right
# distributivity copies a right factor once per summand on its left, so a
# product of k copies of (x1 + x1) has a normal form of 2^(k+1) - 2 leaves.
MAX_NORMAL_FORM_LEAVES = 1 << 16
# The most monomials of any partial expansion `term project` builds.  A
# product of k copies of a sum of n variables expands to C(k+n-1, n-1)
# monomials: 20 copies of a 6-variable sum give 53,130, 21 give 65,780.
MAX_PROJECTION_MONOMIALS = 1 << 16


def _builtin_operad(name: str):
    if name == "strict":
        return operads.strict_operad()
    if name == "sset":
        return terms.sset_operad("sym")
    if name == "pset":
        return terms.sset_operad("biperm")
    raise RingopsError(f"unknown builtin operad {name!r}")


def _builtin_algebra(name: str):
    """The algebra of a `--carrier`/`--algebra` choice: boolean or point."""
    return operads.boolean_rig_algebra() if name == "boolean" else operads.one_point_algebra()


def _resolve_pair(spec: str):
    if spec in ("terminal:terminal", "terminal,terminal"):
        return terminal_pair()
    if spec in ("terminal:sigma", "terminal,sigma"):
        return terminal_sigma_pair()
    missing = f"unknown pair {spec!r}: expected a builtin name or a fixture path"
    return parsing.parse_pair_fixture(_read_file(spec, missing))


def _read_file(path: str, missing: Union[str, None] = None) -> str:
    """The text of a fixture file; a path that cannot be read is a usage error."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        raise RingopsError(missing or f"cannot read {path!r}: no such file") from None
    except OSError as err:
        raise RingopsError(f"cannot read {path!r}: {err.strerror}") from None
    except UnicodeDecodeError:
        raise RingopsError(f"cannot read {path!r}: not UTF-8 text") from None


def _demo_wreath_pair():
    """The built-in worked composition: a two-slot collapse followed by a fold."""
    middle = wreath.FFObject((2, 1))
    top = wreath.FFObject((1,))
    low = wreath.FFObject((2, 2))
    outer = wreath.FFMorphism.make(
        middle, top, (1, 1), [{(1, 1): 1, (2, 1): 1}]
    )
    inner = wreath.FFMorphism.make(
        low, middle, (1, 1),
        [{(1, 1): 1, (2, 2): 1, (1, 2): 2, (2, 1): 0}, {(): 1}],
    )
    return outer, inner


def _emit(payload: dict, as_json: bool, lines: list[str]):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _poly_or_unit(value) -> str:
    return "1" if value is UNIT else parsing.print_poly(value)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line grammar, built once per process: building it takes
    milliseconds, and parsing leaves it unchanged, so every `main` call in
    one process shares it."""
    parser = argparse.ArgumentParser(prog="ringops")
    parser.add_argument("--json", action="store_true", help="structured output")
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly").add_subparsers(dest="action", required=True)
    p = poly.add_parser("enumerate")
    p.add_argument("--arity", type=int, required=True)
    p = poly.add_parser("member")
    p.add_argument("poly")
    p = poly.add_parser("compose")
    p.add_argument("outer")
    p.add_argument("args", nargs="*")
    p = poly.add_parser("type")
    p.add_argument("poly")
    p = poly.add_parser("special")
    p.add_argument("signature")

    cat = sub.add_parser("cat").add_subparsers(dest="action", required=True)
    p = cat.add_parser("hom")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--kind", default="all", choices=("all", "effective", "nondegenerate"))
    p = cat.add_parser("decompose")
    p.add_argument("--map", dest="map_text", required=True)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p = cat.add_parser("components")
    p.add_argument("--arity", type=int, required=True)
    p = cat.add_parser("filtration")
    p.add_argument("--special", required=True)
    p.add_argument("--level", type=int, required=True)

    check = sub.add_parser("check").add_subparsers(dest="action", required=True)
    p = check.add_parser("axioms")
    p.add_argument("--builtin")
    p.add_argument("--fixture")
    p.add_argument("--cap", type=int, default=2)
    p.add_argument("--budget", type=int, default=operads.DEFAULT_BUDGET)
    p = check.add_parser("einfty")
    p.add_argument("--builtin", required=True)
    p.add_argument("--cap", type=int, default=2)
    p.add_argument("--budget", type=int, default=operads.DEFAULT_BUDGET)
    p = check.add_parser("algebra")
    p.add_argument("--carrier", default="boolean", choices=("boolean", "point"))
    p.add_argument("--operad", default="strict")
    p.add_argument("--cap", type=int, default=2)
    p.add_argument("--budget", type=int, default=operads.DEFAULT_BUDGET)

    rcg = sub.add_parser("rcg").add_subparsers(dest="action", required=True)
    p = rcg.add_parser("component")
    p.add_argument("--poly", required=True)
    p.add_argument("--pair", default="terminal:sigma")
    p = rcg.add_parser("act")
    p.add_argument("--morphism", required=True)
    p.add_argument("--pair", default="terminal:sigma")
    p = rcg.add_parser("compose")
    p.add_argument("--poly", required=True)
    p.add_argument("--args", required=True, help="semicolon-separated polynomials")
    p.add_argument("--pair", default="terminal:sigma")

    term = sub.add_parser("term").add_subparsers(dest="action", required=True)
    p = term.add_parser("normalize")
    p.add_argument("term")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--mode", default="sym", choices=("sym", "biperm"))
    p = term.add_parser("project")
    p.add_argument("term")
    p.add_argument("--arity", type=int, required=True)
    p = term.add_parser("fiber")
    p.add_argument("--poly", required=True)
    p.add_argument("--bound", type=int)
    p.add_argument("--mode", default="sym", choices=("sym", "biperm"))
    p = term.add_parser("connect")
    p.add_argument("--poly", required=True)
    p.add_argument("--bound", type=int)

    fwrf = sub.add_parser("fwrf").add_subparsers(dest="action", required=True)
    p = fwrf.add_parser("assign")
    p.add_argument("--morphism", required=True)
    p = fwrf.add_parser("compose")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p = fwrf.add_parser("verify")
    p.add_argument("--outer")
    p.add_argument("--inner")
    p.add_argument("--builtin", choices=("demo",))
    p = fwrf.add_parser("nu")
    p.add_argument("--morphism", required=True)
    p.add_argument("--algebra", default="boolean", choices=("boolean", "point"))
    p.add_argument("--inputs", required=True, help="comma-separated carrier entries")
    return parser


def _run_poly(args) -> int:
    if args.action == "enumerate":
        lines = [parsing.print_poly(f) for f in polynomials.enumerate_R(args.arity)]
        _emit({"count": len(lines), "polynomials": lines}, args.json, lines)
        return EXIT_OK
    if args.action == "member":
        try:
            parsed = parsing.parse_poly(args.poly)
        except RingopsError as err:
            _emit({"member": False, "reason": str(err)}, args.json, [f"not-in-R: {err}"])
            return EXIT_CHECK_FAILED
        _emit({"member": True}, args.json, [f"member: {parsing.print_poly(parsed)}"])
        return EXIT_OK
    if args.action == "compose":
        outer = parsing.parse_poly(args.outer)
        inner = [parsing.parse_poly(text) for text in args.args]
        result = polynomials.compose(outer, inner)
        _emit({"result": parsing.print_poly(result)}, args.json, [parsing.print_poly(result)])
        return EXIT_OK
    if args.action == "type":
        f = parsing.parse_poly(args.poly)
        sig = polynomials.type_of(f)
        _emit({"type": str(sig)}, args.json, [str(sig)])
        return EXIT_OK
    sig = parsing.parse_signature(args.signature)
    special = polynomials.special_of_type(sig)
    _emit({"special": parsing.print_poly(special)}, args.json, [parsing.print_poly(special)])
    return EXIT_OK


def _run_cat(args) -> int:
    if args.action == "hom":
        source = parsing.parse_poly(args.source)
        target = parsing.parse_poly(args.target)
        homs = indexcat.enumerate_hom(source, target, args.kind)
        lines = [parsing.print_morphism(m) for m in homs]
        _emit({"count": len(homs), "morphisms": lines}, args.json, lines or ["(empty)"])
        return EXIT_OK
    if args.action == "decompose":
        phi = parsing.parse_map(args.map_text, args.source, args.target)
        sigma, p = indexcat.canonical_decompose(phi)
        lines = [f"singular: {sigma}", f"effective: {p}"]
        _emit({"singular": str(sigma), "effective": str(p)}, args.json, lines)
        return EXIT_OK
    if args.action == "components":
        blocks = indexcat.connected_components(args.arity)
        printable = sorted(
            sorted(parsing.print_poly(f) for f in block) for block in blocks
        )
        lines = [f"[{len(block)}] " + "; ".join(block) for block in printable]
        _emit({"components": printable}, args.json, lines)
        return EXIT_OK
    special = parsing.parse_poly(args.special)
    objects = indexcat.filtration(special, args.level)
    lines = sorted(parsing.print_poly(f) for f in objects)
    _emit({"objects": lines}, args.json, lines or ["(empty)"])
    return EXIT_OK


def _run_check(args) -> int:
    if args.action == "axioms":
        if bool(args.builtin) == bool(args.fixture):
            raise RingopsError("provide exactly one of --builtin or --fixture")
        if args.builtin:
            operad = _builtin_operad(args.builtin)
        else:
            operad = parsing.parse_fixture(_read_file(args.fixture))
        report = operads.check_axioms(operad, cap=args.cap, budget=operads.Budget(args.budget))
        _emit(
            {
                "ok": report.ok,
                "checked": report.checked,
                "skipped": report.skipped,
                "failure": report.failure,
                "sections": report.sections,
            },
            args.json,
            [str(report)],
        )
        return EXIT_OK if report.ok else EXIT_CHECK_FAILED
    if args.action == "einfty":
        operad = _builtin_operad(args.builtin)
        report = operads.check_einfty_set(operad, cap=args.cap, budget=operads.Budget(args.budget))
        _emit(
            {
                "ok": report.ok,
                "conditions": {
                    str(num): {"status": status, "detail": detail}
                    for num, (status, detail) in report.conditions.items()
                },
            },
            args.json,
            report.lines(),
        )
        return EXIT_OK if report.ok else EXIT_CHECK_FAILED
    operad = _builtin_operad(args.operad)
    algebra = _builtin_algebra(args.carrier)
    report = operads.validate_algebra(operad, algebra, cap=args.cap, budget=operads.Budget(args.budget))
    _emit(
        {"ok": report.ok, "checked": report.checked, "failure": report.failure},
        args.json,
        [str(report)],
    )
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _run_rcg(args) -> int:
    pair = _resolve_pair(args.pair)
    operad = build_RCG(pair)
    if args.action == "component":
        f = parsing.parse_poly(args.poly)
        elements = operad.component(f)
        signature = component_signature(pair, f)
        lines = [f"signature: {signature}", f"size: {len(elements)}"]
        _emit({"signature": signature, "size": len(elements)}, args.json, lines)
        return EXIT_OK
    if args.action == "act":
        mor = parsing.parse_morphism(args.morphism)
        mapping = [
            f"{elt!r} -> {operad.act(mor, elt)!r}" for elt in operad.component(mor.source)
        ]
        _emit({"action": mapping}, args.json, mapping)
        return EXIT_OK
    f = parsing.parse_poly(args.poly)
    inner = [parsing.parse_poly(text) for text in args.args.split(";")]
    plan = composition_plan(f, inner)
    lines = (
        [f"composite: {parsing.print_poly(plan['composite'])}"]
        + [f"multiplicative: {row}" for row in plan["multiplicative"]]
        + [f"additive: {plan['additive']}"]
    )
    _emit(
        {
            "composite": parsing.print_poly(plan["composite"]),
            "multiplicative": plan["multiplicative"],
            "additive": plan["additive"],
        },
        args.json,
        lines,
    )
    return EXIT_OK


_ZERO_FORM, _ONE_FORM = (1, 0, 0), (1, 1, 1)


def _biperm_leaves(node) -> int:
    """The leaf count of the node's bipermutative normal form, counted
    bottom up without building it.  A normal form is summarised as
    (leaves, tails, ones): its tails are the ends of its product chains,
    where `terms._norm_times` puts a right factor, and `ones` of them are
    the leaf 1, which the factor replaces.  A sum adds the summaries, and a
    product with neither factor 0 or 1 keeps the left leaves but its 1
    tails, adds the right's leaves once per left tail and multiplies the
    tail counts.  0 is (1, 0, 0), the only form without tails, and 1 is
    (1, 1, 1)."""

    def leaf(node) -> tuple:
        return _ZERO_FORM if node == terms.ZERO else _ONE_FORM if node == terms.ONE else (1, 1, 0)

    def combine(tag: str, left: tuple, right: tuple) -> tuple:
        if tag == "+":
            return (
                right if left == _ZERO_FORM else left if right == _ZERO_FORM
                else tuple(a + b for a, b in zip(left, right))
            )
        if _ZERO_FORM in (left, right):
            return _ZERO_FORM
        if _ONE_FORM in (left, right):
            return right if left == _ONE_FORM else left
        (leaves, tails, ones), (right_leaves, right_tails, right_ones) = left, right
        return leaves - ones + tails * right_leaves, tails * right_tails, tails * right_ones

    return terms._fold(node, leaf, combine)[0]


def _run_term(args) -> int:
    if args.action == "normalize":
        term = parsing.parse_term(args.term, args.arity)
        if args.mode == "biperm":
            leaves = _biperm_leaves(term.node)
            if leaves > MAX_NORMAL_FORM_LEAVES:
                raise PreconditionViolation(
                    f"the bipermutative normal form has {leaves} leaves, "
                    f"more than {MAX_NORMAL_FORM_LEAVES}"
                )
        result = (
            terms.reduce_A(term)
            if args.mode == "sym"
            else terms.normalize_biperm(term)
        )
        _emit({"result": parsing.print_term(result)}, args.json, [parsing.print_term(result)])
        return EXIT_OK
    if args.action == "project":
        term = parsing.parse_term(args.term, args.arity)
        projection = terms.project(term, MAX_PROJECTION_MONOMIALS)
        try:
            as_poly = parsing.print_poly(polynomials.to_rpoly(projection))
            payload = {"in_R": True, "poly": as_poly}
            lines = [as_poly]
        except RingopsError as err:
            payload = {"in_R": False, "reason": str(err)}
            lines = [f"not-in-R: {err}"]
        _emit(payload, args.json, lines)
        return EXIT_OK
    if args.action == "fiber":
        f = parsing.parse_poly(args.poly)
        result = terms.enumerate_fiber(f, args.mode, args.bound)
        printed = sorted(parsing.print_term(t) for t in result.terms)
        _emit(
            {"stable": result.stable, "bound": result.bound, "terms": printed},
            args.json,
            [f"stable: {result.stable} (bound {result.bound})"] + printed,
        )
        return EXIT_OK
    f = parsing.parse_poly(args.poly)
    report = terms.connectivity_check(f, args.bound)
    lines = [
        f"connected: {report.connected}",
        f"fiber size: {report.fiber_size}",
        f"terminal: {parsing.print_term(report.terminal)}",
    ]
    _emit(
        {
            "connected": report.connected,
            "fiber_size": report.fiber_size,
            "terminal": parsing.print_term(report.terminal),
        },
        args.json,
        lines,
    )
    return EXIT_OK if report.connected else EXIT_CHECK_FAILED


def _run_fwrf(args) -> int:
    if args.action == "assign":
        mor = parsing.parse_ff_morphism(args.morphism)
        assignment = wreath.polynomial_assignment(mor)
        lines = [
            f"({h},{j}): {_poly_or_unit(value)}"
            for (h, j), value in sorted(assignment.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        ]
        _emit(
            {f"{h},{j}": _poly_or_unit(v) for (h, j), v in assignment.items()},
            args.json,
            lines,
        )
        return EXIT_OK
    if args.action == "compose":
        outer = parsing.parse_ff_morphism(args.outer)
        inner = parsing.parse_ff_morphism(args.inner)
        combined = wreath.ff_compose(outer, inner)
        _emit(
            {"composite": parsing.print_ff_morphism(combined)},
            args.json,
            [parsing.print_ff_morphism(combined)],
        )
        return EXIT_OK
    if args.action == "verify":
        if args.builtin == "demo":
            outer, inner = _demo_wreath_pair()
        elif args.outer and args.inner:
            outer = parsing.parse_ff_morphism(args.outer)
            inner = parsing.parse_ff_morphism(args.inner)
        else:
            raise RingopsError("provide --builtin demo or both --outer and --inner")
        report = wreath.verify_assignment_functoriality(outer, inner)
        lines = []
        for coord, value in sorted(report.composites.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            ok = report.details[coord]
            fold = report.folds.get(coord)
            lines.append(
                f"({coord[0]},{coord[1]}): {_poly_or_unit(value)}"
                + (f" via fold {fold}" if fold is not None else "")
                + ("" if ok else "  MISMATCH")
            )
        _emit(
            {
                "ok": report.ok,
                "composites": {
                    f"{h},{j}": _poly_or_unit(v) for (h, j), v in report.composites.items()
                },
                "folds": {f"{h},{j}": str(m) for (h, j), m in report.folds.items()},
            },
            args.json,
            lines,
        )
        return EXIT_OK if report.ok else EXIT_CHECK_FAILED
    mor = parsing.parse_ff_morphism(args.morphism)
    operad = operads.strict_operad()
    algebra = _builtin_algebra(args.algebra)
    by_name = {str(x): x for x in algebra.carrier}
    inputs = []
    for chunk in args.inputs.split(","):
        chunk = chunk.strip()
        if chunk and chunk not in by_name:
            raise RingopsError(
                f"input {chunk!r} is not in the carrier {{{', '.join(by_name)}}}"
            )
        if chunk:
            inputs.append(by_name[chunk])
    elements = {
        coord: operads.StrictRingOperad.POINT for coord in mor.coordinates()
    }
    outputs = wreath.nu_evaluate(operad, algebra, mor, elements, tuple(inputs))
    rendered = ",".join(str(v) for v in outputs)
    _emit({"outputs": list(outputs)}, args.json, [rendered])
    return EXIT_OK


def main(argv: Union[list[str], None] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runner = {
        "poly": _run_poly,
        "cat": _run_cat,
        "check": _run_check,
        "rcg": _run_rcg,
        "term": _run_term,
        "fwrf": _run_fwrf,
    }[args.command]
    try:
        return runner(args)
    except RingopsError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
