"""The benchmark's workloads and the expected-answer gate.

A workload is a fixed list of operations.  Most operations are `ringops`
command lines run through `ringops.cli.main` with `--json`; the rcg axiom
checks have no command line and call `operads.check_axioms` directly.  Each
operation carries the exit code and a check of the JSON payload it must
produce.  The expected answers below are written out by hand; only the
fiber sizes in `data/fiber_sizes.json` were recorded from the code at the
seed commit, and they are a regression golden, not an independent oracle.

Nothing here imports `ringops` at module level: the worker times that
import as part of set-up.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "data" / "pset_cap2.fixture"
# serialize_fixture(operad_to_table(sset_operad("biperm"), 2)) at the seed commit
FIXTURE_SHA256 = "e36b47bbb925da76643b2a6db89e6234ae8b7376d1a19c8207c085958951711d"
FIBER_GOLDEN = HERE / "data" / "fiber_sizes.json"

WORKLOADS = ("terms-cap2", "kernel-cap3", "fibers-r3")

# Per-section instance counts of `check axioms`.  The sset sections and all
# cap-2 totals are the ROADMAP fingerprint.
SECTIONS = (
    "zero-components", "functoriality", "units", "associativity",
    "equivariance-collapse", "equivariance-singular", "equivariance-arguments",
)
AXIOM_SECTIONS = {
    2: {
        "strict": (3, 2650, 21, 4806, 1969, 240, 5120),
        "sset": (3, 12422, 131, 1139621, 73524, 8661, 163422),
        "pset": (3, 8406, 83, 291773, 29652, 3501, 69414),
        "rcg-terminal": (3, 2650, 21, 4806, 1969, 240, 5120),
        "rcg-sigma": (3, 3650, 29, 12674, 3705, 450, 9948),
    },
    # recorded at the seed commit: at cap 1 all five operads agree
    1: dict.fromkeys(
        ("strict", "sset", "pset", "rcg-terminal", "rcg-sigma"),
        (2, 39, 5, 14, 12, 6, 20),
    ),
}
AXIOM_TOTALS = {
    2: {"strict": 14809, "sset": 1397784, "pset": 402832,
        "rcg-terminal": 14809, "rcg-sigma": 30459},
    1: dict.fromkeys(("strict", "sset", "pset", "rcg-terminal", "rcg-sigma"), 98),
}
# `check algebra` over the boolean rig and the strict operad
ALGEBRA_INSTANCES = {3: 612400, 1: 28}
# Set-level E-infinity: strict fails only condition (4) at cap 2, because
# distinct effective maps act on its single points alike.
EINFTY_FAILS = {2: {"strict": {"4"}, "sset": set(), "pset": set()},
                1: {"strict": set(), "sset": set(), "pset": set()}}

# fibers-r3 runs one member of each S3-orbit of 4-monomial polynomials whose
# sym fiber stays under this size; the two larger orbits take 4-7 s each.
ORBIT_FIBER_LIMIT = 11000


@dataclass(frozen=True)
class Command:
    """A command line (or a direct rcg check), its exit code and its gate."""

    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[dict], Optional[str]]
    rcg: Optional[tuple[str, int]] = None  # (pair, cap) of a direct rcg check


@dataclass(frozen=True)
class Op:
    """One operation of the closed loop: one or more commands, timed together."""

    label: str
    commands: tuple[Command, ...]


# ---------------------------------------------------------------------------
# Gate checks: each returns None when the payload is right, else a reason.


def _axioms_check(operad: str, cap: int) -> Callable[[dict], Optional[str]]:
    sections = dict(zip(SECTIONS, AXIOM_SECTIONS[cap][operad]))
    total = AXIOM_TOTALS[cap][operad]

    def check(payload: dict) -> Optional[str]:
        if payload.get("ok") is not True or payload.get("failure") is not None:
            return f"expected pass, got failure {payload.get('failure')!r}"
        if payload.get("skipped") != 0:
            return f"expected 0 skipped, got {payload.get('skipped')}"
        if payload.get("checked") != total:
            return f"expected {total} instances, got {payload.get('checked')}"
        if payload.get("sections") != sections:
            return f"section counts {payload.get('sections')} != {sections}"
        return None

    return check


def _algebra_check(cap: int) -> Callable[[dict], Optional[str]]:
    def check(payload: dict) -> Optional[str]:
        if payload.get("ok") is not True:
            return f"expected pass, got failure {payload.get('failure')!r}"
        if payload.get("checked") != ALGEBRA_INSTANCES[cap]:
            return f"expected {ALGEBRA_INSTANCES[cap]} instances, got {payload.get('checked')}"
        return None

    return check


def _einfty_check(operad: str, cap: int) -> Callable[[dict], Optional[str]]:
    fails = EINFTY_FAILS[cap][operad]

    def check(payload: dict) -> Optional[str]:
        conditions = payload.get("conditions", {})
        expected = {"1": "not-applicable"}
        expected.update({num: "fail" if num in fails else "pass" for num in "2345"})
        got = {num: entry.get("status") for num, entry in conditions.items()}
        if got != expected:
            return f"condition statuses {got} != {expected}"
        if payload.get("ok") is not (not fails):
            return f"ok flag {payload.get('ok')} disagrees with the conditions"
        return None

    return check


def _enumerate_check(arity: int) -> Callable[[dict], Optional[str]]:
    size = 2 ** (2 ** arity - 1)

    def check(payload: dict) -> Optional[str]:
        polys = payload.get("polynomials", [])
        if payload.get("count") != size or len(polys) != size:
            return f"expected |R({arity})| = {size}, got {payload.get('count')}/{len(polys)}"
        if len(set(polys)) != size:
            return "duplicate polynomials in the enumeration"
        if any(not text.startswith(f"R({arity}): ") for text in polys):
            return "a polynomial is printed at the wrong arity"
        return None

    return check


def _connect_check(size: int) -> Callable[[dict], Optional[str]]:
    def check(payload: dict) -> Optional[str]:
        if payload.get("connected") is not True:
            return "fiber is not zig-zag connected"
        if payload.get("fiber_size") != size:
            return f"sym fiber size {payload.get('fiber_size')} != golden {size}"
        return None

    return check


def _fiber_check(size: int) -> Callable[[dict], Optional[str]]:
    def check(payload: dict) -> Optional[str]:
        found = payload.get("terms", [])
        if payload.get("stable") is not True:
            return "fiber is not stable"
        if len(found) != size or len(set(found)) != size:
            return f"biperm fiber has {len(found)} terms ({len(set(found))} distinct), golden {size}"
        return None

    return check


# ---------------------------------------------------------------------------
# Workload definitions


def _single(label: str, argv: tuple[str, ...], exit_code: int, check) -> Op:
    return Op(label, (Command(argv, exit_code, check),))


def _axioms_op(operad: str, cap: int, fixture: bool = False) -> Op:
    check = _axioms_check(operad, cap)
    if operad.startswith("rcg-"):
        command = Command((), 0, check, rcg=(operad[len("rcg-"):], cap))
        return Op(f"axioms {operad} cap{cap}", (command,))
    source = ("--fixture", str(FIXTURE)) if fixture else ("--builtin", operad)
    label = f"axioms {'fixture:' if fixture else ''}{operad} cap{cap}"
    return _single(label, ("check", "axioms", *source, "--cap", str(cap)), 0, check)


def _terms_cap2(smoke: bool) -> tuple[Op, ...]:
    cap = 1 if smoke else 2
    return (
        _axioms_op("sset", cap),
        _axioms_op("pset", cap),
        _axioms_op("pset", cap, fixture=True),
    )


def _kernel_cap3(smoke: bool) -> tuple[Op, ...]:
    arity, algebra_cap, cap = (2, 1, 1) if smoke else (4, 3, 2)
    ops = [
        _single(f"poly enumerate {arity}", ("poly", "enumerate", "--arity", str(arity)),
                0, _enumerate_check(arity)),
        _single(f"algebra cap{algebra_cap}", ("check", "algebra", "--cap", str(algebra_cap)),
                0, _algebra_check(algebra_cap)),
    ]
    ops += [_axioms_op(name, cap) for name in ("strict", "rcg-terminal", "rcg-sigma")]
    for name in ("strict", "sset", "pset"):
        ops.append(_single(
            f"einfty {name} cap{cap}",
            ("check", "einfty", "--builtin", name, "--cap", str(cap)),
            1 if EINFTY_FAILS[cap][name] else 0,
            _einfty_check(name, cap),
        ))
    return tuple(ops)


def _orbit_key(supports: frozenset) -> tuple:
    """The least relabelling of a set of monomial supports under S3."""
    return min(
        tuple(sorted(tuple(sorted(perm[i - 1] for i in support)) for support in supports))
        for perm in itertools.permutations((1, 2, 3))
    )


def fiber_polys(seed: int, smoke: bool, sizes: dict) -> list[str]:
    """The polynomials fibers-r3 runs, printed; needs `ringops` importable.

    Every polynomial of R(3) with at most three monomials, then one member,
    chosen by the seed, of each S3-orbit of 4-monomial polynomials whose sym
    fiber is below ORBIT_FIBER_LIMIT.  Members of one orbit have fibers of
    the same size, so the seed changes the inputs but not the amount of work.
    """
    from ringops.parsing import print_poly
    from ringops.polynomials import enumerate_R

    if smoke:
        return [print_poly(f) for f in enumerate_R(2)]
    small, orbits = [], {}
    for f in enumerate_R(3):
        if len(f.monomials) <= 3:
            small.append(print_poly(f))
        elif len(f.monomials) == 4:
            key = _orbit_key(frozenset(m.support for m in f.monomials))
            orbits.setdefault(key, []).append(print_poly(f))
    rng = random.Random(seed)
    sample = []
    for key in sorted(orbits):
        members = orbits[key]
        if sizes[members[0]][0] < ORBIT_FIBER_LIMIT:
            sample.append(rng.choice(members))
    return small + sample


def _fibers_r3(seed: int, smoke: bool) -> tuple[Op, ...]:
    sizes = json.loads(FIBER_GOLDEN.read_text(encoding="utf-8"))["sizes"]
    ops = []
    for text in fiber_polys(seed, smoke, sizes):
        sym, biperm = sizes[text]
        ops.append(Op(text, (
            Command(("term", "connect", "--poly", text), 0, _connect_check(sym)),
            Command(("term", "fiber", "--poly", text, "--mode", "biperm"), 0,
                    _fiber_check(biperm)),
        )))
    return tuple(ops)


def arities(name: str, smoke: bool) -> range:
    """The arities whose R(n) a workload enumerates, warmed during set-up."""
    top = {"terms-cap2": (2, 1), "kernel-cap3": (4, 2), "fibers-r3": (3, 2)}[name]
    return range((top[1] if smoke else top[0]) + 1)


def verify_fixture() -> None:
    """Read the static fixture and check it is the one generated at the seed."""
    digest = hashlib.sha256(FIXTURE.read_bytes()).hexdigest()
    if digest != FIXTURE_SHA256:
        raise ValueError(f"{FIXTURE.name} has sha256 {digest}, expected {FIXTURE_SHA256}")


def build(name: str, seed: int, smoke: bool) -> tuple[Op, ...]:
    """The operations of a workload; fibers-r3 needs `ringops` importable."""
    if name == "terms-cap2":
        verify_fixture()
        return _terms_cap2(smoke)
    if name == "kernel-cap3":
        return _kernel_cap3(smoke)
    if name == "fibers-r3":
        return _fibers_r3(seed, smoke)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
