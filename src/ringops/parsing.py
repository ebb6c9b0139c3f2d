"""Text grammars: polynomials, maps, terms, morphisms, wreath data, fixtures.

Every value has one canonical printed form and parse/print round-trips
byte-exactly on canonical output.  Parse failures carry positions; semantic
failures (out-of-range variables, duplicate monomials) name the violated
condition.
"""
from __future__ import annotations

import re
from typing import Union

from .errors import FixtureError, NotInR, ParseFailure
from .indexcat import E, ExtMap, RMorphism, validate
from .operads import TableRingOperad
from .polynomials import RPoly, TypeSignature, canon_str, rpoly, zero_poly
from .terms import Term, node_str, plus, times, var, ZERO, ONE
from .wreath import FFMorphism, FFObject

# A word of a fixture row (its keyword or an element name): no whitespace and
# none of the row delimiters.  The source name of a motion also stops at `->`.
_NAME = re.compile(r"[^\s(),=]+")
_SOURCE_NAME = re.compile(r"(?:(?!->)[^\s(),=])+")


class _Scanner:
    """Reads text from pos on; positions index the whole text, so a piece
    text[start:end] is read as _Scanner(text[:end], start)."""

    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def finish(self):
        """Fail unless only whitespace is left."""
        if not self.done():
            raise ParseFailure("unexpected trailing input", self.pos)

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise ParseFailure(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def try_take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        match = re.match(r"\d+", self.text[self.pos:])
        if not match:
            raise ParseFailure("expected an integer", self.pos)
        self.pos += match.end()
        return int(match.group())

    def name(self, pattern: re.Pattern = _NAME) -> str:
        self.skip_ws()
        match = pattern.match(self.text, self.pos)
        if not match:
            raise ParseFailure("expected a name", self.pos)
        self.pos = match.end()
        return match.group()


# ---------------------------------------------------------------------------
# Polynomials


def parse_poly(text: str) -> RPoly:
    return _parse_poly(_Scanner(text))


def _parse_poly(scanner: _Scanner) -> RPoly:
    scanner.expect("R")
    scanner.expect("(")
    arity = scanner.integer()
    scanner.expect(")")
    scanner.expect(":")
    if scanner.try_take("0"):
        if not scanner.done():
            raise ParseFailure("unexpected input after 0", scanner.pos)
        return zero_poly(arity)
    supports = []
    while True:
        supports.append(_parse_monomial(scanner, arity))
        if not scanner.try_take("+"):
            break
    scanner.finish()
    return rpoly(arity, supports)


def _parse_monomial(scanner: _Scanner, arity: int) -> tuple[int, ...]:
    indices = []
    while True:
        scanner.expect("x")
        i = scanner.integer()
        if not 1 <= i <= arity:
            raise NotInR(f"variable x{i} out of range for arity {arity}")
        if i in indices:
            raise NotInR(f"monomial contains a square at x{i}")
        indices.append(i)
        if not scanner.try_take("*"):
            break
    return tuple(sorted(indices))


def print_poly(f: RPoly) -> str:
    return canon_str(f)


# ---------------------------------------------------------------------------
# Maps and morphisms


def _parse_list(scanner: _Scanner, item, close: str = ")") -> list:
    """Read `item, ...` up to `close`; the opening bracket is already read."""
    items = []
    if not scanner.try_take(close):
        while True:
            items.append(item(scanner))
            if scanner.try_take(close):
                break
            scanner.expect(",")
    return items


def parse_map(text: str, source_size: int, target_size: int) -> ExtMap:
    return _parse_map(_Scanner(text), source_size, target_size)


def _parse_entries(scanner: _Scanner, key, value) -> dict:
    """Read `{k->v, ...}` to the end of the input; key and value read one
    side of an entry, and a repeated key is an error."""
    scanner.expect("{")
    entries: dict = {}
    if not scanner.try_take("}"):
        while True:
            k = key(scanner)
            scanner.expect("->")
            v = value(scanner)
            if k in entries:
                shown = f"({','.join(map(str, k))})" if isinstance(k, tuple) else k
                raise ParseFailure(f"duplicate map key {shown}", scanner.pos)
            entries[k] = v
            if scanner.try_take("}"):
                break
            scanner.expect(",")
    scanner.finish()
    return entries


def _parse_images(scanner: _Scanner, value, size: int, what: str) -> tuple:
    """Read `{1->v, ..., size->v}` as the tuple of values."""
    entries = _parse_entries(scanner, _Scanner.integer, value)
    if sorted(entries) != list(range(1, size + 1)):
        raise ParseFailure(f"{what} must define exactly the keys 1..{size}", scanner.pos)
    return tuple(entries[i] for i in range(1, size + 1))


def _parse_map(scanner: _Scanner, source_size: int, target_size: int) -> ExtMap:
    images = _parse_images(
        scanner, lambda sc: E if sc.try_take("e") else sc.integer(), source_size, "map"
    )
    return ExtMap(source_size, target_size, images)


def print_map(phi: ExtMap) -> str:
    return str(phi)


def parse_morphism(text: str) -> RMorphism:
    if text.count("|") < 2:
        raise ParseFailure("expected '<poly> |<map>| <poly>'", len(text))
    first, last = text.index("|"), text.rindex("|")
    source = _parse_poly(_Scanner(text[:first]))
    target = _parse_poly(_Scanner(text, last + 1))
    phi = _parse_map(_Scanner(text[:last], first + 1), source.arity, target.arity)
    return validate(source, phi, target)


def print_morphism(mor: RMorphism) -> str:
    return f"{print_poly(mor.source)} |{print_map(mor.map)}| {print_poly(mor.target)}"


# ---------------------------------------------------------------------------
# Terms


def parse_term(text: str, arity: int) -> Term:
    scanner = _Scanner(text)
    node = _parse_sum(scanner, arity)
    scanner.finish()
    return Term(arity, node)


def _parse_sum(scanner: _Scanner, arity: int):
    node = _parse_product(scanner, arity)
    while scanner.try_take("+"):
        node = plus(node, _parse_product(scanner, arity))
    return node


def _parse_product(scanner: _Scanner, arity: int):
    node = _parse_atom(scanner, arity)
    while scanner.try_take("*"):
        node = times(node, _parse_atom(scanner, arity))
    return node


def _parse_atom(scanner: _Scanner, arity: int):
    if scanner.try_take("("):
        node = _parse_sum(scanner, arity)
        scanner.expect(")")
        return node
    if scanner.try_take("0"):
        return ZERO
    if scanner.try_take("1"):
        return ONE
    scanner.expect("x")
    i = scanner.integer()
    if not 1 <= i <= arity:
        raise ParseFailure(f"variable x{i} out of range for arity {arity}", scanner.pos)
    return var(i)


def print_term(term: Term) -> str:
    return node_str(term.node)


# ---------------------------------------------------------------------------
# Wreath objects and morphisms


def _parse_ff_object(scanner: _Scanner) -> FFObject:
    scanner.expect("(")
    n = scanner.integer()
    scanner.expect(":")
    scanner.expect("[")
    sizes = _parse_list(scanner, _Scanner.integer, "]")
    scanner.expect(")")
    if len(sizes) != n:
        raise ParseFailure(f"declared length {n} but {len(sizes)} sizes", scanner.pos)
    scanner.finish()
    return FFObject(tuple(sizes))


def parse_ff_morphism(text: str) -> FFMorphism:
    bounds = []  # (start, end) of each ';'-separated piece
    for piece in text.split(";"):
        start = bounds[-1][1] + 1 if bounds else 0
        bounds.append((start, start + len(piece)))
    if len(bounds) < 2:
        raise ParseFailure("expected 'source -> target; phi=...; d1=...'", len(text))
    header_start, header_end = bounds[0]
    arrow = text.find("->", header_start, header_end)
    if arrow < 0:
        raise ParseFailure("expected 'source -> target' header", header_end)
    source = _parse_ff_object(_Scanner(text[:arrow], header_start))
    target = _parse_ff_object(_Scanner(text[:header_end], arrow + 2))
    phi: Union[tuple[int, ...], None] = None
    ds: dict[int, dict[tuple[int, ...], int]] = {}
    d_starts: dict[int, int] = {}
    for start, end in bounds[1:]:
        piece = text[start:end]
        if not piece.strip():
            continue
        key, _, _ = piece.partition("=")
        body = _Scanner(text[:end], min(start + len(key) + 1, end))
        start += len(key) - len(key.lstrip())
        key = key.strip()
        j = int(key[1:]) if key.startswith("d") and key[1:].isdigit() else None
        if key != "phi" and j is None:
            raise ParseFailure(f"unknown section {key!r}", start)
        if (phi is not None) if j is None else (j in ds):
            raise ParseFailure(f"repeated section {key!r}", start)
        if j is None:
            phi = _parse_images(body, _Scanner.integer, source.n, "phi")
        else:
            ds[j] = _parse_entries(body, _parse_int_tuple, _Scanner.integer)
            d_starts[j] = start
    if phi is None:
        raise ParseFailure("missing phi section", len(text))
    if sorted(ds) != list(range(1, target.n + 1)):
        extra = [d_starts[j] for j in sorted(ds) if not 1 <= j <= target.n]
        raise ParseFailure(
            f"expected component maps d1..d{target.n}", extra[0] if extra else len(text)
        )
    return FFMorphism.make(source, target, phi, [ds[j] for j in sorted(ds)])


def _parse_int_tuple(scanner: _Scanner) -> tuple[int, ...]:
    scanner.expect("(")
    return tuple(_parse_list(scanner, _Scanner.integer))


def print_ff_morphism(mor: FFMorphism) -> str:
    parts = [f"{mor.source} -> {mor.target}"]
    phi_body = ", ".join(f"{i}->{v}" for i, v in enumerate(mor.phi, start=1))
    parts.append(f"phi={{{phi_body}}}")
    for j in range(1, mor.target.n + 1):
        rows = ", ".join(
            f"({','.join(str(k) for k in key)})->{value}"
            for key, value in sorted(mor.d(j).items())
        )
        parts.append(f"d{j}={{{rows}}}")
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# Type signatures


def parse_signature(text: str) -> TypeSignature:
    scanner = _Scanner(text)
    scanner.expect("(")
    l = scanner.integer()
    scanner.expect(";")
    sizes = []
    if l:
        while True:
            sizes.append(scanner.integer())
            if not scanner.try_take(","):
                break
    scanner.expect(")")
    scanner.finish()
    return TypeSignature(l, tuple(sizes))


# ---------------------------------------------------------------------------
# Ring-operad fixtures


def _row_keyword(line: str) -> tuple[str, _Scanner]:
    """The row's first word, and a scanner placed after it."""
    match = _NAME.match(line)
    keyword = match.group() if match else ""
    return keyword, _Scanner(line, len(keyword))


def _parse_value(scanner: _Scanner) -> str:
    """Read `= <elt>` to the end of the row."""
    scanner.expect("=")
    value = scanner.name()
    scanner.finish()
    return value


def _parse_row(scanner: _Scanner) -> tuple[tuple[str, tuple[str, ...]], str]:
    """Read a `<elt> (<elt>, ...) = <elt>` row as ((elt, args), result)."""
    elt = scanner.name()
    scanner.expect("(")
    args = tuple(_parse_list(scanner, _Scanner.name))
    return (elt, args), _parse_value(scanner)


def _motion_start(line: str, colons: int) -> int:
    """Where the `: <elt> -> <elt>` part of a row starts: at the first ':'
    after the `colons` that the row's spec holds (the end if there is none)."""
    match = re.match(f"(?:[^:]*:){{{colons}}}[^:]*", line)
    return match.end() if match else len(line)


def _parse_motion(scanner: _Scanner) -> tuple[str, str]:
    """Read `: <elt> -> <elt>` to the end of the row; the source name ends at
    its first `->`, the target is a whole name."""
    scanner.expect(":")
    source = scanner.name(_SOURCE_NAME)
    scanner.expect("->")
    target = scanner.name()
    scanner.finish()
    return source, target


def _put_row(rows: dict, key, value, lineno: int) -> None:
    if key in rows:
        raise FixtureError(f"line {lineno}: repeated row")
    rows[key] = value


def _unrecognized(lineno: int, line: str) -> FixtureError:
    return FixtureError(f"line {lineno}: unrecognized row: {line!r}")


def parse_fixture(text: str, name: str = "fixture") -> TableRingOperad:
    """Read a table-backed ring operad from structured text.

    Rows: `component <poly> = names...`, `unit = name`,
    `gamma <g-elt> (<elt>,...) = <elt>`,
    `act <poly> |{map}| <poly> : <elt> -> <elt>`.  A second unit row, or a
    second component, gamma or act row with the same key, is an error.
    """
    components: dict[RPoly, list[str]] = {}
    units: dict[str, str] = {}
    gamma_rows: dict[tuple[str, tuple[str, ...]], str] = {}
    action_rows: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, scanner = _row_keyword(line)
        try:
            if keyword == "component":
                body, _, names = line.partition("=")
                f = _parse_poly(_Scanner(body, scanner.pos))
                _put_row(components, f, names.split(), lineno)
            elif keyword == "unit":
                _put_row(units, keyword, _parse_value(scanner), lineno)
            elif keyword == "gamma":
                _put_row(gamma_rows, *_parse_row(scanner), lineno)
            elif keyword == "act":
                # a morphism `R(m): ... |{...}| R(n): ...` holds two colons
                colon = _motion_start(line, 2)
                mor = parse_morphism(line[scanner.pos:colon].strip())
                source_elt, target_elt = _parse_motion(_Scanner(line, colon))
                key = (mor.source, mor.map.images, mor.target, source_elt)
                _put_row(action_rows, key, target_elt, lineno)
            else:
                raise _unrecognized(lineno, line)
        except ParseFailure as err:
            raise FixtureError(f"line {lineno}: {err}") from err
    if "unit" not in units:
        raise FixtureError("fixture is missing the unit row")
    return TableRingOperad(components, units["unit"], gamma_rows, action_rows, name=name)


def parse_pair_fixture(text: str, name: str = "pair"):
    """Read an operad pair: [additive] and [multiplicative] operad sections
    plus a [lambda] section of distributivity rows.

    Shared row shapes with the ring-operad fixture, with integer-arity
    components, `sigma <j> (<perm>) : <elt> -> <elt>` action rows and
    `lambda <g-elt> (<c-elts>) = <c-elt>` rows.  A second identity row in a
    section, or a second keyed row with the same key, is an error, as in the
    ring-operad fixture.
    """
    from .operad_pair import OperadPairData, TableFiniteOperad

    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise FixtureError(f"line {lineno}: row outside any section")
        sections[current].append((lineno, line))
    for required in ("additive", "multiplicative", "lambda"):
        if required not in sections:
            raise FixtureError(f"missing [{required}] section")
    operads = {}
    for section in ("additive", "multiplicative"):
        components: dict[int, list[str]] = {}
        identities: dict[str, str] = {}
        sigma_rows: dict = {}
        gamma_rows: dict = {}
        for lineno, line in sections[section]:
            keyword, scanner = _row_keyword(line)
            try:
                if keyword == "component":
                    body, _, names = line.partition("=")
                    scanner = _Scanner(body, scanner.pos)
                    arity = scanner.integer()
                    scanner.finish()
                    _put_row(components, arity, names.split(), lineno)
                elif keyword == "identity":
                    _put_row(identities, keyword, _parse_value(scanner), lineno)
                elif keyword == "sigma":
                    colon = _motion_start(line, 0)
                    scanner = _Scanner(line[:colon], scanner.pos)
                    scanner.integer()
                    scanner.expect("(")
                    perm = []
                    while not scanner.try_take(")"):
                        perm.append(scanner.integer())
                    scanner.finish()
                    source_elt, target_elt = _parse_motion(_Scanner(line, colon))
                    _put_row(sigma_rows, (source_elt, tuple(perm)), target_elt, lineno)
                elif keyword == "gamma":
                    _put_row(gamma_rows, *_parse_row(scanner), lineno)
                else:
                    raise _unrecognized(lineno, line)
            except ParseFailure as err:
                raise FixtureError(f"line {lineno}: {err}") from err
        if "identity" not in identities:
            raise FixtureError(f"[{section}] is missing the identity row")
        operads[section] = TableFiniteOperad(
            components, identities["identity"], sigma_rows, gamma_rows, name=f"{name}.{section}"
        )
    lambda_rows: dict = {}
    for lineno, line in sections["lambda"]:
        keyword, scanner = _row_keyword(line)
        if keyword != "lambda":
            raise _unrecognized(lineno, line)
        try:
            key, result = _parse_row(scanner)
        except ParseFailure as err:
            raise FixtureError(f"line {lineno}: {err}") from err
        _put_row(lambda_rows, key, result, lineno)

    def lam(g_elt, tagged_args):
        key = (g_elt, tuple(x for _, x in tagged_args))
        if key not in lambda_rows:
            raise FixtureError(f"missing lambda row for {key}")
        return lambda_rows[key]

    return OperadPairData(operads["additive"], operads["multiplicative"], lam)


def serialize_fixture(table: TableRingOperad) -> str:
    lines = []
    polys = sorted(table._components, key=lambda f: (f.arity, canon_str(f)))
    for f in polys:
        lines.append(f"component {canon_str(f)} = {' '.join(table._components[f])}")
    lines.append(f"unit = {table._unit}")
    for (g_elt, args), result in sorted(table._gamma_rows.items()):
        lines.append(f"gamma {g_elt} ({', '.join(args)}) = {result}")
    for (source, images, target, elt), moved in sorted(
        table._action_rows.items(),
        key=lambda item: (str(item[0][0]), item[0][1], str(item[0][2]), item[0][3]),
    ):
        phi = ExtMap(source.arity, target.arity, images)
        lines.append(
            f"act {canon_str(source)} |{phi}| {canon_str(target)} : {elt} -> {moved}"
        )
    return "\n".join(lines) + "\n"
