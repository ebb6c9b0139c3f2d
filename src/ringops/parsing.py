"""Text grammars: polynomials, maps, terms, morphisms, wreath data, fixtures.

Every value has one canonical printed form and parse/print round-trips
byte-exactly on canonical output.  Parse failures carry positions; semantic
failures (out-of-range variables, duplicate monomials) name the violated
condition.

Fixtures are tables of rows, one per line; `#` starts a comment.  A row's
first word is its keyword, and a second row with the same keyword and key is
an error.  A ring-operad fixture has the rows

    component <poly> = <elt> ...                  key: the polynomial
    unit = <elt>                                  singleton, required
    gamma <elt> (<elt>, ...) = <elt>              key: (elt, args)
    act <poly> |<map>| <poly> : <elt> -> <elt>    key: (morphism, elt)

An operad-pair fixture has three sections.  [additive] and [multiplicative]
each have the rows

    component <arity> = <elt> ...                 key: the arity
    identity = <elt>                              singleton, required
    gamma <elt> (<elt>, ...) = <elt>              key: (elt, args)
    sigma <arity> (<perm>) : <elt> -> <elt>       key: (elt, perm)

where <perm> is a permutation of 1..<arity>, and [lambda] has
`lambda <elt> (<elt>, ...) = <elt>` rows, keyed by (elt, args).  Any other
section is an error.
"""
from __future__ import annotations

import re
from functools import partial
from typing import Iterable, Iterator, Union

from .errors import ArityMismatch, FixtureError, NotInR, ParseFailure, RingopsError
from .indexcat import E, ExtMap, RMorphism, validate
from .operads import TableRingOperad
from .polynomials import RPoly, TypeSignature, canon_str, rpoly, zero_poly
from .terms import Term, _fold, node_str, plus, times, var, ZERO, ONE
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


# The deepest term `parse_term` accepts, in sums and products on one path
# and in nested parentheses alike.  The parser recurses three frames per
# parenthesis, and reduction, normalisation, projection and printing one or
# two frames per level, so every `term` command answers within Python's
# default recursion limit of 1000 frames at this depth.
MAX_TERM_DEPTH = 200


def parse_term(text: str, arity: int) -> Term:
    if arity < 0:
        raise ArityMismatch("arity must be non-negative")
    scanner = _Scanner(text)
    node = _parse_sum(scanner, arity, 0)
    scanner.finish()
    if _depth(node) > MAX_TERM_DEPTH:
        raise ParseFailure(f"term nested deeper than {MAX_TERM_DEPTH} levels", 0)
    return Term(arity, node)


def _depth(node) -> int:
    """The most sums and products on one root-to-leaf path, counted
    without recursion."""
    return _fold(node, lambda _leaf: 0, lambda _tag, left, right: 1 + max(left, right))


def _parse_sum(scanner: _Scanner, arity: int, parens: int):
    node = _parse_product(scanner, arity, parens)
    while scanner.try_take("+"):
        node = plus(node, _parse_product(scanner, arity, parens))
    return node


def _parse_product(scanner: _Scanner, arity: int, parens: int):
    node = _parse_atom(scanner, arity, parens)
    while scanner.try_take("*"):
        node = times(node, _parse_atom(scanner, arity, parens))
    return node


def _parse_atom(scanner: _Scanner, arity: int, parens: int):
    if scanner.try_take("("):
        if parens == MAX_TERM_DEPTH:
            raise ParseFailure(
                f"parentheses nested deeper than {MAX_TERM_DEPTH} levels", scanner.pos - 1
            )
        node = _parse_sum(scanner, arity, parens + 1)
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
# Fixtures


def _fixture_lines(text: str) -> Iterator[tuple[int, str]]:
    """The (line number, row) pairs of a fixture; comments and blank lines
    are dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read_rows(rows: Iterable[tuple[int, str]], grammar: dict) -> dict[str, dict]:
    """Read rows by a grammar {keyword: reader}: one dict key -> value per
    keyword.  A reader gets a scanner placed after the row's keyword and
    returns (key, value); any `RingopsError` it raises is named by the
    row's line."""
    tables: dict[str, dict] = {keyword: {} for keyword in grammar}
    for lineno, line in rows:
        match = _NAME.match(line)
        keyword = match.group() if match else ""
        if keyword not in grammar:
            raise FixtureError(f"line {lineno}: unrecognized row: {line!r}")
        try:
            key, value = grammar[keyword](_Scanner(line, len(keyword)))
        except RingopsError as err:
            raise FixtureError(f"line {lineno}: {err}") from err
        if key in tables[keyword]:
            raise FixtureError(f"line {lineno}: repeated row")
        tables[keyword][key] = value
    return tables


def _singleton(rows: dict, missing: str) -> str:
    """The value of a required singleton row."""
    if None not in rows:
        raise FixtureError(missing)
    return rows[None]


def _component_row(index, scanner: _Scanner) -> tuple[object, list[str]]:
    """Read a `component <index> = <elt> ...` row; index reads its key."""
    body, _, names = scanner.text.partition("=")
    body_scanner = _Scanner(body, scanner.pos)
    key = index(body_scanner)
    body_scanner.finish()
    return key, names.split()


def _parse_value(scanner: _Scanner) -> str:
    """Read `= <elt>` to the end of the row."""
    scanner.expect("=")
    value = scanner.name()
    scanner.finish()
    return value


def _singleton_row(scanner: _Scanner) -> tuple[None, str]:
    """Read a `= <elt>` row; a singleton row's one key is None."""
    return None, _parse_value(scanner)


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


def _act_row(scanner: _Scanner):
    line = scanner.text
    # a morphism `R(m): ... |{...}| R(n): ...` holds two colons
    colon = _motion_start(line, 2)
    mor = parse_morphism(line[scanner.pos:colon].strip())
    source, target = _parse_motion(_Scanner(line, colon))
    return (mor.source, mor.map.images, mor.target, source), target


def _sigma_row(scanner: _Scanner):
    line = scanner.text
    colon = _motion_start(line, 0)
    spec = _Scanner(line[:colon], scanner.pos)
    arity = spec.integer()
    spec.expect("(")
    start = spec.pos - 1
    perm = []
    while not spec.try_take(")"):
        perm.append(spec.integer())
    spec.finish()
    if sorted(perm) != list(range(1, arity + 1)):
        shown = " ".join(map(str, perm))
        raise ParseFailure(f"({shown}) is not a permutation of 1..{arity}", start)
    source, target = _parse_motion(_Scanner(line, colon))
    return (source, tuple(perm)), target


_RING_ROWS = {
    "component": partial(_component_row, _parse_poly),
    "unit": _singleton_row,
    "gamma": _parse_row,
    "act": _act_row,
}
_OPERAD_ROWS = {
    "component": partial(_component_row, _Scanner.integer),
    "identity": _singleton_row,
    "gamma": _parse_row,
    "sigma": _sigma_row,
}
_PAIR_SECTIONS = {
    "additive": _OPERAD_ROWS,
    "multiplicative": _OPERAD_ROWS,
    "lambda": {"lambda": _parse_row},
}


def parse_fixture(text: str, name: str = "fixture") -> TableRingOperad:
    """Read a table-backed ring operad (grammar in the module docstring)."""
    rows = _read_rows(_fixture_lines(text), _RING_ROWS)
    unit = _singleton(rows["unit"], "fixture is missing the unit row")
    return TableRingOperad(rows["component"], unit, rows["gamma"], rows["act"], name=name)


def parse_pair_fixture(text: str, name: str = "pair"):
    """Read an operad pair (grammar in the module docstring)."""
    from .operad_pair import OperadPairData, TableFiniteOperad

    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, line in _fixture_lines(text):
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _PAIR_SECTIONS:
                raise FixtureError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, [])
        elif current is None:
            raise FixtureError(f"line {lineno}: row outside any section")
        else:
            sections[current].append((lineno, line))
    for section in _PAIR_SECTIONS:
        if section not in sections:
            raise FixtureError(f"missing [{section}] section")
    operads = {}
    for section in ("additive", "multiplicative"):
        rows = _read_rows(sections[section], _OPERAD_ROWS)
        identity = _singleton(rows["identity"], f"[{section}] is missing the identity row")
        operads[section] = TableFiniteOperad(
            rows["component"], identity, rows["sigma"], rows["gamma"], name=f"{name}.{section}"
        )
    lambda_rows = _read_rows(sections["lambda"], _PAIR_SECTIONS["lambda"])["lambda"]

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
