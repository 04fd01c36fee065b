"""Ring expressions: a tiny grammar for naming rings on the command line.

    expr := term (ws 'x' ws term)*
    term := 'Z' UINT | 'M' UINT '(' expr ')' | 'T' '(' path ')' | '(' expr ')'

'x' is the direct-product operator (left-associative, lowest precedence);
whitespace around tokens is insignificant; 'Z', 'M', 'T' are case-sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from pathlib import Path

from .rings import (
    DEFAULT_SIZE_CAP,
    FiniteRing,
    _check_cap,
    _power_order,
    load_table_ring,
    make_cyclic_ring,
    make_matrix_ring,
    make_product_ring,
    table_order,
)


class RingExpr:
    pass


@dataclass(frozen=True)
class Cyclic(RingExpr):
    n: int


@dataclass(frozen=True)
class Product(RingExpr):
    factors: tuple[RingExpr, ...]


@dataclass(frozen=True)
class Matrix(RingExpr):
    k: int
    inner: RingExpr


@dataclass(frozen=True)
class TableFile(RingExpr):
    path: str


class ParseError(ValueError):
    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        exp = " or ".join(expected)
        super().__init__(f"syntax error at offset {offset}: expected {exp}, found {found}")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _fail(self, *expected: str):
        found = repr(self._peek()) if self._peek() else "end of input"
        raise ParseError(self.pos, expected, found)

    def _expect(self, ch: str) -> None:
        self._skip_ws()
        if self._peek() != ch:
            self._fail(repr(ch))
        self.pos += 1

    def _uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self._fail("an unsigned integer")
        try:
            value = int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            raise ParseError(start, ("a shorter integer",), f"{self.pos - start} digits") from None
        if value == 0:
            raise ParseError(start, ("a positive integer",), "0")
        return value

    def parse(self) -> RingExpr:
        e = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            self._fail("'x'", "end of input")
        return e

    def _expr(self) -> RingExpr:
        factors = [self._term()]
        while True:
            self._skip_ws()
            if self._peek() == "x":
                self.pos += 1
                factors.append(self._term())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        flat: list[RingExpr] = []
        for f in factors:
            flat.extend(f.factors) if isinstance(f, Product) else flat.append(f)
        return Product(tuple(flat))

    def _term(self) -> RingExpr:
        self._skip_ws()
        ch = self._peek()
        if ch == "Z":
            self.pos += 1
            return Cyclic(self._uint())
        if ch == "M":
            self.pos += 1
            k = self._uint()
            self._expect("(")
            inner = self._expr()
            self._expect(")")
            return Matrix(k, inner)
        if ch == "T":
            self.pos += 1
            self._expect("(")
            end = self.text.find(")", self.pos)
            if end < 0:
                raise ParseError(len(self.text), ("')'",), "end of input")
            path = self.text[self.pos : end].strip()
            if not path:
                raise ParseError(self.pos, ("a file path",), "')'")
            self.pos = end + 1
            return TableFile(path)
        if ch == "(":
            self.pos += 1
            inner = self._expr()
            self._expect(")")
            return inner
        self._fail("'Z'", "'M'", "'T'", "'('")


def parse_ring_expr(text: str) -> RingExpr:
    try:
        return _Parser(text).parse()
    except RecursionError:  # bad input, not a bug: nested deeper than the stack allows
        raise ParseError(0, ("an expression nested less deeply",), "too deep a nesting") from None


def unparse(e: RingExpr) -> str:
    if isinstance(e, Cyclic):
        return f"Z{e.n}"
    if isinstance(e, Matrix):
        return f"M{e.k}({unparse(e.inner)})"
    if isinstance(e, TableFile):
        return f"T({e.path})"
    if isinstance(e, Product):
        return " x ".join(unparse(f) for f in e.factors)
    raise TypeError(f"not a ring expression: {e!r}")


def _table_text(path: str, texts: dict[str, str]) -> str:
    if path not in texts:
        texts[path] = Path(path).read_text()
    return texts[path]


def expr_order(e: RingExpr, cap: int | None = None, texts: dict[str, str] | None = None) -> int:
    """The order of the ring an expression names, found without building it
    (of a table file, only the declared order is parsed).  Raises CapacityError
    once a subexpression exceeds `cap`; none is larger than the whole ring.
    `texts` maps each table file read so far to its contents, so that a build
    that follows reads no file twice."""
    cap = DEFAULT_SIZE_CAP if cap is None else cap
    texts = {} if texts is None else texts
    if isinstance(e, Cyclic):
        n = e.n
    elif isinstance(e, TableFile):
        n = table_order(_table_text(e.path, texts))
    elif isinstance(e, Product):
        n = 1
        for f in e.factors:  # the running product stays below cap**2
            n *= expr_order(f, cap, texts)
            _check_cap(n, cap)
    elif isinstance(e, Matrix):
        n = _power_order(expr_order(e.inner, cap, texts), e.k * e.k, cap)
    else:
        raise TypeError(f"not a ring expression: {e!r}")
    _check_cap(n, cap)
    return n


def build_ring(e: RingExpr, cap: int | None = None) -> FiniteRing:
    """Construct the ring an expression names, reading each table file once.
    The whole ring's order is checked against `cap` before anything is built."""
    texts: dict[str, str] = {}
    expr_order(e, cap, texts)
    return _build(e, cap, texts)


def _build(e: RingExpr, cap: int | None, texts: dict[str, str]) -> FiniteRing:
    if isinstance(e, Cyclic):
        return make_cyclic_ring(e.n, cap)
    if isinstance(e, Matrix):
        return make_matrix_ring(_build(e.inner, cap, texts), e.k, cap)
    if isinstance(e, TableFile):
        return load_table_ring(_table_text(e.path, texts), cap)
    rings = [_build(f, cap, texts) for f in e.factors]
    return reduce(lambda a, b: make_product_ring(a, b, cap), rings)
