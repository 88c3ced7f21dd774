"""`parse_rational` against the parser it replaced, kept here as the
reference: that parser carried every value as a `Poly` or `RatFn` and every
token with its character position.  Both must give the same `RatFn`, or the
same `ParseError` message at the same position, on texts of the grammar and
on malformed ones: foreign characters, unbalanced parentheses, empty input,
literals past the digit cap, powers past the degree and digit caps, nesting
at the cap, and '/' by a zero value."""

import math
import operator
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from twodof.cli import MAX_DEGREE, MAX_DIGITS, MAX_EXPONENT, MAX_NESTING, ParseError, parse_rational
from twodof.polyalg import ONE, S, Poly, RatFn, _as_ratfn

# -- the reference parser ----------------------------------------------------------

_SYMBOLS = set("s+-*/^()")
_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "^": operator.pow,
}


def _apply(op: str, a: Poly | RatFn, b: Poly | RatFn | int, pos: int) -> Poly | RatFn:
    an, ad = _degrees(a)
    if op == "^":
        degree = b * max(an, ad)
        size = max(max(sum(map(abs, p._z)), p._d) for p in _parts(a))
        if b * math.log10(size) > MAX_DIGITS * MAX_EXPONENT:
            raise ParseError(f"power exceeds the cap of {MAX_DIGITS * MAX_EXPONENT} digits", pos)
    else:
        bn, bd = _degrees(b)
        if op == "/":
            bn, bd = bd, bn
        degree = max(max(an + bd, bn + ad) if op in "+-" else an + bn, ad + bd)
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds the cap of {MAX_DEGREE}", pos)
    if op == "/" and a.__class__ is b.__class__ is Poly:
        return RatFn(a, b)
    if op != "^" and a.__class__ is not b.__class__:
        a, b = _as_ratfn(a), _as_ratfn(b)
    return _BINARY[op](a, b)


def _parts(x: Poly | RatFn) -> tuple[Poly, Poly]:
    return (x, ONE) if x.__class__ is Poly else (x.num, x.den)


def _degrees(x: Poly | RatFn) -> tuple[int, int]:
    num, den = _parts(x)
    return num.degree() or 0, den.degree() or 0


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in re.finditer(r"[0-9]+|\S", text):
        tok, i = match.group(), match.start()
        if tok[0] in "0123456789":
            if len(tok) > MAX_DIGITS:
                raise ParseError(f"literal of {len(tok)} digits exceeds the cap of {MAX_DIGITS}", i)
            tokens.append(("int", tok, i))
        elif tok in _SYMBOLS:
            tokens.append((tok, tok, i))
        else:
            raise ParseError(f"unexpected character {tok!r}", i)
    return tokens + [("end", "", len(text))]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.k]

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            want = "end of input" if kind == "end" else repr(kind)
            raise ParseError(f"expected {want}, found {tok[1] or 'end of input'!r}", tok[2])
        self.k += 1
        return tok

    def expression(self) -> Poly | RatFn:
        negate = self.peek()[0] == "-"
        if negate:
            self.take()
        value = -self.term() if negate else self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.take()
            value = _apply(op, value, self.term(), pos)
        return value

    def term(self) -> Poly | RatFn:
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            rhs = self.factor()
            if op == "/" and rhs.is_zero():
                raise ParseError("zero denominator", pos)
            value = _apply(op, value, rhs, pos)
        return value

    def factor(self) -> Poly | RatFn:
        value = self.base()
        if self.peek()[0] == "^":
            pos = self.take()[2]
            _, text, exp_pos = self.take("int")
            k = int(text)
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent {k} exceeds the cap of {MAX_EXPONENT}", exp_pos)
            value = _apply("^", value, k, pos)
        return value

    def base(self) -> Poly | RatFn:
        kind, text, pos = self.peek()
        if kind == "s":
            self.take()
            return S
        if kind == "int":
            self.take()
            return Poly((int(text),))
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.take()
            self.depth += 1
            inner = self.expression()
            self.take(")")
            self.depth -= 1
            return inner
        raise ParseError(f"expected 's', a number, or '(', found {text or 'end of input'!r}", pos)


def reference_parse(text: str) -> RatFn:
    parser = _Parser(text)
    value = parser.expression()
    parser.take("end")
    return _as_ratfn(value)


# -- texts -------------------------------------------------------------------------

atoms = st.one_of(
    st.just("s"),
    st.integers(0, 12).map(str),
    st.integers(0, 10**MAX_DIGITS - 1).map(str),
)


def expression_texts(inner):
    base = st.one_of(atoms, inner.map(lambda e: f"({e})"))
    power = st.sampled_from(["", "", "^0", "^1", "^2", "^3", "^21", f"^{MAX_EXPONENT}"])
    factor = st.tuples(base, power).map("".join)
    tail = st.lists(st.tuples(st.sampled_from(["*", "/", " / "]), factor).map("".join), max_size=2)
    term = st.tuples(factor, tail).map(lambda t: t[0] + "".join(t[1]))
    more = st.lists(st.tuples(st.sampled_from([" + ", "-", " - "]), term).map("".join), max_size=2)
    return st.tuples(st.sampled_from(["", "-", " -"]), term, more).map(
        lambda t: t[0] + t[1] + "".join(t[2])
    )


grammar_texts = st.recursive(atoms, expression_texts, max_leaves=10)

# fragments that break a text where they are put in
FRAGMENTS = [
    "/0", "^65", "1" * (MAX_DIGITS + 1), "(", "²", f"^{MAX_DEGREE + 1}", ")", "/(s-s)",
    f"^{MAX_EXPONENT}", "x", "9" * MAX_DIGITS, "^", "٣", "()", "/0^1", "^(2)", "+", ".",
    "--", "*", " ", "s s", "",
]


@st.composite
def malformed_texts(draw):
    text = draw(grammar_texts)
    how = draw(st.sampled_from(["insert", "delete", "nest"]))
    if how == "insert":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(FRAGMENTS)) + text[at:]
    if how == "delete" and text:
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + text[at + 1 :]
    depth = draw(st.sampled_from([MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1]))
    close = depth + draw(st.sampled_from([-1, 0, 0, 1]))
    return "(" * depth + text + ")" * close


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.position


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(st.one_of(grammar_texts, malformed_texts(), st.just("")))
@example("")
@example("(s+1")
@example("s^²")
@example("1" * 4400 + "*s+1")
@example("((10^64)^64)^64")
@example("(s+1)^40/(s+2)^40/s")
@example("(" * MAX_NESTING + "s" + ")" * MAX_NESTING)
@example("(" * (MAX_NESTING + 1) + "s" + ")" * (MAX_NESTING + 1))
@example("s/(s/0)")
@example("0^0 - (s-s)^0")
def test_parse_matches_the_reference_parser(text):
    assert outcome(parse_rational, text) == outcome(reference_parse, text), text
