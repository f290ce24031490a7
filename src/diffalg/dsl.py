"""Text format for towers, expressions, and Liouville forms.

Tower documents are line-oriented:

    const m, a          # constant parameters
    var x = d/dx 1      # base variable with its derivative
    gen t = exp(1/x^2)  # extension generators by kind
    let u = x*t + 1     # named shorthand, usable in later lines; no
                        # later declaration may take its name

The extension kinds, the Tower constructor each calls and the arguments
it takes are tower.GEN_KINDS: int(g[, G]), a primitive of g with an
optional recorded antiderivative G; log(h), exp(v), lambertw(v), sqrt(r);
ellfun(v, a, b), which also adds the companion NAME_q; and
ellint(k, p, q[, c]) for the three elliptic integral kinds; a log or
ellint generator is checked as the phi term it integrates.  Each gen line
prints back through tower.gen_args.

Form documents declare v0 and phi terms:

    v0 = x^2
    term 1/2 * log((x-1)/(x+1))
    term m * l2(v, y, m)

The term kinds and the elements each takes are phi.TERM_KINDS.  One call
reader reads both tables' signatures: an argument named k is an integer
literal, and bracketed arguments may be left out.

Expressions use +, -, *, /, ^ with non-negative integer exponents; a
leading minus applies after the power, so -x^2 is -(x^2).
Each is folded as one raw quotient by ratfunc.quotient and ratfunc.power
and normalized once, at its end, reducing only square-root powers after
each product and power; a division by an expression in a square root (a
possible zero divisor) is normalized at once.  If the fold raises, as a
product past --max-degree may, it is replayed with a normal form after
every operator, so values and errors are those of Element arithmetic.
Everything prints back through the canonical formatter, so parsing the
printed text reproduces the same tower, bindings, and form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import DiffAlgError, NameClash, ParseError
from .liouville import LiouvilleForm
from .phi import TERM_KINDS, make_term, term_args
from .ratfunc import RatFunc, normal_form, power, quotient, reduce_powers
from .tower import GEN_KINDS, BaseVar, ConstParam, Element, Tower, gen_args

_OPS = "+-*/^(),=;"


class Token(NamedTuple):
    kind: str  # NAME, INT, OP, NL, EOF
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    # The character classes are disjoint, so the tests run most frequent
    # first; a column is the offset from the start of the line, bol.
    toks: list[Token] = []
    append = toks.append
    line, bol = 1, 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _OPS:
            append(Token("OP", ch, line, i - bol + 1))
            i += 1
        elif ch == " ":
            i += 1
        elif "0" <= ch <= "9":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            append(Token("INT", text[i:j], line, i - bol + 1))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            append(Token("NAME", text[i:j], line, i - bol + 1))
            i = j
        elif ch == "\n":
            append(Token("NL", "\n", line, i - bol + 1))
            i += 1
            line, bol = line + 1, i
        elif ch in "\t\r":
            i += 1
        elif ch == "#":
            i = text.find("\n", i)
            if i < 0:
                i = n
        else:
            raise ParseError(f"unexpected character {ch!r}", line,
                             i - bol + 1)
    append(Token("EOF", "", line, i - bol + 1))
    return toks


class _Stream:
    # A peek looks at most this far past the current token; the token
    # list is padded with that many more copies of its EOF token, and the
    # position never passes the first EOF, so a peek is a plain index.
    LOOKAHEAD = 2

    def __init__(self, toks: list[Token]):
        self.toks = toks + toks[-1:] * self.LOOKAHEAD
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}",
                             tok.line, tok.col)
        self.pos += 1  # no caller expects EOF, so this never passes it
        return tok

    def skip_newlines(self) -> None:
        while self.peek().kind == "NL":
            self.next()


def _int_value(tok: Token) -> int:
    """Value of an INT token.  int() refuses literals past its digit
    limit (4300 by default); that is reported as a syntax error."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"integer literal of {len(tok.text)} digits is "
                         "too long", tok.line, tok.col) from None


# --------------------------------------------------------------------------
# Expressions: precedence climbing over operands, each read by index from
# the token list; an atom is a RatFunc, an operation a pair.

_BINARY = {"+": 10, "-": 10, "*": 20, "/": 20}


def _parse_expr(ts: _Stream, env: dict, t: Tower,
                stop: bool = False) -> Element:
    start, pos = ts.peek(), ts.pos
    try:
        try:
            v = _settle(_parse_binary(ts, env, t, False, 0, stop), t, True)
        except DiffAlgError:  # replay as Element arithmetic, for its error
            ts.pos = pos
            v = _parse_binary(ts, env, t, True, 0, stop)
    except RecursionError:
        raise ParseError("expression nests too deeply",
                         start.line, start.col) from None
    return Element(t, v)


def _parse_binary(ts: _Stream, env: dict, t: Tower, step: bool,
                  min_prec: int, stop: bool):
    left = _parse_operand(ts, env, t, step)
    toks = ts.toks
    while True:
        tok = toks[ts.pos]
        prec = _BINARY.get(tok.text)  # only an OP token has such a text
        if prec is None or prec < min_prec:
            return left
        if (stop and tok.text == "*" and toks[ts.pos + 1].kind == "NAME"
                and toks[ts.pos + 1].text in TERM_KINDS
                and toks[ts.pos + 2].text == "("):
            return left  # the * belongs to "term coeff * phikind(...)"
        ts.pos += 1
        right = _parse_binary(ts, env, t, step, prec + 1, stop)
        divisor, _ = right  # one in a square root may be a zero divisor
        full = step or tok.text == "/" and divisor.holds(t.rels)
        left = _settle(quotient(tok.text, left, right), t, full,
                       tok.text == "*")


def _settle(v, t: Tower, full: bool, product: bool = False):
    """Normal form if full, else square-root powers reduced after a
    product, as Element's normal form would; sums and powers keep them."""
    if isinstance(v, RatFunc):  # an atom, already normal
        return v
    if full:
        return normal_form(*v, t.rels)
    return reduce_powers(*v, t.rels) if product and t.rels else v


def _parse_operand(ts: _Stream, env: dict, t: Tower, step: bool):
    """An operand: minus signs, an atom, then at most one ^ INT; the
    signs apply after the power, so -x^2 is -(x^2)."""
    toks = ts.toks
    tok = toks[ts.pos]
    negate = False
    while tok.text == "-":  # only an OP token has this text
        negate = not negate
        ts.pos += 1
        tok = toks[ts.pos]
    if tok.kind not in ("INT", "NAME") and tok.text != "(":
        raise ParseError(f"expected an expression, found {tok.text!r}",
                         tok.line, tok.col)
    ts.pos += 1
    if tok.kind == "INT":
        v = RatFunc.const(_int_value(tok))
    elif tok.kind == "NAME":
        if tok.text not in env:
            raise ParseError(f"unknown name {tok.text!r}", tok.line, tok.col)
        v = t.coerce(env[tok.text]).rf
    else:
        v = _parse_binary(ts, env, t, step, 0, False)
        ts.expect("OP", ")")
    if toks[ts.pos].text == "^":
        ts.pos += 1
        v = _settle(power(v, _int_value(ts.expect("INT")), t.rels), t, step)
    if negate:
        num, den = v
        v = RatFunc(-num, den) if isinstance(v, RatFunc) else (-num, den)
    return v


def parse_expr(text: str, t: Tower, bindings: dict | None = None) -> Element:
    """One expression over the tower's generators and extra bindings."""
    ts = _Stream(tokenize(text))
    ts.skip_newlines()
    env = _scope(t, bindings)
    e = _parse_expr(ts, env, t)
    ts.skip_newlines()
    tok = ts.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return e


def _scope(t: Tower, bindings: dict | None) -> dict:
    env = {g.name: t.element(g.name) for g in t.generators}
    if bindings:
        for k, v in bindings.items():
            env[k] = v
    return env


# --------------------------------------------------------------------------
# Tower documents.


@dataclass
class TowerDoc:
    tower: Tower
    bindings: dict  # let-name -> Element, insertion ordered


def parse_tower(text: str) -> TowerDoc:
    ts = _Stream(tokenize(text))
    t = Tower.base()
    bindings: dict = {}

    def env() -> dict:
        return _scope(t, bindings)

    while True:
        ts.skip_newlines()
        tok = ts.peek()
        if tok.kind == "EOF":
            break
        head = ts.expect("NAME")
        if head.text == "const":
            while True:
                name = ts.expect("NAME")
                t = t.const(name.text)
                if ts.peek().kind == "OP" and ts.peek().text == ",":
                    ts.next()
                    continue
                break
        elif head.text == "var":
            name = ts.expect("NAME")
            ts.expect("OP", "=")
            ts.expect("NAME", "d")
            ts.expect("OP", "/")
            ts.expect("NAME", "dx")
            deriv = _parse_expr(ts, env(), t)
            t = t.var(name.text, deriv)
        elif head.text == "gen":
            name = ts.expect("NAME")
            ts.expect("OP", "=")
            t = _parse_gen(ts, t, env(), name)
        elif head.text == "let":
            name = ts.expect("NAME")
            if name.text in bindings or any(
                    g.name == name.text for g in t.generators):
                raise NameClash(f"name {name.text!r} already bound")
            ts.expect("OP", "=")
            bindings[name.text] = _parse_expr(ts, env(), t)
        else:
            raise ParseError(f"unknown declaration {head.text!r}",
                             head.line, head.col)
        # a generator may not take a let name, nor may ellfun's NAME_q
        taken = [g.name for g in t.generators if g.name in bindings]
        if taken:
            raise NameClash(f"name {taken[0]!r} already bound")
        nxt = ts.peek()
        if nxt.kind not in ("NL", "EOF") and nxt.text != ";":
            raise ParseError(f"trailing input {nxt.text!r}", nxt.line, nxt.col)
        if nxt.text == ";":
            ts.next()

    # Re-anchor earlier bindings on the final tower.
    bindings = {k: t.coerce(v) for k, v in bindings.items()}
    return TowerDoc(t, bindings)


def _parse_gen(ts: _Stream, t: Tower, env: dict, name: Token) -> Tower:
    kind = ts.expect("NAME")
    if kind.text not in GEN_KINDS:
        raise ParseError(f"unknown extension kind {kind.text!r}",
                         kind.line, kind.col)
    make, takes = GEN_KINDS[kind.text]
    return make(t, name.text, *_parse_call(ts, env, t, kind, takes))


def _parse_call(ts: _Stream, env: dict, t: Tower, kind: Token,
                takes: str) -> list:
    """The arguments in parentheses of a GEN_KINDS or TERM_KINDS call, by
    its signature takes: one named k is an integer literal, every other
    an expression, and the bracketed ones may be left out."""
    names = iter(takes.split(", "))
    args, sep = [], ts.expect("OP", "(")
    while sep.text != ")":
        args.append(_int_value(ts.expect("INT")) if next(names, "") == "k"
                    else _parse_expr(ts, env, t))
        sep = ts.next() if ts.peek().text == "," else ts.expect("OP", ")")
    if not takes.split("[")[0].count(",") < len(args) <= takes.count(",") + 1:
        raise ParseError(f"{kind.text} takes {takes}", kind.line, kind.col)
    return args


# --------------------------------------------------------------------------
# Printing.  Declarations are reconstructed from the defining data, so
# the output re-parses to an equal tower.


def print_tower(doc: TowerDoc) -> str:
    lines = []
    for g in doc.tower.generators:
        k = g.kind
        if isinstance(k, ConstParam):
            lines.append(f"const {g.name}")
        elif isinstance(k, BaseVar):
            lines.append(f"var {g.name} = d/dx {k.deriv}")
        elif decl := gen_args(k):  # a companion comes with its ellfun line
            kind, args = decl
            lines.append(f"gen {g.name} = {kind}({', '.join(map(str, args))})")
    for name, e in doc.bindings.items():
        lines.append(f"let {name} = {e}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Form documents.


def parse_form(text: str, t: Tower, bindings: dict | None = None) -> LiouvilleForm:
    ts = _Stream(tokenize(text))
    env = _scope(t, bindings)
    ts.skip_newlines()
    head = ts.expect("NAME")
    if head.text != "v0":
        raise ParseError("form must start with 'v0 ='", head.line, head.col)
    ts.expect("OP", "=")
    v0 = _parse_expr(ts, env, t)
    terms = []
    while True:
        while ts.peek().kind == "NL" or ts.peek().text == ";":
            ts.next()
        tok = ts.peek()
        if tok.kind == "EOF":
            break
        ts.expect("NAME", "term")
        coeff = _parse_expr(ts, env, t, stop=True)
        ts.expect("OP", "*")
        kind = ts.next()  # the coefficient stopped only before a term kind
        args = _parse_call(ts, env, t, kind, TERM_KINDS[kind.text])
        terms.append((coeff, make_term(kind.text, args)))
    return LiouvilleForm(v0, terms)


def print_form(form: LiouvilleForm) -> str:
    lines = [f"v0 = {form.v0}"]
    for coeff, term in form.terms:
        name, elements = term_args(term)
        lines.append(f"term {coeff} * {name}({', '.join(map(str, elements))})")
    return "\n".join(lines) + "\n"
